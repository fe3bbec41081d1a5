"""Software rendering: 2-D spreadsheet view, 3-D isometric view, PPM output."""

from repro.render.ansi import RESET, bg_rgb, colorize, fg_rgb, strip_ansi
from repro.render.ascii2d import CELL_RGB, render_matrix_2d, render_matrix_compact
from repro.render.camera import ISO_PITCH, OrthoCamera, ViewMode
from repro.render.ppm import read_ppm, write_ppm
from repro.render.raster import CharBuffer, rasterize_points
from repro.render.scene import (
    SceneCache,
    collect_voxels,
    render_scene_ascii,
    render_scene_pixels,
)

__all__ = [
    "render_matrix_2d",
    "render_matrix_compact",
    "CELL_RGB",
    "OrthoCamera",
    "ViewMode",
    "ISO_PITCH",
    "CharBuffer",
    "rasterize_points",
    "SceneCache",
    "collect_voxels",
    "render_scene_ascii",
    "render_scene_pixels",
    "write_ppm",
    "read_ppm",
    "colorize",
    "strip_ansi",
    "fg_rgb",
    "bg_rgb",
    "RESET",
]
