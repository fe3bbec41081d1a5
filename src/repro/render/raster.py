"""Z-buffered point rasterisation into character and pixel buffers.

The warehouse renders as a voxel point cloud: every visible voxel projects to
one cell, nearest-depth wins.  The z-test is vectorized by sorting points
far-to-near and letting later scatters overwrite earlier ones — NumPy fancy
assignment applies in index order, so the nearest point lands last.
"""

from __future__ import annotations

import numpy as np

from repro.errors import RenderError
from repro.render.ansi import RESET, fg_rgb

__all__ = ["CharBuffer", "rasterize_points"]

#: Character aspect correction: terminal cells are ~twice as tall as wide.
CHAR_ASPECT = 0.5


class CharBuffer:
    """A grid of glyph + RGB cells renderable as plain or ANSI text."""

    def __init__(self, width: int, height: int, *, fill: str = " ") -> None:
        if width < 1 or height < 1:
            raise RenderError(f"char buffer needs positive dimensions, got {width}x{height}")
        self.width = width
        self.height = height
        self.glyphs = np.full((height, width), fill, dtype="<U1")
        self.colors = np.zeros((height, width, 3), dtype=np.uint8)
        self.painted = np.zeros((height, width), dtype=bool)

    def put(self, x: int, y: int, glyph: str, rgb: tuple[int, int, int] = (255, 255, 255)) -> None:
        if 0 <= x < self.width and 0 <= y < self.height:
            self.glyphs[y, x] = glyph[:1]
            self.colors[y, x] = rgb
            self.painted[y, x] = True

    def text(self, x: int, y: int, s: str, rgb: tuple[int, int, int] = (255, 255, 255)) -> None:
        """Write a horizontal string (clipped at the buffer edge)."""
        for k, ch in enumerate(s):
            self.put(x + k, y, ch, rgb)

    def to_plain(self) -> str:
        """Glyphs only — what the tests assert against."""
        return "\n".join("".join(row) for row in self.glyphs)

    def to_ansi(self) -> str:
        """Glyphs with 24-bit foreground colours for painted cells."""
        lines: list[str] = []
        for glyphs, painted, colors in zip(
            self.glyphs.tolist(), self.painted.tolist(), self.colors.tolist()
        ):
            parts: list[str] = []
            for ch, hit, (r, g, b) in zip(glyphs, painted, colors):
                parts.append(f"{fg_rgb(r, g, b)}{ch}{RESET}" if hit else ch)
            lines.append("".join(parts))
        return "\n".join(lines)


def rasterize_points(
    u: np.ndarray,
    v: np.ndarray,
    depth: np.ndarray,
    rgb: np.ndarray,
    *,
    width: int,
    height: int,
    scale: float = 1.0,
    glyph: str = "█",
    supersample: int = 1,
) -> CharBuffer:
    """Scatter projected points into a :class:`CharBuffer`, nearest wins.

    Points are auto-centred: the cloud's bounding box is fitted into the
    buffer at the given *scale* (cells per world unit; u is additionally
    doubled to counter the terminal cell aspect).  ``supersample`` renders at
    an integer multiple then keeps the nearest sample per cell, smoothing
    ragged voxel edges at small sizes.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    depth = np.asarray(depth, dtype=np.float64)
    rgb = np.asarray(rgb, dtype=np.uint8)
    buf = CharBuffer(width, height)
    if u.size == 0:
        return buf
    ss = max(1, int(supersample))
    w, h = width * ss, height * ss
    # two cells per unit horizontally, one vertically: 2:1 cell aspect correction
    su = u * 2.0 * scale * ss
    sv = v * scale * ss
    # fit: centre the cloud in the buffer
    su = su - su.min()
    sv = sv - sv.min()
    span_u = max(su.max(), 1e-9)
    span_v = max(sv.max(), 1e-9)
    fit = min((w - 1) / span_u, (h - 1) / span_v, 1.0)
    su = su * fit + (w - 1 - span_u * fit) / 2.0
    sv = sv * fit + (h - 1 - span_v * fit) / 2.0
    xi = np.clip(np.round(su).astype(np.int64), 0, w - 1)
    yi = np.clip(np.round(sv).astype(np.int64), 0, h - 1)
    order = np.argsort(depth, kind="stable")  # far → near; near assigns last
    xi, yi, rgb_o = xi[order], yi[order], rgb[order]
    grid_color = np.zeros((h, w, 3), dtype=np.uint8)
    grid_hit = np.zeros((h, w), dtype=bool)
    grid_color[yi, xi] = rgb_o
    grid_hit[yi, xi] = True
    if ss > 1:
        grid_hit = grid_hit.reshape(height, ss, width, ss).any(axis=(1, 3))
        # unhit samples are black (0), so a channel-wise max picks a hit colour
        grid_color = grid_color.reshape(height, ss, width, ss, 3).max(axis=(1, 3))
    ys, xs = np.nonzero(grid_hit)
    buf.glyphs[ys, xs] = glyph
    buf.colors[ys, xs] = grid_color[ys, xs]
    buf.painted[ys, xs] = True
    return buf
