"""Z-buffered point rasterisation into character and pixel buffers.

The warehouse renders as a voxel point cloud: every visible voxel projects to
one cell, nearest-depth wins.  The z-test is vectorized as a z-buffer: one
``np.maximum.at`` finds each sample's nearest depth, and only the points at
that depth are scattered.  NumPy fancy assignment applies in index order, so
among equally near points the last one lands, exactly as if the points had
been sorted far-to-near with a stable sort and scattered in that order.
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
        """Glyphs with 24-bit foreground colours for painted cells.

        Each cell is keyed by (painted, RGB, glyph); the escape string is
        built once per distinct key and gathered back into the grid, so a
        frame costs one ``np.unique`` and one join per row, not one
        f-string per cell.  Unpainted cells print their bare glyph whatever
        colour they hold.
        """
        codes = self.glyphs.view(np.uint32).astype(np.int64)  # 0 for an empty glyph
        rgb = self.colors.astype(np.int64)
        rgb24 = (rgb[..., 0] << 16) | (rgb[..., 1] << 8) | rgb[..., 2]
        keys = np.where(self.painted, (1 << 45) | (rgb24 << 21) | codes, codes)
        uniq, inverse = np.unique(keys.ravel(), return_inverse=True)
        table = np.empty(uniq.size, dtype=object)
        for k, key in enumerate(uniq.tolist()):
            code = key & 0x1FFFFF
            ch = chr(code) if code else ""
            if key >> 45:
                c = key >> 21
                table[k] = f"{fg_rgb((c >> 16) & 255, (c >> 8) & 255, c & 255)}{ch}{RESET}"
            else:
                table[k] = ch
        cells = table[inverse].reshape(self.height, self.width)
        return "\n".join("".join(row) for row in cells.tolist())

    def copy(self) -> "CharBuffer":
        """An independent buffer with the same cells."""
        out = CharBuffer.__new__(CharBuffer)
        out.width = self.width
        out.height = self.height
        out.glyphs = self.glyphs.copy()
        out.colors = self.colors.copy()
        out.painted = self.painted.copy()
        return out


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
    cell = yi * w + xi
    if np.isnan(depth).any():
        # a stable sort ranks NaN nearest of all, which no max can see
        order = np.argsort(depth, kind="stable")  # far → near; near assigns last
    else:
        # z-buffer: the nearest depth per sample, then keep the points at it;
        # ties go to the last point, as in a stable far-to-near sort
        zbuf = np.full(h * w, -np.inf)
        np.maximum.at(zbuf, cell, depth)
        order = np.flatnonzero(depth == zbuf[cell])
    grid_color = np.zeros((h * w, 3), dtype=np.uint8)
    grid_hit = np.zeros(h * w, dtype=bool)
    grid_color[cell[order]] = rgb[order]
    grid_hit[cell[order]] = True
    # fold each ss x ss block sample by sample (a strided multi-axis
    # reduction is several times slower); unhit samples are black (0), so a
    # channel-wise max picks a hit colour
    blocks_color = grid_color.reshape(height, ss, width, ss, 3)
    blocks_hit = grid_hit.reshape(height, ss, width, ss)
    grid_color = blocks_color[:, 0, :, 0]
    grid_hit = blocks_hit[:, 0, :, 0]
    for dy in range(ss):
        for dx in range(ss):
            if dy or dx:
                grid_color = np.maximum(grid_color, blocks_color[:, dy, :, dx])
                grid_hit = grid_hit | blocks_hit[:, dy, :, dx]
    ys, xs = np.nonzero(grid_hit)
    buf.glyphs[ys, xs] = glyph
    buf.colors[ys, xs] = grid_color[ys, xs]
    buf.painted[ys, xs] = True
    return buf
