"""The vectorised raster paths against per-cell and sort-based references.

``CharBuffer.to_ansi`` builds one escape string per distinct (painted, RGB,
glyph) key and gathers them into the grid; ``rasterize_points`` resolves
depth with a z-buffer.  The references below are the implementations they
replaced: one f-string per cell, and a stable far-to-near sort whose later
scatters overwrite earlier ones.  Both must agree to the byte.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.render.ansi import RESET, fg_rgb
from repro.render.raster import CharBuffer, rasterize_points

# ---------------------------------------------------------------------- #
# references
# ---------------------------------------------------------------------- #


def ref_to_ansi(buf: CharBuffer) -> str:
    lines = []
    for glyphs, painted, colors in zip(
        buf.glyphs.tolist(), buf.painted.tolist(), buf.colors.tolist()
    ):
        parts = []
        for ch, hit, (r, g, b) in zip(glyphs, painted, colors):
            parts.append(f"{fg_rgb(r, g, b)}{ch}{RESET}" if hit else ch)
        lines.append("".join(parts))
    return "\n".join(lines)


def ref_rasterize(u, v, depth, rgb, *, width, height, supersample):
    """The sort-based z-test on the fitted sample grid."""
    ss = supersample
    w, h = width * ss, height * ss
    su = u * 2.0 * ss
    sv = v * ss
    su = su - su.min()
    sv = sv - sv.min()
    span_u = max(su.max(), 1e-9)
    span_v = max(sv.max(), 1e-9)
    fit = min((w - 1) / span_u, (h - 1) / span_v, 1.0)
    su = su * fit + (w - 1 - span_u * fit) / 2.0
    sv = sv * fit + (h - 1 - span_v * fit) / 2.0
    xi = np.clip(np.round(su).astype(np.int64), 0, w - 1)
    yi = np.clip(np.round(sv).astype(np.int64), 0, h - 1)
    order = np.argsort(depth, kind="stable")
    grid_color = np.zeros((h, w, 3), dtype=np.uint8)
    grid_hit = np.zeros((h, w), dtype=bool)
    grid_color[yi[order], xi[order]] = rgb[order]
    grid_hit[yi[order], xi[order]] = True
    grid_hit = grid_hit.reshape(height, ss, width, ss).any(axis=(1, 3))
    grid_color = grid_color.reshape(height, ss, width, ss, 3).max(axis=(1, 3))
    buf = CharBuffer(width, height)
    ys, xs = np.nonzero(grid_hit)
    buf.glyphs[ys, xs] = "█"
    buf.colors[ys, xs] = grid_color[ys, xs]
    buf.painted[ys, xs] = True
    return buf


def _same_buffer(a: CharBuffer, b: CharBuffer) -> None:
    assert a.glyphs.tobytes() == b.glyphs.tobytes()
    assert a.colors.tobytes() == b.colors.tobytes()
    assert a.painted.tobytes() == b.painted.tobytes()


# ---------------------------------------------------------------------- #
# to_ansi
# ---------------------------------------------------------------------- #

channels = st.sampled_from([0, 1, 127, 128, 254, 255])
colours = st.tuples(channels, channels, channels)
glyph_text = st.text(
    alphabet=st.sampled_from(["█", "#", " ", "x", "é", "→", "│", "😀", "\x00", "9"]),
    max_size=8,
)


@st.composite
def char_buffers(draw):
    width, height = draw(st.integers(1, 9)), draw(st.integers(1, 5))
    buf = CharBuffer(width, height)
    # unpainted cells holding colours must still print bare
    seed = draw(st.integers(0, 2**16))
    buf.colors[:] = np.random.default_rng(seed).integers(0, 256, (height, width, 3))
    for _ in range(draw(st.integers(0, 6))):
        x, y = draw(st.integers(-2, width)), draw(st.integers(-1, height))
        buf.text(x, y, draw(glyph_text), draw(colours))
    for _ in range(draw(st.integers(0, 3))):
        # painted black cells, with and without a glyph
        x, y = draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1))
        buf.put(x, y, draw(st.sampled_from(["", " ", "█"])), (0, 0, 0))
    return buf


@settings(max_examples=150, deadline=None)
@given(char_buffers())
def test_to_ansi_matches_the_per_cell_reference(buf):
    assert buf.to_ansi() == ref_to_ansi(buf)


def test_to_ansi_of_a_blank_and_a_full_buffer():
    blank = CharBuffer(4, 2)
    assert blank.to_ansi() == "    \n    "
    full = CharBuffer(3, 2, fill="█")
    full.painted[:] = True
    full.colors[:] = (10, 20, 30)
    assert full.to_ansi() == ref_to_ansi(full)
    assert full.to_ansi().count(RESET) == 6


def test_copy_is_independent():
    buf = CharBuffer(3, 1)
    buf.put(0, 0, "#", (1, 2, 3))
    dup = buf.copy()
    dup.put(1, 0, "x", (4, 5, 6))
    dup.colors[0, 0] = 9
    assert buf.to_ansi() == ref_to_ansi(buf) and "x" not in buf.to_plain()
    assert buf.colors[0, 0].tolist() == [1, 2, 3]


# ---------------------------------------------------------------------- #
# rasterize_points
# ---------------------------------------------------------------------- #

# coarse coordinates, so many points share a sample and ties are common
depths = st.one_of(
    st.integers(-3, 3).map(lambda k: k / 2),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
)


@st.composite
def clouds(draw):
    n = draw(st.integers(1, 60))
    coord = st.integers(-6, 6).map(lambda k: k / 3)
    u = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
    v = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
    depth = np.array(draw(st.lists(depths, min_size=n, max_size=n)))
    rgb = np.array(draw(st.lists(colours, min_size=n, max_size=n)), dtype=np.uint8)
    return u, v, depth, rgb


@settings(max_examples=200, deadline=None)
@given(clouds(), st.integers(1, 12), st.integers(1, 6), st.integers(1, 3))
def test_zbuffer_matches_the_stable_sort(cloud, width, height, supersample):
    u, v, depth, rgb = cloud
    got = rasterize_points(
        u, v, depth, rgb, width=width, height=height, supersample=supersample
    )
    want = ref_rasterize(
        u, v, depth, rgb, width=width, height=height, supersample=supersample
    )
    _same_buffer(got, want)
