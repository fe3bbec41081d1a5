"""The level's per-revision render cache never shows a stale frame.

``WarehouseLevel`` keeps the world-space voxel cloud and the rasterised
frames of the current scene revision.  A missed invalidation would show the
scene as it was before a change, so after every step of a random play —
placing packets, toggling pallet colours, switching and rotating the view,
and direct edits of the scene followed by ``invalidate()`` — each cached
frame must equal an uncached render of the same tree through the same
camera.  Callers may scribble on the frames they get back; that must not
reach the next frame either.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.math3d import Vector3
from repro.game.warehouse import WarehouseLevel
from repro.modules.library import builtin_catalog
from repro.render.scene import render_scene_ascii, render_scene_pixels

_CATALOG = builtin_catalog()
_MODULES = ["templates/6x6", "ddos/ddos_attack", "graph_theory/clique", "training/training"]

steps = st.lists(
    st.one_of(
        st.tuples(st.just("place"), st.integers(0, 12)),
        st.tuples(
            st.sampled_from(
                ["colors", "view", "left", "right", "invalidate", "hide", "move", "pixels"]
            ),
            st.just(0),
        ),
    ),
    max_size=14,
)
sizes = st.sampled_from([(40, 14), (100, 32)])


def _scribble(buf) -> None:
    buf.put(0, 0, "!", (1, 2, 3))
    buf.colors[:] = 7
    buf.painted[:] = ~buf.painted


def _check_frame(level: WarehouseLevel, width: int, height: int) -> None:
    cached = level.render_ascii(width=width, height=height)
    fresh = render_scene_ascii(level.root, level.camera, width=width, height=height)
    assert cached.to_plain() == fresh.to_plain()
    assert cached.to_ansi() == fresh.to_ansi()
    _scribble(cached)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(_MODULES), steps, sizes)
def test_cached_frames_equal_uncached_renders(name, script, size):
    width, height = size
    level = WarehouseLevel(_CATALOG[name])
    level.toggle_view()  # start in 3-D so every step draws the warehouse
    _check_frame(level, width, height)
    for k, (step, arg) in enumerate(script):
        if step == "place":
            level.place_packets(arg)
        elif step == "colors":
            level.toggle_pallet_colors()
        elif step == "view":
            level.toggle_view()
        elif step == "left":
            level.rotate_left()
        elif step == "right":
            level.rotate_right()
        elif step == "invalidate":
            level.invalidate()
        elif step == "hide":
            pallet = level.pallet(k % 6, (2 * k) % 6)
            pallet.visible = not pallet.visible
            level.invalidate()
        elif step == "move":
            pallet = level.pallet((3 * k) % 6, k % 6)
            pallet.position = pallet.position + Vector3(0.5, 0.25, -0.5)
            level.invalidate()
        elif step == "pixels":
            got = level.render_pixels(width=48, height=36)
            want = render_scene_pixels(level.root, level.camera, width=48, height=36)
            assert got.tobytes() == want.tobytes()
        _check_frame(level, width, height)


def test_a_revisited_view_is_a_fresh_copy():
    level = WarehouseLevel(_CATALOG["templates/6x6"])
    level.place_all_packets()
    level.toggle_view()
    first = level.render_ascii(width=60, height=20)
    level.rotate_right()
    level.render_ascii(width=60, height=20)
    level.rotate_left()
    again = level.render_ascii(width=60, height=20)
    assert again is not first
    assert again.to_ansi() == first.to_ansi()
    _scribble(first)
    assert level.render_ascii(width=60, height=20).to_ansi() == again.to_ansi()


def test_the_cached_cloud_is_read_only():
    level = WarehouseLevel(_CATALOG["templates/6x6"])
    level.toggle_view()
    level.render_ascii(width=40, height=14)
    points, rgb = level._render_cache.cloud(level.root)
    assert not points.flags.writeable and not rgb.flags.writeable
    pixels = level.render_pixels(width=32, height=24)
    pixels[:] = 0  # the pixel frame is the caller's own
    assert np.any(level.render_pixels(width=32, height=24))


def test_a_direct_edit_shows_only_after_invalidate():
    """The contract ``invalidate()`` documents: the level cannot see edits
    made behind its back."""
    level = WarehouseLevel(_CATALOG["templates/6x6"])
    level.toggle_view()
    before = level.render_ascii(width=40, height=14).to_ansi()
    level.root.get_node("Floor").visible = False
    assert level.render_ascii(width=40, height=14).to_ansi() == before
    level.invalidate()
    after = level.render_ascii(width=40, height=14).to_ansi()
    assert after != before
    assert after == render_scene_ascii(level.root, level.camera, width=40, height=14).to_ansi()
