"""Cached voxel clouds: the one-pass collector against the per-instance one.

``collect_voxels`` builds each asset's model-space cloud once and places
every instance with one vectorised scale-and-translate.  The reference below
is the per-instance collector it replaced: it re-derives each instance's
voxels from the asset grid and sums world positions as chained
:class:`Vector3` additions.  On random scene trees the two must agree to the
byte, and so must every frame rendered from them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.render.scene as scene
from repro.engine.math3d import Vector3
from repro.engine.node import MeshInstance3D, Node, Node3D
from repro.engine.resources import StandardMaterial3D
from repro.render.ansi import RESET, fg_rgb
from repro.render.camera import OrthoCamera, ViewMode
from repro.render.scene import (
    MATERIAL_COLOR_INDEX,
    VOXEL_SCALE,
    collect_voxels,
    render_scene_ascii,
    render_scene_pixels,
)
from repro.voxel.assets import asset

# ---------------------------------------------------------------------- #
# the reference: the per-instance implementation
# ---------------------------------------------------------------------- #


def ref_global_position(node: Node3D) -> Vector3:
    pos = node.position
    parent = node._parent
    while parent is not None:
        if isinstance(parent, Node3D):
            pos = pos + parent.position
        parent = parent._parent
    return pos


def ref_model_for(instance):
    if not instance.mesh:
        return None
    override = instance.material_override
    color = None
    if isinstance(override, StandardMaterial3D):
        color = MATERIAL_COLOR_INDEX.get(override.albedo)
    try:
        return asset(instance.mesh, color=color)
    except KeyError:
        return None


def ref_collect_voxels(root):
    points, rgbs = [], []

    def walk(node, hidden):
        node_hidden = hidden or (getattr(node, "visible", True) is False)
        if isinstance(node, MeshInstance3D) and not node_hidden:
            model = ref_model_for(node)
            if model is not None and not model.is_empty():
                xs, ys, zs, colors = model.filled()
                base = ref_global_position(node)
                sx, _, sz = model.size
                pts = np.stack(
                    [
                        (xs - sx / 2.0) * VOXEL_SCALE * node.scale + base.x,
                        ys * VOXEL_SCALE * node.scale + base.y,
                        (zs - sz / 2.0) * VOXEL_SCALE * node.scale + base.z,
                    ],
                    axis=1,
                )
                pal = np.zeros((len(model.palette) + 1, 3), dtype=np.uint8)
                pal[1:] = np.asarray(model.palette, dtype=np.uint8)
                points.append(pts)
                rgbs.append(pal[colors])
        for child in node.get_children():
            walk(child, node_hidden)

    walk(root, False)
    if not points:
        return np.empty((0, 3)), np.empty((0, 3), dtype=np.uint8)
    return np.concatenate(points, axis=0), np.concatenate(rgbs, axis=0)


def ref_to_ansi(buf) -> str:
    lines = []
    for y in range(buf.height):
        parts = []
        for x in range(buf.width):
            ch = str(buf.glyphs[y, x])
            if buf.painted[y, x]:
                r, g, b = (int(v) for v in buf.colors[y, x])
                parts.append(f"{fg_rgb(r, g, b)}{ch}{RESET}")
            else:
                parts.append(ch)
        lines.append("".join(parts))
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# random scenes
# ---------------------------------------------------------------------- #

# thirds, sevenths and tenths: sums and products that round
coords = st.one_of(
    st.integers(-300, 300).map(lambda k: k / 7),
    st.integers(-300, 300).map(lambda k: k / 10),
    st.floats(-40, 40, allow_nan=False, allow_infinity=False),
)
scales = st.one_of(
    st.just(1),
    st.integers(1, 30).map(lambda k: k / 3),
    st.floats(-3, 3, allow_nan=False, allow_infinity=False),
)
meshes = st.sampled_from(
    ["pallet", "packet_box", "floor_tile", "label_stand", "no_such_mesh", ""]
)
materials = st.one_of(
    st.none(),
    st.sampled_from(sorted(MATERIAL_COLOR_INDEX) + ["mauve"]).map(
        lambda albedo: StandardMaterial3D(f"res://{albedo}.tres", albedo)
    ),
)


@st.composite
def scene_nodes(draw, depth=0):
    kind = draw(st.sampled_from(["mesh", "mesh", "node3d", "node"]))
    if kind == "node":
        node = Node()
    else:
        if kind == "mesh":
            node = MeshInstance3D(mesh=draw(meshes), material_override=draw(materials))
        else:
            node = Node3D()
        node.position = Vector3(draw(coords), draw(coords), draw(coords))
        node.scale = draw(scales)
        node.visible = draw(st.sampled_from([True, True, True, False]))
    if depth < 3:
        for child in draw(st.lists(scene_nodes(depth=depth + 1), max_size=3)):
            node.add_child(child)
    return node


def _rooted(children):
    root = Node3D("Root")
    for child in children:
        root.add_child(child)
    return root


scenes = st.lists(scene_nodes(), min_size=1, max_size=4).map(_rooted)


# ---------------------------------------------------------------------- #
# properties
# ---------------------------------------------------------------------- #


def _same_arrays(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


@settings(max_examples=80, deadline=None)
@given(scenes)
def test_collect_voxels_matches_per_instance_reference(root):
    points, rgb = collect_voxels(root)
    ref_points, ref_rgb = ref_collect_voxels(root)
    _same_arrays(points, ref_points)
    _same_arrays(rgb, ref_rgb)


@settings(max_examples=80, deadline=None)
@given(scenes)
def test_global_position_equals_chained_vector_sum(root):
    for node in root.iter_tree():
        if isinstance(node, Node3D):
            assert node.global_position == ref_global_position(node)


def test_global_position_without_ancestors_is_the_position_itself():
    top = Node()
    node = Node3D("N", position=Vector3(0.1, 0.2, 0.3))
    top.add_child(node)
    assert node.global_position is node.position


@settings(max_examples=15, deadline=None)
@given(scenes)
def test_frames_match_reference_at_every_yaw_step(root):
    cameras = [
        OrthoCamera(mode=mode, yaw_steps=step) for mode in ViewMode for step in range(8)
    ]
    fast = [
        (
            render_scene_pixels(root, cam, width=48, height=36).tobytes(),
            render_scene_ascii(root, cam, width=32, height=12).to_ansi(),
        )
        for cam in cameras
    ]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scene, "collect_voxels", ref_collect_voxels)
        reference = [
            (
                render_scene_pixels(root, cam, width=48, height=36).tobytes(),
                ref_to_ansi(render_scene_ascii(root, cam, width=32, height=12)),
            )
            for cam in cameras
        ]
    assert fast == reference


@pytest.mark.parametrize("mesh", ["pallet", "packet_box", "floor_tile", "label_stand"])
def test_cached_cloud_arrays_are_read_only(mesh):
    offsets, rgb = scene._voxel_cloud(mesh, None)
    assert offsets.dtype == np.float64 and rgb.dtype == np.uint8
    with pytest.raises(ValueError):
        offsets[0, 0] = 1.0
    with pytest.raises(ValueError):
        rgb[0, 0] = 1


def test_collected_arrays_do_not_alias_the_cache():
    root = Node3D("Root")
    root.add_child(MeshInstance3D("Mesh", mesh="pallet"))
    points, rgb = collect_voxels(root)
    points += 1.0
    rgb[:] = 0
    again, again_rgb = collect_voxels(root)
    _same_arrays(again, ref_collect_voxels(root)[0])
    _same_arrays(again_rgb, ref_collect_voxels(root)[1])


def test_unknown_and_blank_meshes_yield_nothing():
    root = Node3D("Root")
    root.add_child(MeshInstance3D("Unknown", mesh="no_such_mesh"))
    root.add_child(MeshInstance3D("Blank", mesh=""))
    points, rgb = collect_voxels(root)
    assert points.shape == (0, 3) and points.dtype == np.float64
    assert rgb.shape == (0, 3) and rgb.dtype == np.uint8
