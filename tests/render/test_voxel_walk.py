"""The one-pass voxel walk against the per-instance reference, on the scene
shapes the walk treats specially.

``collect_voxels`` carries each mesh's chain of :class:`Node3D` ancestor
positions down its single walk and sums it bottom-up in vectorised steps.
These cases aim at what that could get wrong: plain :class:`Node` links in a
chain, hidden subtrees (which it skips), chains deep enough that the order of
the float additions shows, signed zeros, and walks that start below other
:class:`Node3D` nodes.  Every case must be bit-equal to
``ref_collect_voxels``, whose world positions are chained :class:`Vector3`
additions.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_voxel_cloud import ref_collect_voxels

from repro.engine.math3d import Vector3
from repro.engine.node import MeshInstance3D, Node, Node3D
from repro.render.scene import collect_voxels


def _bit_equal(root: Node) -> None:
    got = collect_voxels(root)
    want = ref_collect_voxels(root)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


def _mesh(position: Vector3, mesh: str = "packet_box", scale: float = 1.0) -> MeshInstance3D:
    node = MeshInstance3D(mesh=mesh)
    node.position = position
    node.scale = scale
    return node


def test_plain_nodes_in_the_chain_add_nothing():
    root = Node3D("Root", position=Vector3(0.1, 0.2, 0.3))
    plain = root.add_child(Node("Plain"))
    mid = plain.add_child(Node3D("Mid", position=Vector3(1 / 3, 0.7, -2 / 7)))
    plainer = mid.add_child(Node("Plainer"))
    plainer.add_child(_mesh(Vector3(0.1, 0.1, 0.1)))
    plain.add_child(_mesh(Vector3(-0.3, 0.6, 1 / 7)))
    root.add_child(Node("Empty")).add_child(Node("Deeper"))
    _bit_equal(root)


def test_a_plain_root_above_the_first_node3d():
    root = Node("Root")
    root.add_child(_mesh(Vector3(-0.0, 0.0, -0.0)))
    holder = root.add_child(Node3D("Holder", position=Vector3(5, 0, 0)))
    holder.add_child(_mesh(Vector3(1, 0, 0), mesh="pallet"))
    _bit_equal(root)


def test_hidden_subtrees_are_skipped_whole():
    root = Node3D("Root", position=Vector3(0.5, 0, 0.5))
    shown = root.add_child(_mesh(Vector3(0.1, 0, 0.2)))
    hidden = root.add_child(Node3D("Hidden", position=Vector3(9, 9, 9)))
    hidden.visible = False
    hidden.add_child(_mesh(Vector3(1, 1, 1)))
    hidden.add_child(Node3D("Inner")).add_child(_mesh(Vector3(2, 2, 2)))
    plain = root.add_child(Node("PlainHidden"))
    plain.visible = False  # type: ignore[attr-defined]
    plain.add_child(_mesh(Vector3(3, 3, 3)))
    hidden_mesh = root.add_child(_mesh(Vector3(4, 4, 4), mesh="pallet"))
    hidden_mesh.visible = False
    hidden_mesh.add_child(_mesh(Vector3(5, 5, 5)))
    after = root.add_child(Node3D("After", position=Vector3(1 / 3, 0, 1 / 3)))
    after.add_child(_mesh(Vector3(0.7, 0.1, 0.9)))
    _bit_equal(root)
    points, _ = collect_voxels(root)
    alone, _ = collect_voxels(shown)
    assert len(points) == len(alone) + len(collect_voxels(after)[0])


def test_everything_hidden_is_empty():
    root = Node3D("Root")
    root.visible = False
    root.add_child(_mesh(Vector3(1, 2, 3)))
    points, rgb = collect_voxels(root)
    assert points.shape == (0, 3) and rgb.shape == (0, 3)
    _bit_equal(root)


def test_a_deep_chain_sums_bottom_up():
    # each step a seventh or a tenth: a top-down prefix sum rounds differently
    root = Node3D("Root", position=Vector3(1e16, -0.1, 1 / 3))
    node: Node = root
    for k in range(40):
        nxt = Node3D(f"L{k}", position=Vector3((k + 1) / 7, -(k + 2) / 10, 0.1 * k))
        node.add_child(nxt)
        if k % 5 == 0:
            node.add_child(_mesh(Vector3(1 / 10, 1 / 7, -1 / 3)))
        node = nxt
    node.add_child(_mesh(Vector3(0.3, 0.6, 0.9), mesh="pallet"))
    _bit_equal(root)


def test_signed_zeros_survive():
    # a negative scale turns the asset's 0.0 offsets into -0.0, so the sign
    # of a zero world position shows in the points
    root = Node3D("Root", position=Vector3(-0.0, -0.0, 0.0))
    mid = root.add_child(Node3D("Mid", position=Vector3(-0.0, 0.0, -0.0)))
    mid.add_child(_mesh(Vector3(-0.0, -0.0, -0.0), scale=-1.0))
    root.add_child(_mesh(Vector3(-0.0, -0.0, -0.0), scale=-1.0))
    root.add_child(_mesh(Vector3(0.0, -0.0, -0.0), scale=-0.5))
    _bit_equal(root)
    _bit_equal(_mesh(Vector3(-0.0, -0.0, -0.0), scale=-1.0))


def test_a_walk_below_other_node3ds_counts_them():
    top = Node3D("Top", position=Vector3(100.1, 0.3, -7 / 3))
    between = top.add_child(Node("Between"))
    sub = between.add_child(Node3D("Sub", position=Vector3(1 / 7, 2 / 7, 3 / 7)))
    sub.add_child(_mesh(Vector3(0.1, 0.2, 0.3)))
    hidden_top = Node3D("HiddenTop", position=Vector3(1, 1, 1))
    hidden_top.visible = False  # hides nothing below the walk's own root
    hidden_top.add_child(top)
    _bit_equal(sub)
    _bit_equal(sub.get_child(0))


def test_a_warehouse_level_matches():
    from repro.game.warehouse import WarehouseLevel
    from repro.modules.library import builtin_catalog

    for module in list(builtin_catalog().values())[:4]:
        level = WarehouseLevel(module)
        level.place_all_packets()
        _bit_equal(level.root)


# thirds, sevenths, tenths, large and tiny magnitudes and signed zeros
coords = st.one_of(
    st.integers(-300, 300).map(lambda k: k / 7),
    st.integers(-300, 300).map(lambda k: k / 10),
    st.sampled_from([0.0, -0.0, 1e16, -1e16, 1e-300]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)
links = st.sampled_from(["node3d", "node3d", "node", "mesh", "hidden"])


@st.composite
def chains(draw):
    """A root, then a chain of up to 30 links with a mesh hung off each."""
    root = Node3D("Root", position=Vector3(draw(coords), draw(coords), draw(coords)))
    node: Node = root
    for kind in draw(st.lists(links, max_size=30)):
        if kind == "node":
            nxt: Node = Node()
        else:
            nxt = Node3D() if kind != "mesh" else MeshInstance3D(mesh="packet_box")
            nxt.position = Vector3(draw(coords), draw(coords), draw(coords))
            nxt.visible = kind != "hidden"
        node.add_child(nxt)
        if draw(st.booleans()):
            position = Vector3(draw(coords), draw(coords), draw(coords))
            node.add_child(_mesh(position, scale=draw(st.sampled_from([1.0, -1.0, 0.5]))))
        node = nxt
    return root


@settings(max_examples=100, deadline=None)
@given(chains())
def test_random_deep_chains_are_bit_equal(root):
    _bit_equal(root)
    assert np.isfinite(collect_voxels(root)[0]).all()
