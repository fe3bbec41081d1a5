"""The node's child-name index, its lazily created state, and the scene
tree's group registry.

Auto-rename is checked against the linear scan it replaced, kept below as the
reference: over random sequences of ``add_child``, ``remove_child``,
``free`` and direct renames, every name ``add_child`` picks must be the name
the scan would have picked, and every parent's index must count exactly its
children's names.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.node import Node, Node3D
from repro.engine.tree import SceneTree
from repro.errors import EngineError, GDScriptRuntimeError, SignalError
from repro.gdscript.interpreter import compile_script

# ---------------------------------------------------------------------- #
# the reference: the O(n) scan of every sibling
# ---------------------------------------------------------------------- #


def ref_unique_child_name(parent: Node, wanted: str) -> str:
    for child in parent.get_children():
        if child.name == wanted:
            break
    else:
        return wanted
    names = {c.name for c in parent.get_children()}
    k = 2
    while f"{wanted}{k}" in names:
        k += 1
    return f"{wanted}{k}"


def _is_ancestor(node: Node, of: Node) -> bool:
    anc = of
    while anc is not None:
        if anc is node:
            return True
        anc = anc.parent
    return False


def _index_matches_children(nodes: list[Node]) -> None:
    for node in nodes:
        assert dict(node._names) == dict(Counter(c.name for c in node.get_children()))


# names that collide with each other's auto-renames ("Box" -> "Box2", ...)
names = st.sampled_from(["Box", "Box2", "Box3", "Box22", "Box2", "Pallet", "Node"])
ops = st.lists(
    st.tuples(
        st.sampled_from(["add_new", "add_new", "add_existing", "remove", "free", "rename"]),
        st.integers(0, 63),
        st.integers(0, 63),
        names,
    ),
    max_size=80,
)


@settings(max_examples=150, deadline=None)
@given(ops)
def test_auto_names_match_the_linear_scan(sequence):
    nodes: list[Node] = [Node("Root")]
    for op, a, b, name in sequence:
        x = nodes[a % len(nodes)]
        y = nodes[b % len(nodes)]
        if op == "add_new":
            expected = ref_unique_child_name(x, name)
            nodes.append(x.add_child(Node(name)))
            assert nodes[-1].name == expected
        elif op == "add_existing":
            if y.parent is not None or _is_ancestor(y, x):
                with pytest.raises(EngineError):
                    x.add_child(y)
                continue
            expected = ref_unique_child_name(x, y.name)
            x.add_child(y)
            assert y.name == expected
        elif op == "remove":
            if y.parent is not None:
                y.parent.remove_child(y)
        elif op == "free":
            y.free()
        else:
            y.name = name
        _index_matches_children(nodes)


def test_a_renamed_child_frees_its_old_name():
    parent = Node("P")
    box = parent.add_child(Node("Box"))
    box.name = "Crate"
    assert parent.add_child(Node("Box")).name == "Box"
    assert parent.add_child(Node("Crate")).name == "Crate2"
    assert dict(parent._names) == {"Box": 1, "Crate": 1, "Crate2": 1}


def test_two_siblings_may_share_a_name_after_a_rename():
    parent = Node("P")
    a = parent.add_child(Node("A"))
    parent.add_child(Node("B")).name = "A"
    assert parent.add_child(Node("A")).name == "A2"
    parent.remove_child(a)
    assert parent.add_child(Node("A")).name == "A3"
    assert parent.get_node("A").name == "A"


def test_a_rejected_rename_leaves_the_index_alone():
    parent = Node("P")
    box = parent.add_child(Node("Box"))
    with pytest.raises(EngineError, match="must be a string"):
        box.name = ["Crate"]
    assert box.name == "Box" and dict(parent._names) == {"Box": 1}
    assert parent.add_child(Node("Box")).name == "Box2"


def test_a_script_rename_to_a_non_string_is_a_script_error():
    parent = Node3D("P")
    box = parent.add_child(Node3D("Box"))
    inst = compile_script('func f():\n\t$"Box".name = [1]\n').instantiate(parent)
    with pytest.raises(GDScriptRuntimeError, match="cannot assign 'name'"):
        inst.call("f")
    assert box.name == "Box" and dict(parent._names) == {"Box": 1}


# ---------------------------------------------------------------------- #
# lazily created state
# ---------------------------------------------------------------------- #


class TestLazyState:
    def test_a_node_in_a_tree_owns_no_containers_it_never_used(self):
        root = Node3D("Root")
        leaf = root.add_child(Node3D("Leaf"))
        SceneTree(root)
        fresh = Node("Fresh")
        for attr in ("_children", "_groups", "_signals", "_exports", "_names"):
            assert getattr(leaf, attr) is getattr(fresh, attr)
            assert not getattr(leaf, attr)

    def test_first_writes_never_reach_another_node(self):
        a, b = Node("A"), Node("B")
        a.add_to_group("g")
        a.export_var("speed", 1.0)
        a.add_user_signal("hit")
        a.connect("ready", lambda: None)
        a.add_child(Node("Kid"))
        assert a.is_in_group("g") and not b.is_in_group("g")
        assert "speed" in a.exports and b.exports == {}
        with pytest.raises(SignalError):
            b.get_signal("hit")
        assert b.get_signal("ready").connection_count() == 0
        assert b.get_child_count() == 0 and not b._names

    def test_a_group_left_and_joined_again_works(self):
        n = Node("N")
        n.remove_from_group("never")  # not a member: nothing to do
        n.add_to_group("g")
        n.remove_from_group("g")
        n.add_to_group("g")
        assert n.groups == frozenset({"g"})


# ---------------------------------------------------------------------- #
# the group registry
# ---------------------------------------------------------------------- #


class TestGroupRegistry:
    N = 2000

    def _tree(self):
        root = Node("Root")
        kids = []
        for k in range(self.N):
            kid = Node(f"N{k}")
            kid.add_to_group("crowd")
            if k % 2:
                kid.add_to_group("odd")
            kids.append(root.add_child(kid))
        return SceneTree(root), root, kids

    def test_members_keep_tree_entry_order(self):
        tree, _root, kids = self._tree()
        assert tree.get_nodes_in_group("crowd") == kids
        assert tree.get_nodes_in_group("odd") == kids[1::2]

    def test_rejoining_puts_a_node_last(self):
        tree, _root, kids = self._tree()
        mid = kids[self.N // 2]
        mid.remove_from_group("crowd")
        assert mid not in tree.get_nodes_in_group("crowd")
        mid.add_to_group("crowd")
        assert tree.get_nodes_in_group("crowd") == [k for k in kids if k is not mid] + [mid]

    def test_joining_another_group_keeps_a_members_place(self):
        tree, _root, kids = self._tree()
        kids[0].add_to_group("odd")
        assert tree.get_nodes_in_group("crowd") == kids
        assert tree.get_nodes_in_group("odd") == kids[1::2] + [kids[0]]

    def test_leaving_one_group_keeps_the_others(self):
        tree, _root, kids = self._tree()
        kids[1].remove_from_group("odd")
        assert tree.get_nodes_in_group("crowd") == kids
        assert tree.get_nodes_in_group("odd") == kids[3::2]

    def test_leaving_the_tree_leaves_every_group(self):
        tree, root, kids = self._tree()
        for kid in kids[: self.N // 2]:
            root.remove_child(kid)
        assert tree.get_nodes_in_group("crowd") == kids[self.N // 2 :]
        assert tree.get_nodes_in_group("odd") == kids[self.N // 2 + 1 :: 2]
        tree.change_scene(Node("Other"))
        assert tree.get_nodes_in_group("crowd") == []
        assert tree.get_nodes_in_group("odd") == []

    def test_call_group_reaches_every_member_in_order(self):
        tree, _root, kids = self._tree()
        got = [name for name in tree.call_group("odd", "get_path")]
        assert got == [k.get_path() for k in kids[1::2]]
