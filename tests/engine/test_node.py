"""Node semantics: hierarchy, naming, paths, lifecycle, signals, groups."""

import pytest

from repro.engine.node import Label3D, MeshInstance3D, Node, Node3D
from repro.engine.math3d import Vector3
from repro.engine.tree import SceneTree
from repro.errors import EngineError, NodePathError, SignalError


class TestHierarchy:
    def test_add_and_get_children(self):
        root = Node("Root")
        a = root.add_child(Node("A"))
        b = root.add_child(Node("B"))
        assert root.get_children() == [a, b]
        assert root.get_child(1) is b
        assert root.get_child_count() == 2

    def test_child_index_error(self):
        with pytest.raises(EngineError, match="out of range"):
            Node("Root").get_child(0)

    def test_duplicate_names_auto_renamed(self):
        root = Node("Root")
        root.add_child(Node("Dup"))
        second = root.add_child(Node("Dup"))
        third = root.add_child(Node("Dup"))
        assert second.name == "Dup2" and third.name == "Dup3"

    def test_reparent_requires_remove(self):
        root, other = Node("R"), Node("O")
        child = root.add_child(Node("C"))
        with pytest.raises(EngineError, match="already has parent"):
            other.add_child(child)
        root.remove_child(child)
        other.add_child(child)
        assert child.parent is other

    def test_cycle_rejected(self):
        root = Node("R")
        child = root.add_child(Node("C"))
        with pytest.raises(EngineError, match="cycle"):
            child.add_child(root)

    def test_self_child_rejected(self):
        n = Node("N")
        with pytest.raises(EngineError):
            n.add_child(n)

    def test_remove_non_child(self):
        with pytest.raises(EngineError):
            Node("A").remove_child(Node("B"))

    def test_free_detaches(self):
        root = Node("R")
        child = root.add_child(Node("C"))
        child.free()
        assert root.get_child_count() == 0 and child.parent is None

    def test_find_child_recursive(self):
        root = Node("R")
        mid = root.add_child(Node("Mid"))
        deep = mid.add_child(Node("Deep"))
        assert root.find_child("Deep") is deep
        assert root.find_child("Deep", recursive=False) is None

    def test_iter_tree_preorder(self):
        root = Node("R")
        a = root.add_child(Node("A"))
        a.add_child(Node("A1"))
        root.add_child(Node("B"))
        names = [n.name for n in root.iter_tree()]
        assert names == ["R", "A", "A1", "B"]


class TestPaths:
    def build(self):
        root = Node3D("Level")
        data = root.add_child(Node3D("Data"))
        ctrl = root.add_child(Node3D("Controller"))
        x = ctrl.add_child(Node3D("X"))
        return root, data, ctrl, x

    def test_relative_up(self):
        _root, data, ctrl, _x = self.build()
        assert ctrl.get_node("../Data") is data

    def test_relative_down(self):
        root, _d, _c, x = self.build()
        assert root.get_node("Controller/X") is x

    def test_dot_and_empty_segments(self):
        root, _d, ctrl, _x = self.build()
        assert ctrl.get_node(".") is ctrl
        assert root.get_node("./Controller") is ctrl

    def test_absolute(self):
        _root, data, _c, x = self.build()
        assert x.get_node("/Level/Data") is data

    def test_get_path(self):
        _r, _d, _c, x = self.build()
        assert x.get_path() == "/Level/Controller/X"

    def test_missing_raises_with_context(self):
        root, *_ = self.build()
        with pytest.raises(NodePathError, match="Nope"):
            root.get_node("Nope")

    def test_up_past_root_raises(self):
        root, *_ = self.build()
        with pytest.raises(NodePathError):
            root.get_node("../Too/Far")

    def test_empty_path_raises(self):
        root, *_ = self.build()
        with pytest.raises(NodePathError):
            root.get_node("")

    def test_has_node(self):
        root, *_ = self.build()
        assert root.has_node("Data") and not root.has_node("Ghost")


class TestLifecycle:
    def test_ready_children_first_once(self):
        order: list[str] = []

        class Probe(Node):
            def _ready(self):
                order.append(self.name)

        root = Probe("Root")
        mid = root.add_child(Probe("Mid"))
        mid.add_child(Probe("Leaf"))
        SceneTree(root)
        assert order == ["Leaf", "Mid", "Root"]

    def test_ready_fires_for_late_added_subtree(self):
        order: list[str] = []

        class Probe(Node):
            def _ready(self):
                order.append(self.name)

        root = Probe("Root")
        SceneTree(root)
        root.add_child(Probe("Late"))
        assert order == ["Root", "Late"]

    def test_ready_not_refired_on_reattach(self):
        count = {"n": 0}

        class Probe(Node):
            def _ready(self):
                count["n"] += 1

        root = Node("Root")
        p = root.add_child(Probe("P"))
        SceneTree(root)
        root.remove_child(p)
        root.add_child(p)
        assert count["n"] == 1

    def test_is_inside_tree(self):
        root = Node("R")
        child = root.add_child(Node("C"))
        assert not child.is_inside_tree()
        tree = SceneTree(root)
        assert child.is_inside_tree()
        root.remove_child(child)
        assert not child.is_inside_tree() and root.is_inside_tree()
        assert tree.root is root

    def test_ready_signal_emitted(self):
        hits = []
        root = Node("R")
        root.connect("ready", lambda: hits.append(True))
        SceneTree(root)
        assert hits == [True]


class TestSignals:
    def test_user_signal_connect_emit(self):
        n = Node("N")
        sig = n.add_user_signal("toggled")
        got = []
        n.connect("toggled", lambda v: got.append(v))
        n.emit_signal("toggled", 42)
        assert got == [42]
        assert sig.connection_count() == 1

    def test_duplicate_signal_rejected(self):
        n = Node("N")
        n.add_user_signal("s")
        with pytest.raises(SignalError):
            n.add_user_signal("s")

    def test_unknown_signal(self):
        with pytest.raises(SignalError, match="no signal"):
            Node("N").emit_signal("ghost")

    def test_child_entered_tree_signal(self):
        root = Node("R")
        got = []
        root.connect("child_entered_tree", lambda c: got.append(c.name))
        root.add_child(Node("C"))
        assert got == ["C"]



class TestLazyBuiltinSignals:
    """Built-in signals are created on first use and behave as before."""

    @pytest.mark.parametrize("name", ["ready", "child_entered_tree", "tree_entered", "tree_exited"])
    def test_get_signal_on_a_fresh_node(self, name):
        n = Node("N")
        sig = n.get_signal(name)
        assert sig.name == name and sig.connection_count() == 0
        assert n.get_signal(name) is sig

    @pytest.mark.parametrize("name", ["ready", "child_entered_tree", "tree_entered", "tree_exited"])
    def test_add_user_signal_rejects_builtin_names(self, name):
        with pytest.raises(SignalError, match="already exists"):
            Node("N").add_user_signal(name)

    def test_connect_before_entering_the_tree_fires(self):
        root = Node("R")
        child = root.add_child(Node("C"))
        got = []
        child.connect("tree_entered", lambda: got.append("entered"))
        child.connect("ready", lambda: got.append("ready"))
        child.connect("tree_exited", lambda: got.append("exited"))
        SceneTree(root)
        root.remove_child(child)
        assert got == ["entered", "ready", "exited"]

    def test_emitting_an_unconnected_builtin_is_a_no_op(self):
        n = Node("N")
        n.emit_signal("ready")
        n.emit_signal("tree_exited", 1, 2)
        with pytest.raises(SignalError, match="no signal"):
            n.get_signal("ghost")
        with pytest.raises(SignalError, match="no signal"):
            n.connect("ghost", lambda: None)

    def test_duplicate_names_still_auto_rename(self):
        boxes = Node("Boxes")
        names = [boxes.add_child(Node("Box")).name for _ in range(3)]
        assert names == ["Box", "Box2", "Box3"]
        boxes.remove_child(boxes.get_child(1))
        assert boxes.add_child(Node("Box")).name == "Box2"
        assert boxes.add_child(Node("Other")).name == "Other"

    def test_a_directly_renamed_sibling_still_collides(self):
        boxes = Node("Boxes")
        boxes.add_child(Node("A")).name = "Box"
        assert boxes.add_child(Node("Box")).name == "Box2"

class TestGroupsAndCall:
    def test_groups_via_tree(self):
        root = Node("R")
        a = root.add_child(Node("A"))
        a.add_to_group("pallets")
        tree = SceneTree(root)
        assert tree.get_nodes_in_group("pallets") == [a]
        a.remove_from_group("pallets")
        assert tree.get_nodes_in_group("pallets") == []

    def test_call_script_method(self):
        class Script:
            def greet(self, who):
                return f"hi {who}"

        n = Node("N")
        n.attach_script(Script())
        assert n.call("greet", "you") == "hi you"

    def test_call_missing_method(self):
        with pytest.raises(EngineError, match="no method"):
            Node("N").call("ghost")


class TestNode3DTypes:
    def test_global_position_accumulates(self):
        root = Node3D("R", position=Vector3(1, 0, 0))
        mid = root.add_child(Node3D("M", position=Vector3(0, 2, 0)))
        leaf = mid.add_child(Node3D("L", position=Vector3(0, 0, 3)))
        assert leaf.global_position == Vector3(1, 2, 3)

    def test_plain_node_ancestors_ignored(self):
        root = Node("R")
        holder = root.add_child(Node3D("H", position=Vector3(5, 0, 0)))
        leaf = holder.add_child(Node3D("L", position=Vector3(1, 0, 0)))
        assert leaf.global_position.x == 6

    def test_label3d_text(self):
        lbl = Label3D("L", text="WS1")
        assert lbl.text == "WS1"
        lbl.text = "ADV1"
        assert lbl.text == "ADV1"

    def test_mesh_instance_defaults(self):
        m = MeshInstance3D("M", mesh="pallet")
        assert m.material_override is None and m.visible
