"""The scene tree: root ownership, frame processing, input dispatch, groups.

Godot's ``SceneTree`` drives everything: nodes become "inside the tree" when
their subtree is attached under the root, ``_ready`` fires once per node
(children before parents), then the main loop repeatedly calls ``_process``
top-down and pushes input events.  This headless version reproduces those
semantics with a fixed-timestep :meth:`run`.
"""

from __future__ import annotations

from typing import Any

from repro.engine.input import InputEventKey
from repro.engine.node import Node
from repro.errors import EngineError

__all__ = ["SceneTree"]


class SceneTree:
    """Owns a root node and drives the frame/input lifecycle."""

    def __init__(self, root: Node | None = None) -> None:
        self._root: Node | None = None
        #: group -> its members in tree-entry order (a dict used as an
        #: insertion-ordered set, so joining and leaving cost O(1))
        self._groups: dict[str, dict[Node, None]] = {}
        self.frame = 0
        self.paused = False
        if root is not None:
            self.set_root(root)

    @property
    def root(self) -> Node | None:
        return self._root

    def set_root(self, root: Node) -> None:
        """Attach the scene; the whole subtree enters the tree and readies."""
        if self._root is not None:
            raise EngineError("scene tree already has a root; call change_scene")
        if root.parent is not None:
            raise EngineError("the root node must not have a parent")
        self._root = root
        root._propagate_enter_tree(self)

    def change_scene(self, new_root: Node) -> Node | None:
        """Swap the scene (old root exits the tree and is returned)."""
        old = self._root
        if old is not None:
            old._propagate_exit_tree()
        self._root = None
        self.set_root(new_root)
        return old

    # ------------------------------------------------------------------ #
    # group registry
    # ------------------------------------------------------------------ #

    def _register_node(self, node: Node) -> None:
        """Add *node* to each of its groups; a member keeps its place."""
        for group in node._groups:
            members = self._groups.get(group)
            if members is None:
                members = self._groups[group] = {}
            members[node] = None

    def _unregister_node(self, node: Node) -> None:
        for group in node._groups:
            self._leave_group(node, group)

    def _leave_group(self, node: Node, group: str) -> None:
        members = self._groups.get(group)
        if members is not None:
            members.pop(node, None)

    def get_nodes_in_group(self, group: str) -> list[Node]:
        """Members of a group, in tree-entry order."""
        return list(self._groups.get(group, ()))

    def call_group(self, group: str, method: str, *args: Any) -> list[Any]:
        """Invoke a method on every group member (Godot's ``call_group``)."""
        return [node.call(method, *args) for node in self.get_nodes_in_group(group)]

    # ------------------------------------------------------------------ #
    # frame loop and input
    # ------------------------------------------------------------------ #

    def process(self, delta: float) -> None:
        """One frame: ``_process(delta)`` over the whole tree, pre-order."""
        if self._root is None:
            raise EngineError("cannot process an empty scene tree")
        if not self.paused:
            for node in list(self._root.iter_tree()):
                if node.is_inside_tree():
                    node._call_lifecycle("_process", delta)
        self.frame += 1

    def run(self, frames: int, *, fps: float = 60.0) -> None:
        """Fixed-timestep batch run (headless frames, no wall-clock sleep)."""
        if fps <= 0:
            raise EngineError(f"fps must be positive, got {fps}")
        delta = 1.0 / fps
        for _ in range(frames):
            self.process(delta)

    def push_input(self, event: InputEventKey) -> None:
        """Dispatch an input event to every node's ``_input`` hook, pre-order."""
        if self._root is None:
            raise EngineError("cannot push input into an empty scene tree")
        for node in list(self._root.iter_tree()):
            if node.is_inside_tree():
                node._call_lifecycle("_input", event)
