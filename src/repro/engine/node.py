"""Scene-tree nodes: the engine's smallest building block.

"In Godot a node is the smallest component that can be modified and used to
build a scene."  This module reproduces the node semantics the paper's
implementation section relies on:

* named children with Godot's auto-rename on collision,
* ``get_node`` path resolution (``"../Data"``, ``"X/Label"``, ``"."``),
* the ``_ready`` lifecycle (children ready before parents, once per node),
* per-node signals and groups,
* export variables editable through the Inspector
  (:mod:`repro.engine.inspector`),
* script attachment — a Python object or a GDScript instance supplying
  ``_ready`` / ``_process`` / ``_input`` and extra methods.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import TYPE_CHECKING, AbstractSet, Any, Iterator, Mapping, Optional, Sequence

from repro.engine.math3d import Vector3
from repro.engine.resources import Resource
from repro.engine.signals import Signal
from repro.errors import EngineError, NodePathError, SignalError

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.tree import SceneTree

__all__ = ["Node", "Node3D", "Label3D", "MeshInstance3D", "ExportVar"]

#: Signals every node has.  Each is created on first ``get_signal`` or
#: ``connect``: a signal nobody asked for has no connections, so emitting it
#: does nothing and needs no object.
BUILTIN_SIGNALS = frozenset(("ready", "child_entered_tree", "tree_entered", "tree_exited"))

#: The shared, read-only stand-ins for a node's containers until its first
#: write.  The attributes are typed as read-only views, so a write that does
#: not go through ``Node._own_*`` first fails type checking, and at run time
#: a write to a stand-in raises.
_NO_CHILDREN: tuple["Node", ...] = ()
_NO_GROUPS: frozenset[str] = frozenset()
_NO_ENTRIES: Mapping[Any, Any] = MappingProxyType({})


class ExportVar:
    """One ``@export`` variable: a name, a value, and an optional type hint."""

    __slots__ = ("name", "value", "type_hint")

    def __init__(self, name: str, value: Any = None, type_hint: str | None = None) -> None:
        self.name = name
        self.value = value
        self.type_hint = type_hint

    def __repr__(self) -> str:
        hint = f": {self.type_hint}" if self.type_hint else ""
        return f"ExportVar({self.name}{hint} = {self.value!r})"


class Node:
    """A named tree node with lifecycle, signals, groups, and exports.

    A level holds a node per pallet, box and label, and most of them never
    get children, join a group, declare an export or connect a signal.  So
    a node starts with shared, empty stand-ins for those containers and
    makes its own on its first write (the ``_own_*`` methods).  Every
    attribute is still set in ``__init__``, in one order, so instances keep
    sharing one key table.
    """

    def __init__(self, name: str | None = None) -> None:
        self._name = name or type(self).__name__
        self._parent: Optional["Node"] = None
        self._children: Sequence[Node] = _NO_CHILDREN
        self._tree: Optional["SceneTree"] = None
        self._ready_called = False
        self._groups: AbstractSet[str] = _NO_GROUPS
        self._signals: Mapping[str, Signal] = _NO_ENTRIES
        self._exports: Mapping[str, ExportVar] = _NO_ENTRIES
        #: child name -> how many children carry it (a direct rename can
        #: give two siblings one name)
        self._names: Mapping[str, int] = _NO_ENTRIES
        self._script: Any = None

    def _own_children(self) -> list["Node"]:
        if not isinstance(self._children, list):
            self._children = []
        return self._children

    def _own_groups(self) -> set[str]:
        if not isinstance(self._groups, set):
            self._groups = set()
        return self._groups

    def _own_signals(self) -> dict[str, Signal]:
        if not isinstance(self._signals, dict):
            self._signals = {}
        return self._signals

    def _own_exports(self) -> dict[str, ExportVar]:
        if not isinstance(self._exports, dict):
            self._exports = {}
        return self._exports

    def _own_names(self) -> dict[str, int]:
        if not isinstance(self._names, dict):
            self._names = {}
        return self._names

    @property
    def name(self) -> str:
        return self._name

    @name.setter
    def name(self, value: str) -> None:
        """Rename; the parent's name index follows, so a later ``add_child``
        still sees the collision."""
        if not isinstance(value, str):
            raise EngineError(f"node name must be a string, not {type(value).__name__}")
        parent = self._parent
        if parent is not None:
            parent._index_name(value)
            parent._unindex_name(self._name)
        self._name = value

    # ------------------------------------------------------------------ #
    # tree structure
    # ------------------------------------------------------------------ #

    @property
    def parent(self) -> Optional["Node"]:
        return self._parent

    def get_parent(self) -> Optional["Node"]:
        return self._parent

    def get_children(self) -> list["Node"]:
        """A copy of the ordered child list (mutation-safe iteration)."""
        return list(self._children)

    def get_child(self, index: int) -> "Node":
        try:
            return self._children[index]
        except IndexError:
            raise EngineError(
                f"node {self.name!r} has {len(self._children)} children; "
                f"index {index} out of range"
            ) from None

    def get_child_count(self) -> int:
        return len(self._children)

    def _index_name(self, name: str) -> None:
        names = self._own_names()
        names[name] = names.get(name, 0) + 1

    def _unindex_name(self, name: str) -> None:
        names = self._own_names()
        left = names[name] - 1
        if left:
            names[name] = left
        else:
            del names[name]

    def _unique_child_name(self, wanted: str) -> str:
        """*wanted*, or Godot's rename of it: the first free ``wanted2``,
        ``wanted3``, …  Each probe is one lookup in the name index."""
        names = self._names
        if wanted not in names:
            return wanted
        k = 2
        while f"{wanted}{k}" in names:
            k += 1
        return f"{wanted}{k}"

    def add_child(self, child: "Node") -> "Node":
        """Append a child; duplicate names get Godot's numeric auto-rename.

        If this node is already inside a tree the child's subtree enters the
        tree immediately (``_ready`` fires, children first).
        """
        if child is self:
            raise EngineError(f"node {self.name!r} cannot be its own child")
        if child._parent is not None:
            raise EngineError(
                f"node {child.name!r} already has parent {child._parent.name!r}; "
                "remove it first"
            )
        if child._children:  # only a node with children can be an ancestor
            anc: Optional[Node] = self
            while anc is not None:
                if anc is child:
                    raise EngineError("adding an ancestor as a child would create a cycle")
                anc = anc._parent
        name = child._name = self._unique_child_name(child._name)
        self._index_name(name)
        child._parent = self
        self._own_children().append(child)
        if self._signals:
            self.emit_signal("child_entered_tree", child)
        if self._tree is not None:
            child._propagate_enter_tree(self._tree)
        return child

    def remove_child(self, child: "Node") -> None:
        """Detach a child (its subtree leaves the tree, but is not freed)."""
        if child._parent is not self:
            raise EngineError(f"{child.name!r} is not a child of {self.name!r}")
        self._own_children().remove(child)
        self._unindex_name(child._name)
        child._parent = None
        if child._tree is not None:
            child._propagate_exit_tree()

    def free(self) -> None:
        """Detach from the parent and drop all children (Godot's ``free``)."""
        if self._parent is not None:
            self._parent.remove_child(self)
        for child in self.get_children():
            child.free()

    # ------------------------------------------------------------------ #
    # paths
    # ------------------------------------------------------------------ #

    def get_path(self) -> str:
        """Absolute slash path from the tree root (or from the subtree top)."""
        parts: list[str] = []
        node: Optional[Node] = self
        while node is not None:
            parts.append(node.name)
            node = node._parent
        return "/" + "/".join(reversed(parts))

    def get_node(self, path: str) -> "Node":
        """Resolve a Godot node path: ``"../Data"``, ``"X/Label"``, ``"."``.

        Leading ``/`` resolves from the tree root.  Raises
        :class:`~repro.errors.NodePathError` with the full attempted path on
        failure — the error an engine must make findable.
        """
        if path == "":
            raise NodePathError("empty node path")
        node: Optional[Node] = self
        segments = path.split("/")
        if path.startswith("/"):
            top = self
            while top._parent is not None:
                top = top._parent
            node = top
            segments = [s for s in segments if s]
            # absolute paths include the root's own name as the first segment
            if segments and node.name == segments[0]:
                segments = segments[1:]
        for seg in segments:
            if node is None:
                break
            if seg in ("", "."):
                continue
            if seg == "..":
                node = node._parent
                continue
            node = next((c for c in node._children if c.name == seg), None)
        if node is None:
            raise NodePathError(f"node path {path!r} does not resolve from {self.get_path()}")
        return node

    def has_node(self, path: str) -> bool:
        try:
            self.get_node(path)
            return True
        except NodePathError:
            return False

    def find_child(self, name: str, *, recursive: bool = True) -> Optional["Node"]:
        """First child with the given name (depth-first when recursive)."""
        for child in self._children:
            if child.name == name:
                return child
        if recursive:
            for child in self._children:
                found = child.find_child(name, recursive=True)
                if found is not None:
                    return found
        return None

    def iter_tree(self) -> Iterator["Node"]:
        """Depth-first pre-order walk of this subtree (self first)."""
        yield self
        for child in self._children:
            yield from child.iter_tree()

    def print_tree(self) -> str:
        """ASCII scene-tree dump in the style of the Godot dock (Fig. 2)."""
        lines: list[str] = []

        def walk(node: "Node", prefix: str, is_last: bool, is_root: bool) -> None:
            if is_root:
                lines.append(f"{node.name} ({type(node).__name__})")
                child_prefix = ""
            else:
                joint = "└─ " if is_last else "├─ "
                lines.append(f"{prefix}{joint}{node.name} ({type(node).__name__})")
                child_prefix = prefix + ("   " if is_last else "│  ")
            kids = node._children
            for k, child in enumerate(kids):
                walk(child, child_prefix, k == len(kids) - 1, False)

        walk(self, "", True, True)
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def tree(self) -> Optional["SceneTree"]:
        return self._tree

    def get_tree(self) -> Optional["SceneTree"]:
        return self._tree

    def is_inside_tree(self) -> bool:
        return self._tree is not None

    def _propagate_enter_tree(self, tree: "SceneTree") -> None:
        # A level enters the tree as up to ~2,400 nodes, nearly all without
        # groups, signals or a ready hook, so each hook is tested inline:
        # calling emit_signal and _call_lifecycle per node only to find
        # nothing to do cost ~11% of classroom_play's tail latency (median
        # of 10 pairs on a 2-vCPU VM).
        self._tree = tree
        if self._groups:
            tree._register_node(self)
        if self._signals:
            self.emit_signal("tree_entered")
        for child in self._children:
            child._propagate_enter_tree(tree)
        # Godot readies children before their parent
        if not self._ready_called:
            self._ready_called = True
            if self._script is not None or type(self)._ready is not Node._ready:
                self._call_lifecycle("_ready")
            if self._signals:
                self.emit_signal("ready")

    def _propagate_exit_tree(self) -> None:
        for child in self._children:
            child._propagate_exit_tree()
        if self._tree is not None and self._groups:
            self._tree._unregister_node(self)
        self._tree = None
        if self._signals:
            self.emit_signal("tree_exited")

    def _call_lifecycle(self, hook: str, *args: Any) -> None:
        """Invoke a lifecycle hook on the attached script, then the subclass.

        Scripts get the node via their own binding; Python subclasses simply
        override ``_ready`` / ``_process`` / ``_input``.
        """
        if self._script is not None and hasattr(self._script, hook):
            getattr(self._script, hook)(*args)
        method = getattr(type(self), hook, None)
        if method is not None and method is not getattr(Node, hook, None):
            getattr(self, hook)(*args)

    # overridable lifecycle hooks (no-ops on the base class)
    def _ready(self) -> None:  # noqa: B027 - intentional no-op hook
        pass

    def _process(self, delta: float) -> None:  # noqa: B027
        pass

    def _input(self, event: Any) -> None:  # noqa: B027
        pass

    # ------------------------------------------------------------------ #
    # scripts, exports, signals, groups
    # ------------------------------------------------------------------ #

    def attach_script(self, script: Any) -> None:
        """Attach a script instance (GDScript or plain Python object).

        The script may expose ``_ready``/``_process``/``_input`` plus
        arbitrary methods; :meth:`call` reaches them by name.
        """
        self._script = script

    @property
    def script(self) -> Any:
        return self._script

    def call(self, method: str, *args: Any) -> Any:
        """Call a method on the script (preferred) or on the node itself."""
        if self._script is not None and hasattr(self._script, method):
            return getattr(self._script, method)(*args)
        if hasattr(self, method):
            return getattr(self, method)(*args)
        raise EngineError(f"node {self.name!r} has no method {method!r}")

    def export_var(self, name: str, value: Any = None, type_hint: str | None = None) -> ExportVar:
        """Declare an export variable (idempotent re-declare keeps the value)."""
        if name in self._exports:
            return self._exports[name]
        var = ExportVar(name, value, type_hint)
        self._own_exports()[name] = var
        return var

    @property
    def exports(self) -> dict[str, ExportVar]:
        return dict(self._exports)

    def add_user_signal(self, name: str) -> Signal:
        if name in self._signals or name in BUILTIN_SIGNALS:
            raise SignalError(f"signal {name!r} already exists on node {self.name!r}")
        sig = Signal(name)
        self._own_signals()[name] = sig
        return sig

    def get_signal(self, name: str) -> Signal:
        sig = self._signals.get(name)
        if sig is None:
            if name not in BUILTIN_SIGNALS:
                raise SignalError(f"node {self.name!r} has no signal {name!r}")
            sig = Signal(name)
            self._own_signals()[name] = sig
        return sig

    def connect(self, signal_name: str, callback: Any, *, one_shot: bool = False) -> None:
        self.get_signal(signal_name).connect(callback, one_shot=one_shot)

    def emit_signal(self, name: str, *args: Any) -> None:
        sig = self._signals.get(name)
        if sig is None:
            if name in BUILTIN_SIGNALS:
                return  # never asked for, so nothing is connected
            sig = self.get_signal(name)  # raises: no such signal
        sig.emit(*args)

    def add_to_group(self, group: str) -> None:
        self._own_groups().add(group)
        if self._tree is not None:
            self._tree._register_node(self)

    def remove_from_group(self, group: str) -> None:
        if group in self._groups:
            self._own_groups().discard(group)
            if self._tree is not None:
                self._tree._leave_group(self, group)

    def is_in_group(self, group: str) -> bool:
        return group in self._groups

    @property
    def groups(self) -> frozenset[str]:
        return frozenset(self._groups)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, children={len(self._children)})"


class Node3D(Node):
    """A node with a 3-D transform (position, yaw rotation, uniform scale)."""

    def __init__(self, name: str | None = None, position: Vector3 = Vector3.ZERO) -> None:
        super().__init__(name)
        self.position = position
        self.rotation_y = 0.0
        self.scale = 1.0
        self.visible = True

    @property
    def global_position(self) -> Vector3:
        """Position accumulated through all :class:`Node3D` ancestors.

        Sums bottom-up, in the order chained :class:`Vector3` additions would.
        """
        pos = self.position
        x, y, z = pos.x, pos.y, pos.z
        moved = False
        node = self._parent
        while node is not None:
            if isinstance(node, Node3D):
                p = node.position
                x, y, z = x + p.x, y + p.y, z + p.z
                moved = True
            node = node._parent
        return Vector3(x, y, z) if moved else pos


class Label3D(Node3D):
    """A floating text label (the axis-label signs on the warehouse floor)."""

    def __init__(self, name: str | None = None, text: str = "") -> None:
        super().__init__(name)
        self.text = text


class MeshInstance3D(Node3D):
    """A renderable mesh with an optional material override.

    ``mesh`` names a voxel asset (see :mod:`repro.voxel.assets`);
    ``material_override`` is what the paper's colour-toggle script assigns.
    """

    def __init__(
        self,
        name: str | None = None,
        mesh: str = "",
        material_override: Resource | None = None,
    ) -> None:
        super().__init__(name)
        self.mesh = mesh
        self.material_override = material_override
