"""The warehouse level: a learning module materialised as a scene.

"Traffic Warehouse presents a stylized shipping warehouse where each entry in
the traffic matrix is represented as a grid of shipping pallets on the
warehouse floor that can be loaded with boxes (packets) to be shipped."

:func:`build_level` constructs the scene tree of Fig. 2 — Data node, floor,
pallet grid, X/Y label rows — wires the exported node references the way the
Inspector does (Fig. 3/4), and attaches the paper's pallet-and-label
controller script, which then runs at ``_ready`` exactly as in the game.
:class:`WarehouseLevel` wraps the scene with game actions: placing packet
boxes, toggling pallet colours, switching and rotating the view.  The level
owns its render cache: the world-space voxel cloud and the frames drawn
from it are computed once per scene revision, and the level's own mutators
start a new revision.  The 2-D frame is drawn from the module's matrix
alone, so the level draws it once per ``ansi`` flag.
"""

from __future__ import annotations

import numpy as np

from repro.engine.inspector import set_export
from repro.engine.math3d import Vector3
from repro.engine.node import Label3D, MeshInstance3D, Node3D
from repro.engine.tree import SceneTree
from repro.errors import GameError
from repro.gdscript.interpreter import GDScriptClass
from repro.modules.module import LearningModule
from repro.render import ascii2d
from repro.render.camera import OrthoCamera, ViewMode
from repro.render.raster import CharBuffer
from repro.render.scene import SceneCache, render_scene_ascii, render_scene_pixels
from repro.game.scripts import PALLET_CONTROLLER_GD

__all__ = ["build_level", "WarehouseLevel", "PALLET_SPACING"]

#: World-units between pallet centres on the floor grid.
PALLET_SPACING = 1.25

#: World height of the pallet deck (3 voxels at 1/8 unit).
_PALLET_TOP = 3.0 / 8.0

#: Packet boxes are half a unit tall/wide (4 voxels).
_BOX_SIZE = 0.5

_controller_class: GDScriptClass | None = None


def _controller() -> GDScriptClass:
    """Compile the paper's controller script once and share it."""
    global _controller_class
    if _controller_class is None:
        _controller_class = GDScriptClass.compile(PALLET_CONTROLLER_GD)
    return _controller_class


def _label_row(name: str, count: int, position_of) -> Node3D:  # noqa: ANN001
    """A row of label holders, each [Stand mesh, Text label] (Fig. 4)."""
    row = Node3D(name)
    for k in range(count):
        holder = Node3D(f"Label{k}")
        holder.position = position_of(k)
        holder.add_child(MeshInstance3D("Stand", mesh="label_stand"))
        holder.add_child(Label3D("Text"))
        row.add_child(holder)
    return row


def build_level(module: LearningModule) -> Node3D:
    """Construct the level scene for a module (not yet inside a tree).

    The returned root has the Fig. 2 shape::

        Level
        ├─ Data                        (carries the module JSON as .data)
        ├─ Floor
        └─ PalletAndLabelController    (paper script attached)
           ├─ X   (label holders along the top edge)
           ├─ Y   (label holders along the left edge)
           └─ Pallets  (n*n pallet nodes, row-major)

    Export variables are wired before the scene enters a tree, so the
    script's ``@onready`` lines see exactly what they would in Godot.
    """
    n = module.matrix.n
    root = Node3D("Level")

    data = Node3D("Data")
    data.data = module.to_json_dict()  # type: ignore[attr-defined]
    root.add_child(data)

    floor = MeshInstance3D("Floor", mesh="floor_tile")
    floor.scale = float(n) * PALLET_SPACING
    floor.position = Vector3((n - 1) * PALLET_SPACING / 2, -0.15, (n - 1) * PALLET_SPACING / 2)
    root.add_child(floor)

    controller = Node3D("PalletAndLabelController")
    root.add_child(controller)

    x_row = _label_row("X", n, lambda k: Vector3(k * PALLET_SPACING, 0.0, -PALLET_SPACING))
    y_row = _label_row("Y", n, lambda k: Vector3(-PALLET_SPACING, 0.0, k * PALLET_SPACING))
    pallets = Node3D("Pallets")
    for i in range(n):          # rows: sources, stepping +z
        for j in range(n):      # cols: destinations, stepping +x
            pallet = Node3D(f"Pallet{i * n + j}")
            pallet.position = Vector3(j * PALLET_SPACING, 0.0, i * PALLET_SPACING)
            pallet.add_child(MeshInstance3D("Mesh", mesh="pallet"))
            pallet.add_child(Node3D("Boxes"))
            pallets.add_child(pallet)
    controller.add_child(x_row)
    controller.add_child(y_row)
    controller.add_child(pallets)

    _controller().instantiate(controller)
    controller.export_var("y_axis", None, "Node3D")
    controller.export_var("x_axis", None, "Node3D")
    controller.export_var("pallets", None, "Node3D")
    set_export(controller, "y_axis", y_row)
    set_export(controller, "x_axis", x_row)
    set_export(controller, "pallets", pallets)
    return root


class WarehouseLevel:
    """A running level: scene + camera + game actions for one module.

    3-D frames come from a per-revision
    :class:`~repro.render.scene.SceneCache`.  :meth:`place_packets` and
    :meth:`toggle_pallet_colors` start a new revision themselves; code that
    edits :attr:`root` directly must call :meth:`invalidate` afterwards.
    The 2-D frame (:meth:`render_2d`) shows the module's matrix, not the
    scene, and a :class:`~repro.core.TrafficMatrix` is an immutable value
    (its grids are read-only), so it is drawn once per ``ansi`` flag and
    never invalidated.
    """

    def __init__(self, module: LearningModule, *, tree: SceneTree | None = None) -> None:
        self.module = module
        self.root = build_level(module)
        self.tree = tree if tree is not None else SceneTree()
        if self.tree.root is None:
            self.tree.set_root(self.root)
        else:
            self.tree.change_scene(self.root)
        self.camera = OrthoCamera(mode=ViewMode.TOP_DOWN_2D)
        self._placed = 0
        self._render_cache = SceneCache()
        self._frames_2d: dict[bool, str] = {}

    def invalidate(self) -> None:
        """Start a new scene revision: the next frame re-reads :attr:`root`.

        The level's own actions call this.  Any other edit of the scene
        tree (adding, removing or moving nodes, swapping a material,
        hiding a node) must call it too, or frames keep showing the scene
        as it was before the edit.
        """
        self._render_cache.invalidate()

    # -- scene queries ------------------------------------------------------ #

    @property
    def controller(self) -> Node3D:
        return self.root.get_node("PalletAndLabelController")  # type: ignore[return-value]

    def pallet(self, i: int, j: int) -> Node3D:
        n = self.module.matrix.n
        if not (0 <= i < n and 0 <= j < n):
            raise GameError(f"pallet ({i}, {j}) outside the {n}x{n} floor")
        return self.controller.get_node(f"Pallets/Pallet{i * n + j}")  # type: ignore[return-value]

    def x_labels(self) -> list[str]:
        row = self.controller.get_node("X")
        return [holder.get_child(1).text for holder in row.get_children()]  # type: ignore[attr-defined]

    def y_labels(self) -> list[str]:
        row = self.controller.get_node("Y")
        return [holder.get_child(1).text for holder in row.get_children()]  # type: ignore[attr-defined]

    @property
    def pallets_are_colored(self) -> bool:
        return bool(self.controller.script.get_var("pallets_are_colored"))

    # -- game actions --------------------------------------------------------- #

    def toggle_pallet_colors(self) -> bool:
        """The colour-toggle button: runs the paper's ``change_pallet_color``."""
        self.controller.script.call("change_pallet_color")
        self.invalidate()
        return self.pallets_are_colored

    def place_all_packets(self) -> int:
        """Load every packet box onto its pallet (Fig. 5c's end state)."""
        return self.place_packets(self.module.matrix.total_packets())

    def place_packets(self, count: int) -> int:
        """Place up to *count* further boxes, row-major cell order, stacking
        2×2 per layer on each pallet.  Returns the total placed so far."""
        matrix = self.module.matrix
        n = matrix.n
        flat = matrix.packets.ravel()
        target = min(self._placed + max(0, count), int(flat.sum()))
        pallets = self.controller.get_node("Pallets")
        placed = 0
        for cell in range(n * n):
            boxes = pallets.get_child(cell).get_node("Boxes")
            for k in range(int(flat[cell])):
                placed += 1
                if placed <= self._placed:
                    continue
                if placed > target:
                    return self._finish_placement(target)
                layer, slot = divmod(k, 4)
                dx = (slot % 2) * _BOX_SIZE - _BOX_SIZE / 2
                dz = (slot // 2) * _BOX_SIZE - _BOX_SIZE / 2
                box = MeshInstance3D(f"Box{k}", mesh="packet_box")
                box.position = Vector3(dx, _PALLET_TOP + layer * _BOX_SIZE, dz)
                boxes.add_child(box)
        return self._finish_placement(target)

    def _finish_placement(self, target: int) -> int:
        self._placed = target
        self.invalidate()
        return self._placed

    @property
    def packets_placed(self) -> int:
        return self._placed

    def all_packets_placed(self) -> bool:
        return self._placed == self.module.matrix.total_packets()

    # -- view controls ----------------------------------------------------------- #

    def toggle_view(self) -> ViewMode:
        """SPACE: 2-D ↔ 3-D."""
        return self.camera.toggle_mode()

    def rotate_left(self) -> int:
        """Q."""
        return self.camera.rotate_left()

    def rotate_right(self) -> int:
        """E."""
        return self.camera.rotate_right()

    def render_2d(self, *, ansi: bool = True) -> str:
        """The module's matrix as the boxed 2-D view, drawn once per *ansi*."""
        frame = self._frames_2d.get(ansi)
        if frame is None:
            frame = self._frames_2d[ansi] = ascii2d.render_matrix_2d(
                self.module.matrix, ansi=ansi
            )
        return frame

    def render_ascii(self, *, width: int = 100, height: int = 36) -> CharBuffer:
        """Current view as a character frame (3-D scene raster)."""
        return render_scene_ascii(
            self.root, self.camera, width=width, height=height, cache=self._render_cache
        )

    def render_pixels(self, *, width: int = 480, height: int = 360) -> np.ndarray:
        """Current view as an RGB frame (for PPM screenshots)."""
        return render_scene_pixels(
            self.root, self.camera, width=width, height=height, cache=self._render_cache
        )
