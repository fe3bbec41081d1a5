"""Scene rendering: project a warehouse scene tree into text or pixels.

Walks the engine scene, instantiates each :class:`MeshInstance3D`'s voxel
asset (applying material overrides by recolouring, exactly what the game's
material swap does visually), transforms voxels to world space, and
rasterises through the camera.  Produces ASCII frames for the terminal and
RGB pixel frames for PPM screenshots.  A :class:`SceneCache` keeps that
work for one revision of a scene, so only a view not drawn before costs a
projection and a depth sort.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.engine.node import MeshInstance3D, Node, Node3D
from repro.engine.resources import StandardMaterial3D
from repro.render.camera import OrthoCamera
from repro.render.raster import CharBuffer, rasterize_points
from repro.voxel.assets import asset

__all__ = [
    "SceneCache",
    "collect_voxels",
    "render_scene_ascii",
    "render_scene_pixels",
    "MATERIAL_COLOR_INDEX",
]

#: Material albedo name → palette index used when overriding an asset's colour.
MATERIAL_COLOR_INDEX = {
    "wood": 1,
    "grey": 2,
    "blue": 3,
    "red": 4,
    "black": 5,
    "yellow": 9,   # extended palette -> hazard-yellow voxels
    "green": 10,   # extended palette -> green voxels
}

#: Voxel scale: one asset voxel is 1/8 world unit (pallets are 1 unit wide).
VOXEL_SCALE = 1.0 / 8.0

#: Frames a :class:`SceneCache` keeps per revision: every yaw step of both
#: view modes at two frame sizes; the oldest goes first beyond that.
FRAME_MEMO = 32


@lru_cache(maxsize=64)
def _voxel_cloud(mesh: str, color: int | None) -> tuple[np.ndarray, np.ndarray] | None:
    """One asset's voxels in model space, computed once per ``(mesh, colour)``.

    Returns read-only ``(offsets (k, 3) float64, rgb (k, 3) uint8)``: the
    footprint is centred on the origin and scaled to world units, so an
    instance only multiplies by its scale and adds its world position.
    ``None`` for an empty model; an unknown mesh raises ``KeyError``.
    """
    model = asset(mesh, color=color)
    if model.is_empty():
        return None
    xs, ys, zs, colors = model.filled()
    sx, _, sz = model.size
    # centre the asset footprint on the node position
    offsets = np.stack(
        [(xs - sx / 2.0) * VOXEL_SCALE, ys * VOXEL_SCALE, (zs - sz / 2.0) * VOXEL_SCALE],
        axis=1,
    )
    pal = np.zeros((len(model.palette) + 1, 3), dtype=np.uint8)
    pal[1:] = np.asarray(model.palette, dtype=np.uint8)
    rgb = pal[colors]
    offsets.flags.writeable = False
    rgb.flags.writeable = False
    return offsets, rgb


def _cloud_for(instance: MeshInstance3D) -> tuple[np.ndarray, np.ndarray] | None:
    if not instance.mesh:
        return None
    override = instance.material_override
    color = None
    if isinstance(override, StandardMaterial3D):
        color = MATERIAL_COLOR_INDEX.get(override.albedo)
    try:
        return _voxel_cloud(instance.mesh, color)
    except KeyError:
        return None


def collect_voxels(root: Node) -> tuple[np.ndarray, np.ndarray]:
    """Gather every visible mesh's voxels in world space.

    Returns ``(points (n, 3) float64, rgb (n, 3) uint8)`` in tree walk order.
    A node hidden via ``visible = False`` hides its whole subtree, matching
    Godot.  Each instance contributes its asset's cached cloud; one pass at
    the end scales and translates all of them together.

    The walk visits each node once.  It records every :class:`Node3D`'s
    position in a table with the row of its nearest :class:`Node3D`
    ancestor, then sums each mesh's world position bottom-up, one ancestor
    level per vectorised step: the order and the bits of
    ``Node3D.global_position``.  Row 0 is ``-0.0`` and its own ancestor, so
    a chain that has ended adds ``-0.0``, which changes no float.
    """
    offsets: list[np.ndarray] = []
    rgbs: list[np.ndarray] = []
    scales: list[float] = []
    rows: list[int] = []  # each collected mesh's own row
    xyz: list[tuple[float, float, float]] = [(-0.0, -0.0, -0.0)]
    up: list[int] = [0]  # each row's nearest Node3D ancestor row

    def walk(node: Node, above: int) -> None:
        if getattr(node, "visible", True) is False:
            return
        if isinstance(node, Node3D):
            p = node.position
            xyz.append((p.x, p.y, p.z))
            up.append(above)
            above = len(up) - 1
            if isinstance(node, MeshInstance3D):
                cloud = _cloud_for(node)
                if cloud is not None:
                    offsets.append(cloud[0])
                    rgbs.append(cloud[1])
                    scales.append(node.scale)
                    rows.append(above)
        for child in node._children:
            walk(child, above)

    # positions above *root* count too, as in ``global_position``
    chain: list[Node3D] = []
    node = root._parent
    while node is not None:
        if isinstance(node, Node3D):
            chain.append(node)
        node = node._parent
    for node3d in reversed(chain):
        p = node3d.position
        xyz.append((p.x, p.y, p.z))
        up.append(len(up) - 1)
    walk(root, len(up) - 1)
    if not offsets:
        return np.empty((0, 3)), np.empty((0, 3), dtype=np.uint8)
    table = np.array(xyz, dtype=np.float64)
    parent = np.array(up, dtype=np.intp)
    row = np.array(rows, dtype=np.intp)
    bases = table[row]
    row = parent[row]
    while row.any():
        bases += table[row]
        row = parent[row]
    counts = [len(o) for o in offsets]
    points = np.concatenate(offsets, axis=0)  # a fresh array: scaled and moved in place
    points *= np.repeat(np.array(scales, dtype=np.float64), counts)[:, None]
    points += np.repeat(bases, counts, axis=0)
    return points, np.concatenate(rgbs, axis=0)


class SceneCache:
    """What a frame of one scene revision derives from the scene tree.

    Holds the world-space cloud (:func:`collect_voxels`, read-only) and the
    rasterised frames drawn from it, keyed by camera mode, yaw, zoom and
    frame size, so a revisited view costs no projection or depth sort.  The
    owner of the scene calls :meth:`invalidate` after every change to the
    tree; a frame drawn through a stale cache shows the old scene.
    """

    def __init__(self) -> None:
        self._cloud: tuple[np.ndarray, np.ndarray] | None = None
        self._frames: dict[tuple, CharBuffer] = {}

    def invalidate(self) -> None:
        """Start a new revision: drop the cloud and every memoised frame."""
        self._cloud = None
        self._frames.clear()

    def cloud(self, root: Node) -> tuple[np.ndarray, np.ndarray]:
        """``collect_voxels(root)`` for this revision, computed once."""
        if self._cloud is None:
            points, rgb = collect_voxels(root)
            points.flags.writeable = False
            rgb.flags.writeable = False
            self._cloud = (points, rgb)
        return self._cloud


def _rasterize_cloud(
    cloud: tuple[np.ndarray, np.ndarray],
    camera: OrthoCamera,
    width: int,
    height: int,
    supersample: int,
) -> CharBuffer:
    points, rgb = cloud
    if points.shape[0] == 0:
        return CharBuffer(width, height)
    u, v, depth = camera.project(points)
    return rasterize_points(
        u, v, depth, rgb, width=width, height=height, supersample=supersample
    )


def render_scene_ascii(
    root: Node,
    camera: OrthoCamera,
    *,
    width: int = 100,
    height: int = 40,
    supersample: int = 2,
    cache: SceneCache | None = None,
) -> CharBuffer:
    """Rasterise the scene into a character buffer through *camera*.

    With a *cache* the cloud is the cache's and a view drawn before in this
    revision comes from its memo; the caller gets its own copy either way.
    """
    if cache is None:
        return _rasterize_cloud(collect_voxels(root), camera, width, height, supersample)
    key = (camera.mode, camera.yaw_steps, camera.zoom, width, height, supersample)
    frame = cache._frames.get(key)
    if frame is None:
        frame = _rasterize_cloud(cache.cloud(root), camera, width, height, supersample)
        if len(cache._frames) >= FRAME_MEMO:
            del cache._frames[next(iter(cache._frames))]
        cache._frames[key] = frame
    return frame.copy()


def render_scene_pixels(
    root: Node,
    camera: OrthoCamera,
    *,
    width: int = 400,
    height: int = 300,
    background: tuple[int, int, int] = (18, 18, 22),
    cache: SceneCache | None = None,
) -> np.ndarray:
    """Rasterise the scene into an ``(h, w, 3)`` pixel frame (for PPM output).

    Same projection as the ASCII path, but at pixel resolution with square
    pixels (no cell-aspect doubling).  With a *cache* the cloud is the
    cache's.
    """
    points, rgb = collect_voxels(root) if cache is None else cache.cloud(root)
    frame = np.zeros((height, width, 3), dtype=np.uint8)
    frame[:, :] = background
    if points.shape[0] == 0:
        return frame
    u, v, depth = camera.project(points)
    su = u - u.min()
    sv = v - v.min()
    span_u = max(float(su.max()), 1e-9)
    span_v = max(float(sv.max()), 1e-9)
    fit = min((width - 1) / span_u, (height - 1) / span_v)
    xi = np.clip(np.round(su * fit + (width - 1 - span_u * fit) / 2).astype(np.int64), 0, width - 1)
    yi = np.clip(np.round(sv * fit + (height - 1 - span_v * fit) / 2).astype(np.int64), 0, height - 1)
    order = np.argsort(depth, kind="stable")
    frame[yi[order], xi[order]] = rgb[order]
    return frame
