"""Incremental delta rebuilds: extend a cached scenario without regenerating it.

``apply_delta(base_spec, delta)`` answers "what does this scenario look like
with these overlay layers added?" without rebuilding the base.  The combined
matrix is assembled from the cached (or freshly built) *pre-noise* base
composition plus the delta layers, touching only the row blocks where the
delta's packets actually land, cut by the same row partition the blocked
engine (:mod:`repro.assoc.blocked`) uses: per touched block, the base rows
and delta rows merge through the expression layer's fused n-ary union
(``blk(accum=PLUS) << union_all(parts)``), while untouched blocks carry
their base packets over verbatim.  Colours merge
globally — the overlay colour rule is a cell-wise maximum over dense ``int8``
grids, far cheaper than the sparse packet union it would otherwise gate.

**Bit-identity.**  Overlay composition is a cell-wise integer sum with a
per-cell colour maximum — both associative — so regrouping the sum by row
block cannot change a single bit.  The noise stage is reapplied whole (its
seed depends on the *combined* layer count, so the base's noise, had it any,
would be the wrong stream): ``with_noise`` is a pure function of the pre-noise
matrix and the seed, and the pre-noise matrices agree bit-for-bit, so the
noisy results do too.  The contract ``apply_delta(...) == target.build()`` is
enforced by hypothesis tests, the ``cache_delta`` oracle in
:func:`repro.verify.default_oracles`, and the delta benchmark — not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from repro.errors import ScenarioError
from repro.scenarios.registry import get_generator
from repro.scenarios.spec import OverlaySpec, ScenarioSpec, _layer_seed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.traffic_matrix import TrafficMatrix
    from repro.scenarios.cache import ScenarioCache

__all__ = ["DeltaStats", "DeltaResult", "extend_spec", "apply_delta"]

#: Accepted delta forms: one overlay, or an iterable of overlays, where each
#: overlay is an :class:`OverlaySpec` or its JSON-able dict form.
DeltaLike = "OverlaySpec | Mapping | Iterable[OverlaySpec | Mapping]"


@dataclass(frozen=True)
class DeltaStats:
    """How much work the incremental path actually did (and skipped)."""

    rows: int
    rows_recomputed: int
    blocks_total: int
    blocks_recomputed: int
    delta_nnz: int
    base_cache_hit: bool
    #: Where the base matrix came from: ``"l1"`` (cache memory), ``"l2"``
    #: (durable store), ``"given"`` (caller-supplied), or ``"build"``.
    base_tier: str = "build"

    @property
    def rows_reused(self) -> int:
        """Rows carried over from the cached base without recomputation."""
        return self.rows - self.rows_recomputed


@dataclass(frozen=True)
class DeltaResult:
    """An incremental rebuild: the combined spec, its matrix, and the work stats."""

    spec: ScenarioSpec
    matrix: "TrafficMatrix"
    stats: DeltaStats


def _as_overlays(delta: object) -> tuple[OverlaySpec, ...]:
    if isinstance(delta, (OverlaySpec, Mapping)):
        delta = [delta]
    if not isinstance(delta, Iterable):
        raise ScenarioError(
            f"delta must be an OverlaySpec, a dict, or an iterable of them, "
            f"got {type(delta).__name__}"
        )
    out: list[OverlaySpec] = []
    for item in delta:
        if isinstance(item, OverlaySpec):
            out.append(item)
        elif isinstance(item, Mapping):
            out.append(OverlaySpec.from_dict(item))
        else:
            raise ScenarioError(
                f"delta items must be OverlaySpec or dict, got {type(item).__name__}"
            )
    if not out:
        raise ScenarioError("delta needs at least one overlay layer")
    return tuple(out)


def extend_spec(base_spec: ScenarioSpec, delta: object) -> ScenarioSpec:
    """The combined spec: *base_spec* with the delta overlays appended.

    This is the document ``apply_delta`` must match bit-for-bit — build it
    from scratch and you get the same matrix, byte for byte.
    """
    if not isinstance(base_spec, ScenarioSpec):
        raise ScenarioError(
            f"apply_delta expects a ScenarioSpec base, got {type(base_spec).__name__}"
        )
    overlays = _as_overlays(delta)
    target = replace(base_spec, overlays=base_spec.overlays + overlays)
    target.validate()
    return target


def apply_delta(
    base_spec: ScenarioSpec,
    delta: object,
    *,
    cache: "ScenarioCache | None" = None,
    base_matrix: "TrafficMatrix | None" = None,
    block_rows: int | None = None,
    verify: bool = False,
) -> DeltaResult:
    """Rebuild ``base_spec + delta`` incrementally from the base composition.

    Parameters
    ----------
    base_spec:
        The already-built scenario being extended.
    delta:
        Overlay layer(s) to add — :class:`OverlaySpec` instances or their
        dict form, singly or in an iterable.  They are appended after the
        base's own overlays, exactly as ``extend_spec`` describes.
    cache:
        A :class:`~repro.scenarios.ScenarioCache`.  The *pre-noise* base
        composition (``base_spec`` with its noise stage stripped — that is
        the reusable part; noise must be re-rolled for the combined layer
        count) is fetched from / stored into it, and the combined result is
        stored too, so a later request for the extended spec is a pure hit.
    base_matrix:
        Short-circuit for callers that already hold the pre-noise base
        composition (``replace(base_spec, noise=None).build()``).  Passing
        the *noisy* build here would violate bit-identity — use ``verify=True``
        when unsure.
    block_rows:
        Row-block granularity for the touched/untouched split (default: the
        runtime heuristic, same as the blocked kernels).
    verify:
        Also run the full from-scratch build and assert bit-identity
        (packets, colours, labels, provenance).  Meant for tests and
        benchmarks; the differential oracle does this continuously.

    Returns a :class:`DeltaResult`; ``result.stats`` reports how many row
    blocks were recomputed versus carried over.
    """
    from repro.core.traffic_matrix import TrafficMatrix, _non_negative

    overlays = _as_overlays(delta)
    target = extend_spec(base_spec, overlays)
    prenoise_spec = replace(base_spec, noise=None)

    base_tier = "given"
    if base_matrix is None:
        if cache is not None:
            base_matrix, base_tier = cache.fetch_tiered(prenoise_spec)
        else:
            base_matrix = prenoise_spec.build()
            base_tier = "build"
    base_hit = base_tier in ("l1", "l2")

    # Materialise only the delta layers, at the layer indices they occupy in
    # the combined spec — per-layer seeds are positional, so a delta layer
    # built standalone must use the same index the full rebuild would.
    n_base_layers = 1 + len(base_spec.overlays)
    delta_mats: list[TrafficMatrix] = []
    for k, overlay_spec in enumerate(overlays):
        info = get_generator(overlay_spec.name)
        delta_mats.append(
            target._materialize(info, overlay_spec.params, n_base_layers + k)
        )
    for mat in delta_mats:
        base_matrix._check_compatible(mat)

    n = base_matrix.n
    delta_csrs = [mat.to_csr() for mat in delta_mats]
    delta_nnz = int(sum(csr.nnz for csr in delta_csrs))

    from repro.assoc.blocked import _row_partition, _slice_rows
    from repro.assoc.expr import Mat, union_all
    from repro.assoc.semiring import PLUS
    from repro.runtime.config import get_config

    cfg = get_config()
    requested = block_rows if block_rows is not None else cfg.block_rows
    starts = _row_partition(n, base_matrix.nnz() + delta_nnz, cfg.workers, requested)

    # A row is touched when any delta layer stores *packets* in it.  Colours
    # do not gate the split: the overlay colour rule is a cell-wise maximum
    # over full dense int8 grids (``TrafficMatrix.overlay_style``), which is
    # trivially cheap — it merges globally below, while the expensive sparse
    # packet union runs only on touched blocks.
    touched = np.zeros(n, dtype=bool)
    for csr in delta_csrs:
        touched |= np.diff(csr.indptr) > 0

    packets = np.array(base_matrix.packets, dtype=np.int64)
    colors = np.maximum.reduce(
        [np.asarray(base_matrix.colors)]
        + [np.asarray(mat.colors) for mat in delta_mats]
    )
    base_csr = base_matrix.to_csr()

    blocks_total = max(starts.size - 1, 0)
    blocks_recomputed = 0
    rows_recomputed = 0
    for b in range(blocks_total):
        r0, r1 = int(starts[b]), int(starts[b + 1])
        if r0 == r1 or not touched[r0:r1].any():
            continue  # untouched block: base rows carry over verbatim
        blocks_recomputed += 1
        rows_recomputed += r1 - r0
        block_mat = Mat.from_csr(_slice_rows(base_csr, r0, r1))
        block_mat(accum=PLUS) << union_all(
            [_slice_rows(csr, r0, r1) for csr in delta_csrs]
        )
        packets[r0:r1] = block_mat.to_dense(0)

    extended = base_matrix.extended_colors or any(
        mat.extended_colors for mat in delta_mats
    )
    matrix = TrafficMatrix(
        _non_negative(packets),
        base_matrix.labels,
        colors,
        extended_colors=extended,
        _trusted=True,
    )
    if target.noise is not None:
        from repro.graphs.noise import with_noise

        matrix = with_noise(
            matrix,
            density=target.noise.density,
            max_packets=target.noise.max_packets,
            seed=_layer_seed(target.seed, n_base_layers + len(overlays)),
            preserve_pattern=target.noise.preserve_pattern,
        )
    matrix = matrix.with_meta(scenario=target.to_dict())

    if cache is not None:
        cache.put(target, matrix)

    if verify:
        full = target.build()
        if matrix != full or matrix.meta != full.meta:
            raise ScenarioError(
                f"delta rebuild diverged from the full rebuild of "
                f"{target.base!r} (+{len(overlays)} overlay(s)) — "
                f"bit-identity violated"
            )

    stats = DeltaStats(
        rows=n,
        rows_recomputed=rows_recomputed,
        blocks_total=blocks_total,
        blocks_recomputed=blocks_recomputed,
        delta_nnz=delta_nnz,
        base_cache_hit=base_hit,
        base_tier=base_tier,
    )
    return DeltaResult(spec=target, matrix=matrix, stats=stats)
