"""Incremental delta rebuilds: extend a cached scenario without regenerating it.

``apply_delta(base_spec, delta)`` answers "what does this scenario look like
with these overlay layers added?" without rebuilding the base.  The combined
matrix is the cached (or freshly built) *pre-noise* base composition
overlaid with the delta layers — one dense :func:`repro.graphs.compose.overlay`
sum, the same one a full build runs — so only the delta layers are generated.

**Bit-identity.**  Overlay composition is a cell-wise integer sum with a
per-cell colour maximum — both associative — so summing the base's layers
first and the delta's after cannot change a single bit.  The noise stage is
reapplied whole (its seed depends on the *combined* layer count, so the
base's noise, had it any, would be the wrong stream): ``with_noise`` is a
pure function of the pre-noise matrix and the seed, and the pre-noise
matrices agree bit-for-bit, so the noisy results do too.  The contract
``apply_delta(...) == target.build()`` is enforced by hypothesis tests, the
``cache_delta`` oracle in :func:`repro.verify.default_oracles`, and the delta
benchmark — not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from repro.errors import ScenarioError
from repro.scenarios.registry import get_generator
from repro.scenarios.spec import OverlaySpec, ScenarioSpec

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
    #: Rows in which any delta layer stores packets.
    rows_recomputed: int
    delta_nnz: int
    #: Where the base matrix came from: ``"l1"`` (cache memory), ``"l2"``
    #: (durable store), ``"given"`` (caller-supplied), or ``"build"``.
    base_tier: str = "build"

    @property
    def rows_reused(self) -> int:
        """Rows the delta layers leave exactly as the cached base has them."""
        return self.rows - self.rows_recomputed

    @property
    def base_cache_hit(self) -> bool:
        """Whether the base composition came from the cache (either tier)."""
        return self.base_tier in ("l1", "l2")


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
    verify:
        Also run the full from-scratch build and assert bit-identity
        (packets, colours, labels, provenance).  Meant for tests and
        benchmarks; the differential oracle does this continuously.

    Returns a :class:`DeltaResult`; ``result.stats`` reports how many rows
    the delta layers touch and where the base came from.
    """
    from repro.graphs.compose import overlay

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

    # Materialise only the delta layers, at the layer indices they occupy in
    # the combined spec — per-layer seeds are positional, so a delta layer
    # built standalone must use the same index the full rebuild would.
    n_base_layers = 1 + len(base_spec.overlays)
    delta_mats = [
        target._materialize(
            get_generator(overlay_spec.name), overlay_spec.params, n_base_layers + k
        )
        for k, overlay_spec in enumerate(overlays)
    ]
    matrix = overlay([base_matrix, *delta_mats])

    touched = np.zeros(matrix.n, dtype=bool)
    for mat in delta_mats:
        touched |= mat.packets.any(axis=1)

    matrix = target._finish(matrix, n_base_layers + len(overlays))

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
        rows=matrix.n,
        rows_recomputed=int(touched.sum()),
        delta_nnz=sum(mat.nnz() for mat in delta_mats),
        base_tier=base_tier,
    )
    return DeltaResult(spec=target, matrix=matrix, stats=stats)
