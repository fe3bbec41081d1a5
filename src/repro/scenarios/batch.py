"""Batch realisation of scenario specs on the parallel runtime.

:func:`generate_batch` fans a list of :class:`~repro.scenarios.ScenarioSpec`
documents out over :mod:`repro.runtime`'s executors.  Because every spec is
self-seeded (all randomness derives from ``spec.seed``), serial and parallel
realisation are **bit-identical** — the same guarantee the semiring kernels
make, asserted by ``benchmarks/bench_scenario_batch.py`` and the batch tests
rather than assumed.

Since the scenario service landed, this module is the *synchronous façade*:
validation, realisation, caching, and progress all live in
:func:`repro.scenarios.service.run_batch_sync`, the same code path the
asyncio :class:`~repro.scenarios.ScenarioService` drives.  Both fronts
therefore share one contract — identical error messages, identical cache
semantics, identical completion-order progress hooks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

from repro.obs import metrics as _obs
from repro.obs import trace as _trace
from repro.scenarios.spec import ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.traffic_matrix import TrafficMatrix
    from repro.scenarios.cache import ScenarioCache
    from repro.store import ScenarioStore

__all__ = ["realize_spec", "generate_batch"]


def realize_spec(spec: ScenarioSpec) -> "TrafficMatrix":
    """Build one spec (module-level, so it crosses process-pool pickling)."""
    return spec.build()


def generate_batch(
    specs: Iterable[ScenarioSpec],
    *,
    workers: int | None = None,
    backend: str | None = None,
    cache: "ScenarioCache | None" = None,
    store: "ScenarioStore | None" = None,
    on_progress: Callable[[int, int], None] | None = None,
) -> list["TrafficMatrix"]:
    """Realise *specs* in order, optionally in parallel and through a cache.

    ``workers=None`` uses the runtime's current configuration
    (:func:`repro.runtime.configure`), so batch generation inherits the same
    process-wide opt-in as the sparse kernels.  An explicit ``workers``/
    ``backend`` scopes a config to this call only.  Results come back in
    input order, and every spec is validated up front so a bad document
    fails fast instead of mid-fan-out.

    ``cache`` routes the batch through a content-addressed
    :class:`~repro.scenarios.ScenarioCache`: specs already resident are served
    (bit-identically) without building, and fresh builds are stored for next
    time.  Cache hits resolve before the fan-out starts.

    ``store`` routes the batch through a durable
    :class:`~repro.store.ScenarioStore` instead: specs already on disk are
    served (bit-identically) without building, and fresh builds are persisted,
    durably when this returns — the warm-start path for corpora that outlive
    the process.  Pass either
    ``cache`` or ``store``, not both; to combine them, attach the store to
    your cache (``ScenarioCache(..., store=...)``) and pass that.

    ``on_progress(done, total)`` (when given) fires once per finished spec in
    **completion** order — worker order, not spec order — from the calling
    thread.  ``done`` is cumulative and reaches ``total`` exactly once.
    """
    from repro.errors import ScenarioError
    from repro.scenarios.service import run_batch_sync

    if store is not None:
        if cache is not None:
            raise ScenarioError(
                "pass either cache or store, not both — attach the store to "
                "the cache (ScenarioCache(..., store=...)) when combining them"
            )
        from repro.scenarios.cache import ScenarioCache

        # Ephemeral unbounded L1 in front of the store: hits resolve from
        # disk pre-fan-out, fresh builds are flushed durably at the end.
        cache = ScenarioCache(max_entries=None, store=store)

    _obs.counter("scenario.batches").inc()
    seq = list(specs)
    with _trace.get_tracer().span(
        "scenario.generate_batch", specs=len(seq), cached=cache is not None
    ):
        return run_batch_sync(
            seq,
            workers=workers,
            backend=backend,
            cache=cache,
            on_progress=on_progress,
        )
