"""Unified scenario API: registry, declarative specs, parallel batch generation.

This package turns the generator zoo of :mod:`repro.graphs` into one
extensible subsystem:

* :data:`SCENARIO_REGISTRY` — every generator, registered by name with a
  family, tags, and an introspectable parameter schema;
* :class:`ScenarioSpec` — a JSON-round-trippable recipe (base layer + noise
  + overlays + seed + size) and :class:`ScenarioBuilder`, its fluent front;
* :func:`generate_batch` — spec fan-out over :mod:`repro.runtime`'s
  executors with deterministic per-spec seeding (serial ≡ parallel, bit for
  bit), optional content-addressed caching, and completion-order progress;
* :class:`ScenarioService` — the long-running asyncio front: bounded intake
  queue with backpressure, fixed worker concurrency, a shared
  :class:`ScenarioCache` keyed by :meth:`ScenarioSpec.cache_key`, cache
  warming, per-batch cancellation, and :func:`apply_delta` incremental
  rebuilds that generate only the delta overlays and sum them onto the
  cached base — bit-identical to a full rebuild.

Quickstart::

    from repro.scenarios import ScenarioBuilder, ScenarioSpec, generate_batch

    matrix = (
        ScenarioBuilder()
        .base("star", n=12)
        .with_noise(density=0.05)
        .overlay("ddos_attack")
        .seed(7)
        .build()
    )
    print(matrix.meta["scenario"])          # full provenance, rebuildable

    specs = [ScenarioSpec("ring", seed=k) for k in range(100)]
    matrices = generate_batch(specs, workers=4)

    async with ScenarioService(concurrency=4) as service:   # resident front
        await service.warm(specs[:10])
        results = await service.generate(specs)
        print(service.stats()["cache"]["hit_rate"])
"""

from repro.scenarios.batch import generate_batch, realize_spec
from repro.scenarios.builder import ScenarioBuilder
from repro.scenarios.cache import CacheAnalytics, ScenarioCache, matrix_bytes
from repro.scenarios.delta import (
    DeltaResult,
    DeltaStats,
    apply_delta,
    extend_spec,
)
from repro.scenarios.registry import (
    REGISTRY_ALIASES,
    SCENARIO_FAMILIES,
    SCENARIO_REGISTRY,
    GeneratorInfo,
    ParamInfo,
    ensure_registered,
    get_generator,
    parameter_schema,
    register_scenario,
    scenario_names,
)
from repro.scenarios.spec import (
    SPEC_VERSION,
    NoiseSpec,
    OverlaySpec,
    ScenarioSpec,
)
from repro.scenarios.service import BatchHandle, ScenarioService, run_batch_sync

# Populate the registry eagerly so ``SCENARIO_REGISTRY`` is complete the
# moment this package is imported (iterating the exported dict must never
# observe an empty table).  When the import *started* from ``repro.graphs``
# this call sees the partially-initialised module and returns immediately;
# the in-flight import finishes the registrations itself.
ensure_registered()

__all__ = [
    "SCENARIO_REGISTRY",
    "SCENARIO_FAMILIES",
    "REGISTRY_ALIASES",
    "GeneratorInfo",
    "ParamInfo",
    "register_scenario",
    "get_generator",
    "scenario_names",
    "parameter_schema",
    "ensure_registered",
    "SPEC_VERSION",
    "ScenarioSpec",
    "NoiseSpec",
    "OverlaySpec",
    "ScenarioBuilder",
    "generate_batch",
    "realize_spec",
    "run_batch_sync",
    "ScenarioCache",
    "CacheAnalytics",
    "matrix_bytes",
    "ScenarioService",
    "BatchHandle",
    "apply_delta",
    "extend_spec",
    "DeltaResult",
    "DeltaStats",
]
