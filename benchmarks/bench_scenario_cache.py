"""Scenario cache and delta rebuilds: cold vs warm batches, delta vs full.

Two claims of the scenario service, timed and gated:

* **Warm-cache speedup** — a batch served entirely from the content-addressed
  :class:`~repro.scenarios.ScenarioCache` must beat rebuilding it cold by at
  least :data:`WARM_SPEEDUP_FLOOR` (a cache hit is a key lookup plus one grid
  copy; a build runs generators, overlays, and noise).  Skippable on shared
  runners via ``REPRO_SKIP_SPEEDUP_GATE=1`` — bit-identity always gates.
* **Delta vs full rebuild** — :func:`~repro.scenarios.apply_delta` with a
  cached base must reproduce the full from-scratch rebuild of the extended
  spec bit for bit, generating only the delta layer.

Both tables land in ``benchmarks/artifacts/`` with the cache analytics that
produced them, so the hit-rate accounting is part of the inspectable record.
"""

from __future__ import annotations

import os
import time

from conftest import format_table, write_artifact

from repro.scenarios import (
    NoiseSpec,
    OverlaySpec,
    ScenarioCache,
    ScenarioSpec,
    apply_delta,
    extend_spec,
    generate_batch,
    scenario_names,
)

BATCH = 96
N = 60
WARM_SPEEDUP_FLOOR = 2.0
DELTA_BASE_N = 1000


def mixed_specs(count: int, n: int) -> list[ScenarioSpec]:
    bases = sorted(set(scenario_names()) - {"background_noise"})
    return [
        ScenarioSpec(
            base=bases[k % len(bases)],
            n=n,
            seed=k,
            noise=NoiseSpec(density=0.05) if k % 2 else None,
        )
        for k in range(count)
    ]


def best_of(fn, repeats: int = 3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_warm_cache_speedup_and_bit_identity(benchmark, artifacts):
    specs = mixed_specs(BATCH, N)
    reference = generate_batch(specs)

    cache = ScenarioCache(max_entries=None)
    t_cold, cold = best_of(lambda: generate_batch(specs, cache=cache), repeats=1)
    t_warm, warm = best_of(lambda: generate_batch(specs, cache=cache))

    # the unconditional gate: the cache is invisible except in speed
    for k, (ref, a, b) in enumerate(zip(reference, cold, warm)):
        assert ref == a, f"cold cached batch diverged at spec {k}"
        assert ref == b, f"warm cached batch diverged at spec {k}"
        assert ref.meta == a.meta == b.meta

    analytics = cache.analytics()
    assert analytics.misses == BATCH
    assert analytics.hits >= 3 * BATCH  # the timed warm repeats all hit
    assert analytics.evictions == 0

    speedup = t_cold / max(t_warm, 1e-9)
    if os.environ.get("REPRO_SKIP_SPEEDUP_GATE") != "1":
        assert speedup >= WARM_SPEEDUP_FLOOR, (
            f"warm cache {speedup:.2f}x over cold; floor is {WARM_SPEEDUP_FLOOR}x"
        )

    benchmark(generate_batch, specs, cache=cache)

    rows = [[
        f"{N}x{N}",
        str(BATCH),
        f"{t_cold * 1e3:.1f} ms",
        f"{t_warm * 1e3:.1f} ms",
        f"{speedup:.1f}x",
        f"{analytics.hit_rate:.3f}",
    ]]
    family_lines = "\n".join(
        f"  {family:<9} {rate:.3f}"
        for family, rate in sorted(analytics.family_hit_rates().items())
    )
    body = format_table(
        ["size", "specs", "cold batch", "warm batch", "speedup", "hit rate"], rows
    ) + (
        "\n\nWarm batches are served from the content-addressed cache"
        "\nbit-identically (packets, labels, colours, provenance)."
        f"\n\nlifetime hit rate by scenario family "
        f"({analytics.hits} hits / {analytics.requests} requests):\n" + family_lines
    )
    write_artifact(
        artifacts / "scenario_cache.txt",
        "Scenario service: cold vs warm cached batch generation",
        body,
    )


def test_delta_rebuild_vs_full_and_bit_identity(benchmark, artifacts):
    # A layered base is the delta path's habitat: the full rebuild pays for
    # every base layer again, the delta path reuses their cached composition.
    base = ScenarioSpec(
        "ring",
        n=DELTA_BASE_N,
        seed=7,
        overlays=(
            OverlaySpec("ddos_attack"),
            OverlaySpec("botnet_clients"),
            OverlaySpec("staging"),
        ),
    )
    delta = {"name": "infiltration"}
    target = extend_spec(base, delta)

    cache = ScenarioCache()
    apply_delta(base, delta, cache=cache)  # cold call populates the base entry

    t_full, full = best_of(target.build)
    t_delta, result = best_of(lambda: apply_delta(base, delta, cache=cache))

    # the unconditional gate: incremental == monolithic, bit for bit
    assert result.matrix == full, "delta rebuild diverged from full rebuild"
    assert result.matrix.meta == full.meta
    assert result.stats.base_cache_hit
    assert 0 < result.stats.rows_recomputed < result.stats.rows

    benchmark(apply_delta, base, delta, cache=cache)

    rows = [[
        f"{DELTA_BASE_N}x{DELTA_BASE_N}",
        f"{result.stats.rows_recomputed}/{result.stats.rows}",
        f"{t_full * 1e3:.1f} ms",
        f"{t_delta * 1e3:.1f} ms",
        f"{t_full / max(t_delta, 1e-9):.1f}x",
    ]]
    body = format_table(
        ["size", "rows touched", "full rebuild", "delta", "speedup"],
        rows,
    ) + (
        "\n\napply_delta reused the cached pre-noise base composition, built"
        "\nonly the delta layer and summed it onto the base in one dense"
        "\noverlay; 'rows touched' counts the rows the delta stores packets in."
        "\nThe result matches the from-scratch rebuild of the extended spec"
        "\nbit for bit."
    )
    write_artifact(
        artifacts / "scenario_delta.txt",
        "Scenario service: incremental delta rebuild vs full rebuild",
        body,
    )
