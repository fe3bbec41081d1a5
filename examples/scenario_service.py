"""The resident scenario service: warming, a 200-spec batch, delta rebuilds.

Walkthrough of :class:`repro.scenarios.ScenarioService`:

1. start the service (bounded queue + fixed worker concurrency),
2. warm the content-addressed cache with the curriculum's common specs,
3. stream a 200-spec batch through it with live progress,
4. re-run the batch — served from cache, bit-identically,
5. extend a scenario incrementally with ``apply_delta`` and compare the
   recomputed-row accounting against a full rebuild,
6. read the hit-rate analytics the service collected along the way.

Run:  python examples/scenario_service.py
"""

from __future__ import annotations

import asyncio
import time

from repro.scenarios import (
    NoiseSpec,
    OverlaySpec,
    ScenarioService,
    ScenarioSpec,
    scenario_names,
)


def curriculum(count: int) -> list[ScenarioSpec]:
    """A deterministic mix over every non-noise generator family."""
    bases = sorted(set(scenario_names()) - {"background_noise"})
    return [
        ScenarioSpec(
            base=bases[k % len(bases)],
            n=24,
            seed=k,
            noise=NoiseSpec(density=0.05) if k % 2 else None,
        )
        for k in range(count)
    ]


def progress_line(done: int, total: int) -> None:
    if done % 50 == 0 or done == total:
        print(f"  progress: {done}/{total}")


async def main() -> None:
    specs = curriculum(200)

    async with ScenarioService(concurrency=4, queue_size=64) as service:
        # 1. warm the cache with the specs every session starts from
        common = specs[:40]
        built = await service.warm(common)
        print(f"warmed {built} common specs into the cache "
              f"({len(common) - built} were already resident)\n")

        # 2. the 200-spec batch; the warmed prefix is served without building
        t0 = time.perf_counter()
        first = await service.generate(specs, on_progress=progress_line)
        cold_ms = (time.perf_counter() - t0) * 1e3
        print(f"cold batch: {len(first)} matrices in {cold_ms:.0f} ms\n")

        # 3. the same batch again — every spec is a cache hit now
        t0 = time.perf_counter()
        second = await service.generate(specs)
        warm_ms = (time.perf_counter() - t0) * 1e3
        identical = all(
            a == b and a.meta == b.meta for a, b in zip(first, second)
        )
        print(f"warm batch: {warm_ms:.0f} ms "
              f"({cold_ms / max(warm_ms, 1e-9):.1f}x) — bit-identical: {identical}\n")

        # 4. extend one scenario incrementally: the cached base is reused and
        #    only the new overlay layer is generated, then summed onto it
        base = ScenarioSpec(
            "ring",
            n=200,
            seed=7,
            overlays=(OverlaySpec("ddos_attack"), OverlaySpec("staging")),
        )
        await service.generate([base])  # build + cache the base scenario
        result = await service.apply_delta(base, {"name": "infiltration"})
        stats = result.stats
        full = result.spec.build()
        print("delta rebuild: ring(200) + ddos + staging, then + infiltration")
        print(f"  rows touched    : {stats.rows_recomputed}/{stats.rows}")
        print(f"  base cache hit  : {stats.base_cache_hit}")
        print(f"  == full rebuild : {result.matrix == full and result.matrix.meta == full.meta}\n")

        # 5. the analytics the service kept while all of that ran
        report = service.stats()
        cache = report["cache"]
        print("service stats:")
        print(f"  specs completed : {report['specs_completed']}")
        print(f"  delta rebuilds  : {report['delta_rebuilds']}")
        print(f"  cache hit rate  : {cache['hit_rate']:.3f} "
              f"({cache['hits']} hits / {cache['hits'] + cache['misses']} requests)")
        print("  hit rate by family:")
        for family, rate in sorted(cache["family_hit_rates"].items()):
            print(f"    {family:<9} {rate:.3f}")


if __name__ == "__main__":
    asyncio.run(main())
