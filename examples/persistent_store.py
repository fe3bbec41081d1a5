"""The durable scenario store: build once, restart, serve from disk.

Walkthrough of :mod:`repro.store`:

1. build a mixed corpus and persist it to a ScenarioStore (durable once
   ``generate_batch`` returns),
2. simulate a process restart (fresh store instance, cold in-memory cache)
   and serve the same corpus bit-identically from disk,
3. inspect the store: entries, tier analytics, integrity verification,
4. persist a fuzz campaign's findings durably and replay one,
5. administer the store from the command line (`python -m repro.store`).

Run:  python examples/persistent_store.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.scenarios import (
    NoiseSpec,
    ScenarioCache,
    ScenarioSpec,
    generate_batch,
)
from repro.store import ScenarioStore


def corpus() -> list[ScenarioSpec]:
    return [
        ScenarioSpec(
            base=base,
            n=48,
            seed=seed,
            noise=NoiseSpec(density=0.05) if seed % 2 else None,
        )
        for seed, base in enumerate(
            ("ring", "star", "ddos_attack", "security", "mesh", "clique") * 4
        )
    ]


def build_and_persist(root: Path) -> float:
    """Process 1: generate the corpus with the store as its durable L2."""
    specs = corpus()
    t0 = time.perf_counter()
    with ScenarioStore(root) as store:
        generate_batch(specs, store=store)
        stats = store.stats()
    elapsed = time.perf_counter() - t0
    print(f"built + persisted {stats['entries']} scenarios "
          f"({stats['payload_bytes'] / 1024:.0f} KiB) in {elapsed * 1e3:.0f} ms")
    return elapsed


def warm_start(root: Path, t_build: float) -> None:
    """Process 2 (simulated): cold L1, everything served off disk."""
    specs = corpus()
    reference = generate_batch(specs)  # what a rebuild would produce
    t0 = time.perf_counter()
    with ScenarioStore(root) as store:
        cache = ScenarioCache(store=store)
        served = [cache.fetch(spec)[0] for spec in specs]
    elapsed = time.perf_counter() - t0

    assert all(got == ref for got, ref in zip(served, reference))
    analytics = cache.analytics()
    print(f"warm start served {len(served)} scenarios bit-identically in "
          f"{elapsed * 1e3:.0f} ms ({t_build / elapsed:.1f}x faster than rebuild)")
    print(f"tiers: l1_hits={analytics.l1_hits} l2_hits={analytics.l2_hits} "
          f"misses={analytics.misses}")


def inspect(root: Path) -> None:
    with ScenarioStore(root) as store:
        print(f"\n{store!r}")
        for row in store.entries()[:3]:
            print(f"  {row.key[:16]}  {row.base:<12} n={row.n} "
                  f"seed={row.seed} bytes={row.payload_bytes}")
        print(f"  ... {store.index.count()} entries total")
        problems = store.verify()
        print(f"verify: {sum(len(v) for v in problems.values())} problem(s)")
        report = store.gc(dry_run=True)
        print(f"gc --dry-run: {len(report['orphan_blobs'])} orphan(s), "
              f"{len(report['staging_files'])} staging file(s)")


def durable_repro(root: Path) -> None:
    """Persist a finding under kind="repro" and replay it from the store."""
    from repro.verify import replay_from_store

    suspect = ScenarioSpec(base="clique", n=10, seed=3)
    with ScenarioStore(root) as store:
        store.put(
            suspect,
            suspect.build(),
            kind="repro",
            extra={"oracle": "kernel_equality", "detail": "demo finding"},
        )
        # any later process replays it straight from the content address —
        # the recorded oracle name selects the battery
        verdicts = replay_from_store(store, suspect.cache_key())
        outcome = "passed" if all(v.passed or v.skipped for v in verdicts) else "FAILED"
        print(f"\nreplayed stored repro {suspect.cache_key()[:12]}…: {outcome}")


def cli_tour(root: Path) -> None:
    print("\nadminister from the shell:")
    for cmd in ("ls", "stats", "gc --dry-run", "verify --rebuild"):
        print(f"  python -m repro.store --root {root} {cmd}")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro_store_demo_") as tmp:
        root = Path(tmp) / "store"
        t_build = build_and_persist(root)
        warm_start(root, t_build)
        inspect(root)
        durable_repro(root)
        cli_tour(root)


if __name__ == "__main__":
    main()
