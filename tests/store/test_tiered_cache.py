"""Tiered cache: ScenarioCache with a ScenarioStore as its durable L2."""

import asyncio

import pytest

from repro.scenarios import (
    OverlaySpec,
    ScenarioCache,
    ScenarioSpec,
    generate_batch,
)
from repro.scenarios.delta import apply_delta
from repro.scenarios.service import ScenarioService
from repro.store import ScenarioStore


def spec_of(seed, base="ring", n=12):
    return ScenarioSpec(base=base, params={}, n=n, seed=seed)


@pytest.fixture
def store(tmp_path):
    with ScenarioStore(tmp_path / "store", fsync=False) as s:
        yield s


class TestReadThrough:
    def test_l1_hit_counted_per_tier(self, store):
        cache = ScenarioCache(store=store)
        spec = spec_of(1)
        cache.fetch(spec)
        cache.fetch(spec)
        analytics = cache.analytics()
        assert analytics.l1_hits == 1
        assert analytics.l2_hits == 0
        assert analytics.hits == 1  # back-compat: total hits unchanged

    def test_l2_hit_after_eviction(self, store):
        cache = ScenarioCache(max_entries=1, store=store)
        a, b = spec_of(1), spec_of(2)
        cache.fetch(a)
        cache.fetch(b)  # evicts a from L1; both persisted to L2
        matrix, tier = cache.fetch_tiered(a)
        assert tier == "l2"
        assert matrix == a.build()
        analytics = cache.analytics()
        assert analytics.l2_hits == 1
        assert analytics.promotions == 1  # the L2 hit re-entered L1
        assert analytics.hits == 1

    def test_l2_hit_promotes_to_l1(self, store):
        cache = ScenarioCache(max_entries=4, store=store)
        spec = spec_of(3)
        store.put(spec, spec.build())  # seeded out-of-band, cold L1
        _, first = cache.fetch_tiered(spec)
        _, second = cache.fetch_tiered(spec)
        assert (first, second) == ("l2", "l1")

    def test_contains_sees_both_tiers(self, store):
        cache = ScenarioCache(max_entries=1, store=store)
        a, b = spec_of(1), spec_of(2)
        cache.fetch(a)
        cache.fetch(b)
        assert a in cache  # evicted from L1, still visible via L2
        assert b in cache
        assert spec_of(99) not in cache

    def test_hit_rates_per_tier(self, store):
        cache = ScenarioCache(max_entries=1, store=store)
        a, b = spec_of(1), spec_of(2)
        cache.fetch(a)
        cache.fetch(a)  # l1 hit
        cache.fetch(b)  # build, evicts a
        cache.fetch(a)  # l2 hit
        analytics = cache.analytics()
        assert analytics.l1_hit_rate == pytest.approx(0.25)
        assert analytics.l2_hit_rate == pytest.approx(0.25)
        assert analytics.hit_rate == pytest.approx(0.5)
        tiers = analytics.to_dict()["tiers"]
        assert tiers["l1_hits"] == 1 and tiers["l2_hits"] == 1
        assert tiers["promotions"] == 1


class TestWriteThrough:
    def test_builds_are_persisted(self, store, tmp_path):
        cache = ScenarioCache(store=store)
        specs = [spec_of(k) for k in range(3)]
        built = [cache.fetch(spec)[0] for spec in specs]
        cache.flush()  # writes are write-behind: durable after the flush
        # a fresh process with a cold L1 serves every spec from disk
        with ScenarioStore(tmp_path / "store", fsync=False) as reopened:
            cold = ScenarioCache(store=reopened)
            for spec, matrix in zip(specs, built):
                loaded, tier = cold.fetch_tiered(spec)
                assert tier == "l2"
                assert loaded == matrix and loaded.meta == matrix.meta
            assert cold.analytics().l2_hits == len(specs)
            assert cold.analytics().misses == 0

    def test_oversized_entry_still_persisted(self, store):
        cache = ScenarioCache(max_bytes=1, store=store)  # nothing fits L1
        spec = spec_of(5)
        cache.fetch(spec)
        assert len(cache) == 0  # too big for L1 ...
        assert store.contains(spec)  # ... but durably stored

    def test_clear_leaves_l2_intact(self, store):
        cache = ScenarioCache(store=store)
        spec = spec_of(6)
        cache.fetch(spec)
        cache.clear()
        assert len(cache) == 0
        _, tier = cache.fetch_tiered(spec)
        assert tier == "l2"


class TestIntegration:
    def test_generate_batch_store_kwarg(self, store):
        specs = [spec_of(k) for k in range(4)]
        reference = generate_batch(specs)
        first = generate_batch(specs, store=store)
        second = generate_batch(specs, store=store)  # warm start from disk
        for ref, a, b in zip(reference, first, second):
            assert ref == a == b
            assert ref.meta == a.meta == b.meta
        assert store.index.count() == len(specs)

    def test_service_store_kwarg(self, store):
        spec = spec_of(7)

        async def main():
            async with ScenarioService(store=store) as service:
                results = await service.generate([spec])
                running = service.stats()["store"]
            return results, running, service.stats()["store"]

        results, running, stopped = asyncio.run(main())
        assert results == [spec.build()]
        # while serving, the write is committed or still queued ...
        assert running["entries"] + running["pending_writes"] == 1
        # ... and stop() is the barrier that makes it durable
        assert stopped["entries"] == 1 and stopped["pending_writes"] == 0

    def test_service_warm_starts_from_store(self, store, tmp_path):
        spec = spec_of(8)

        async def warm_phase():
            async with ScenarioService(store=store) as service:
                await service.generate([spec])

        asyncio.run(warm_phase())

        async def cold_phase(reopened):
            async with ScenarioService(store=reopened) as service:
                results = await service.generate([spec])
                return results, service.cache.analytics()

        with ScenarioStore(tmp_path / "store", fsync=False) as reopened:
            results, analytics = asyncio.run(cold_phase(reopened))
        assert results == [spec.build()]
        assert analytics.l2_hits == 1 and analytics.misses == 0

    def test_delta_base_tier_reported(self, store):
        cache = ScenarioCache(store=store)
        base = spec_of(9)
        cache.fetch(base)
        delta = OverlaySpec("self_loops", {})
        result = apply_delta(base, delta, cache=cache)
        assert result.stats.base_tier == "l1" and result.stats.base_cache_hit
        cache.clear()
        result = apply_delta(base, delta, cache=cache)
        assert result.stats.base_tier == "l2" and result.stats.base_cache_hit
