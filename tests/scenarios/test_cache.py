"""Content-addressed scenario cache: keys, hits, eviction, analytics, warming."""

import hashlib
import json

import pytest

from repro.core.traffic_matrix import TrafficMatrix
from repro.errors import ScenarioError
from repro.scenarios import (
    CacheAnalytics,
    NoiseSpec,
    OverlaySpec,
    ScenarioCache,
    ScenarioSpec,
    generate_batch,
    matrix_bytes,
)


def spec_of(seed: int, base: str = "ring", n: int = 12) -> ScenarioSpec:
    return ScenarioSpec(base=base, n=n, seed=seed)


class TestCacheKey:
    def test_key_is_sha256_of_canonical_json(self):
        spec = ScenarioSpec(
            base="star",
            n=16,
            seed=9,
            noise=NoiseSpec(density=0.1),
            overlays=(OverlaySpec("ddos_attack"),),
        )
        canonical = json.dumps(
            spec.to_dict(), sort_keys=True, separators=(",", ":")
        )
        assert spec.canonical_json() == canonical
        assert spec.cache_key() == hashlib.sha256(canonical.encode()).hexdigest()

    def test_key_is_deterministic_and_equality_aligned(self):
        a = spec_of(7)
        b = ScenarioSpec.from_json(a.to_json())
        assert a.cache_key() == a.cache_key() == b.cache_key()

    def test_key_distinguishes_every_field(self):
        base = spec_of(7)
        variants = [
            spec_of(8),
            spec_of(7, base="star"),
            spec_of(7, n=13),
            ScenarioSpec(base="ring", n=12, seed=7, noise=NoiseSpec(density=0.1)),
            ScenarioSpec(base="ring", n=12, seed=7, overlays=(OverlaySpec("clique"),)),
            ScenarioSpec(base="ring", n=12, seed=7, params={"packets": 3}),
        ]
        keys = {base.cache_key()} | {v.cache_key() for v in variants}
        assert len(keys) == len(variants) + 1

    def test_key_of_accepts_spec_or_raw_key(self):
        spec = spec_of(1)
        assert ScenarioCache.key_of(spec) == spec.cache_key()
        assert ScenarioCache.key_of("abc123") == "abc123"
        with pytest.raises(ScenarioError, match="ScenarioSpec or str"):
            ScenarioCache.key_of(42)


class TestHitMiss:
    def test_miss_then_hit_round_trip(self):
        cache = ScenarioCache()
        spec = spec_of(3)
        assert cache.get(spec) is None
        built = spec.build()
        cache.put(spec, built)
        hit = cache.get(spec)
        assert hit == built
        assert hit.meta == built.meta

    def test_served_matrices_are_shared_and_frozen(self):
        """A hit is the put matrix itself, and no caller can write to it."""
        cache = ScenarioCache()
        spec = spec_of(4)
        built = spec.build()
        cache.put(spec, built)
        first = cache.get(spec)
        assert first is built
        with pytest.raises(ValueError):
            first.packets[0, 1] = 999_999
        with pytest.raises(ValueError):
            first.colors[1, 2] = 2
        second = cache.get(spec)
        assert second == spec.build()
        assert second.meta == spec.build().meta

    def test_nested_meta_never_leaks(self, tmp_path):
        """Editing a served matrix's provenance reaches neither tier."""
        from repro.store import ScenarioStore

        spec = spec_of(4)
        expected = spec.build().meta
        with ScenarioStore(tmp_path / "store", fsync=False) as store:
            cache = ScenarioCache(store=store)
            built = spec.build()
            cache.put(spec, built)
            built.meta["scenario"]["n"] = 1
            hit = cache.get(spec)
            hit.meta["scenario"]["seed"] = 999
            meta = hit.meta
            meta["scenario"]["base"] = "star"
            meta["extra"] = 1
            again = cache.get(spec)
            assert again.meta == expected
            cache.flush()
            assert store.get(spec).meta == expected
            promoted = ScenarioCache(store=store).get(spec)
            assert promoted.meta == expected

    def test_meta_is_copied_on_the_way_in(self):
        spec = spec_of(4)
        provenance = spec.to_dict()
        tagged = spec.build().with_meta(scenario=provenance)
        provenance["seed"] = 999
        assert tagged.meta == spec.build().meta
        given = {"scenario": spec.to_dict()}
        built = spec.build()
        direct = TrafficMatrix(built.packets, built.labels, built.colors, meta=given)
        given["scenario"]["seed"] = 999
        assert direct.meta == spec.build().meta

    def test_contains_is_counter_neutral(self):
        cache = ScenarioCache()
        spec = spec_of(5)
        assert spec not in cache
        cache.put(spec, spec.build())
        assert spec in cache
        analytics = cache.analytics()
        assert analytics.hits == 0 and analytics.misses == 0

    def test_fetch_builds_once_then_serves(self):
        cache = ScenarioCache()
        spec = spec_of(6)
        first, was_hit1 = cache.fetch(spec)
        second, was_hit2 = cache.fetch(spec)
        assert (was_hit1, was_hit2) == (False, True)
        assert first == second == spec.build()


class TestEviction:
    def test_lru_entry_count_eviction_is_deterministic(self):
        cache = ScenarioCache(max_entries=2)
        s0, s1, s2 = spec_of(0), spec_of(1), spec_of(2)
        for s in (s0, s1, s2):
            cache.put(s, s.build())
        assert s0 not in cache and s1 in cache and s2 in cache
        cache.get(s1)  # refresh s1; s2 becomes LRU
        cache.put(s0, s0.build())
        assert s2 not in cache and s1 in cache and s0 in cache
        assert cache.analytics().evictions == 2

    def test_max_bytes_bound_holds(self):
        spec = spec_of(0)
        size = matrix_bytes(spec.build())
        cache = ScenarioCache(max_entries=None, max_bytes=2 * size)
        for k in range(4):
            cache.put(spec_of(k), spec_of(k).build())
        assert len(cache) == 2
        assert cache.resident_bytes <= 2 * size
        assert cache.analytics().evictions == 2

    def test_oversized_entry_is_not_retained(self):
        """One matrix bigger than the whole budget must not flush the cache."""
        small, big = spec_of(0, n=8), spec_of(1, n=64)
        budget = matrix_bytes(big.build()) - 1
        cache = ScenarioCache(max_entries=None, max_bytes=budget)
        cache.put(small, small.build())
        cache.put(big, big.build())
        assert big not in cache
        assert small in cache  # refused up front, not admitted-then-flushed

    def test_overwrite_replaces_byte_accounting(self):
        """put() on an existing key must swap the old entry's bytes for the
        new ones — double-counting would trigger eviction early (or, after a
        shrinking overwrite, late).  Regression test for ISSUE 8."""
        spec = spec_of(0)
        small = spec_of(0, n=8).build()
        big = spec_of(0, n=64).build()
        cache = ScenarioCache(max_entries=None, max_bytes=None)
        cache.put(spec, small)
        assert cache.resident_bytes == matrix_bytes(small)
        cache.put(spec, big)  # grow in place
        assert len(cache) == 1
        assert cache.resident_bytes == matrix_bytes(big)
        assert cache.stats()["bytes"] == matrix_bytes(big)
        cache.put(spec, small)  # and shrink back
        assert len(cache) == 1
        assert cache.resident_bytes == matrix_bytes(small)
        recount = matrix_bytes(cache.get(spec))
        assert cache.stats()["bytes"] == recount

    def test_overwrite_accounting_survives_eviction_pressure(self):
        """With a tight byte budget, repeated overwrites of one key must not
        drift the ledger and evict a perfectly resident neighbour."""
        keeper, churner = spec_of(0, n=8), spec_of(1, n=8)
        keeper_m, churner_m = keeper.build(), churner.build()
        budget = matrix_bytes(keeper_m) + matrix_bytes(churner_m)
        cache = ScenarioCache(max_entries=None, max_bytes=budget)
        cache.put(keeper, keeper_m)
        for _ in range(5):
            cache.put(churner, churner_m)
        assert keeper in cache and churner in cache
        assert cache.resident_bytes == budget
        assert cache.analytics().evictions == 0

    def test_bad_bounds_rejected(self):
        with pytest.raises(ScenarioError, match="max_entries"):
            ScenarioCache(max_entries=0)
        with pytest.raises(ScenarioError, match="max_bytes"):
            ScenarioCache(max_bytes=0)


class TestAnalytics:
    def test_per_family_hit_rates(self):
        cache = ScenarioCache()
        pattern, attack = spec_of(0, base="ring"), spec_of(0, base="ddos_attack")
        generate_batch([pattern, attack], cache=cache)   # two misses
        generate_batch([pattern], cache=cache)           # one pattern hit
        analytics = cache.analytics()
        assert isinstance(analytics, CacheAnalytics)
        assert analytics.hits == 1 and analytics.misses == 2
        assert analytics.hit_rate == pytest.approx(1 / 3)
        rates = analytics.family_hit_rates()
        assert rates["pattern"] == pytest.approx(0.5)
        assert rates["ddos"] == 0.0

    def test_stats_is_json_able(self):
        cache = ScenarioCache(max_entries=4, max_bytes=1 << 20)
        cache.fetch(spec_of(0))
        doc = json.loads(json.dumps(cache.stats()))
        assert doc["misses"] == 1 and doc["entries"] == 1
        assert doc["max_entries"] == 4 and doc["max_bytes"] == 1 << 20

    def test_clear_keeps_lifetime_counters(self):
        cache = ScenarioCache()
        cache.fetch(spec_of(0))
        cache.clear()
        assert len(cache) == 0 and cache.resident_bytes == 0
        assert cache.analytics().misses == 1


class TestWarm:
    def test_warm_is_idempotent_and_dedupes(self):
        cache = ScenarioCache()
        specs = [spec_of(k) for k in range(3)]
        assert cache.warm(specs + specs) == 3  # duplicates build once
        assert cache.warm(specs) == 0          # already resident: no builds
        analytics = cache.analytics()
        assert analytics.hits == 0  # warming is maintenance, not traffic
        assert analytics.puts == 3

    def test_warm_rejects_non_specs(self):
        with pytest.raises(ScenarioError, match="warm expects ScenarioSpec"):
            ScenarioCache().warm(["ring"])


class TestBatchIntegration:
    @pytest.mark.parametrize(
        "workers,backend",
        [(1, "serial"), (3, "thread"), (2, "process")],
        ids=["serial", "thread", "process"],
    )
    def test_cached_batch_bit_identical_on_every_backend(self, workers, backend):
        specs = [spec_of(k, base=b) for k in range(4) for b in ("ring", "star")]
        reference = generate_batch(specs, workers=1, backend="serial")
        cache = ScenarioCache()
        cold = generate_batch(specs, workers=workers, backend=backend, cache=cache)
        warm = generate_batch(specs, workers=workers, backend=backend, cache=cache)
        for ref, a, b in zip(reference, cold, warm):
            assert ref == a == b
            assert ref.meta == a.meta == b.meta
        analytics = cache.analytics()
        assert analytics.misses == len(specs) and analytics.hits == len(specs)

    def test_analytics_identical_across_backends(self):
        """Cache accounting is part of the determinism contract."""
        specs = [spec_of(k) for k in range(5)]
        snapshots = []
        for workers, backend in ((1, "serial"), (3, "thread")):
            cache = ScenarioCache(max_entries=3)
            generate_batch(specs, workers=workers, backend=backend, cache=cache)
            generate_batch(specs, workers=workers, backend=backend, cache=cache)
            snapshots.append(cache.stats())
        assert snapshots[0] == snapshots[1]

    def test_progress_counts_hits_and_misses(self):
        specs = [spec_of(k) for k in range(4)]
        cache = ScenarioCache()
        cache.warm(specs[:2])
        seen = []
        generate_batch(specs, cache=cache, on_progress=lambda d, t: seen.append((d, t)))
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]
