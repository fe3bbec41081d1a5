"""Incremental delta rebuilds: bit-identity to full rebuilds, stats, caching."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ScenarioError
from repro.scenarios import (
    NoiseSpec,
    OverlaySpec,
    ScenarioCache,
    ScenarioSpec,
    apply_delta,
    extend_spec,
)

OVERLAY_NAMES = (
    "ddos_attack",
    "background_noise",
    "infiltration",
    "lateral_movement",
    "clique",
    "staging",
)


def assert_bit_identical(result, target):
    full = target.build()
    assert result.spec == target
    assert result.matrix == full              # packets, labels, colours
    assert result.matrix.meta == full.meta    # provenance document too


class TestExtendSpec:
    def test_appends_overlays_in_order(self):
        base = ScenarioSpec("ring", n=10, overlays=(OverlaySpec("clique"),))
        target = extend_spec(base, {"name": "ddos_attack"})
        assert [o.name for o in target.overlays] == ["clique", "ddos_attack"]

    def test_accepts_spec_dict_and_iterables(self):
        base = ScenarioSpec("ring", n=10)
        one = extend_spec(base, OverlaySpec("clique"))
        two = extend_spec(base, [{"name": "clique"}, OverlaySpec("ddos_attack")])
        assert len(one.overlays) == 1 and len(two.overlays) == 2

    def test_rejects_empty_and_malformed_deltas(self):
        base = ScenarioSpec("ring", n=10)
        with pytest.raises(ScenarioError, match="at least one overlay"):
            extend_spec(base, [])
        with pytest.raises(ScenarioError, match="OverlaySpec or dict"):
            extend_spec(base, ["clique"])
        with pytest.raises(ScenarioError, match="expects a ScenarioSpec base"):
            extend_spec("ring", OverlaySpec("clique"))

    def test_rejects_invalid_combined_spec(self):
        with pytest.raises(ScenarioError, match="unknown scenario generator"):
            extend_spec(ScenarioSpec("ring", n=10), {"name": "nope"})


class TestBitIdentity:
    def test_plain_base(self):
        base = ScenarioSpec("star", n=24, seed=3)
        result = apply_delta(base, {"name": "ddos_attack"})
        assert_bit_identical(result, extend_spec(base, {"name": "ddos_attack"}))

    def test_base_with_existing_overlays(self):
        """Delta layer seeds must land at their combined-spec positions."""
        base = ScenarioSpec(
            "tree", n=32, seed=5, overlays=(OverlaySpec("staging"),)
        )
        delta = [{"name": "lateral_movement"}, {"name": "background_noise"}]
        assert_bit_identical(apply_delta(base, delta), extend_spec(base, delta))

    def test_noisy_base_reapplies_noise_for_combined_layer_count(self):
        """The noise seed depends on layer count — the delta path must re-roll
        it for the combined spec, not reuse the base's noise stream."""
        base = ScenarioSpec(
            "mesh", n=20, seed=11, noise=NoiseSpec(density=0.08)
        )
        result = apply_delta(base, {"name": "infiltration"})
        assert_bit_identical(result, extend_spec(base, {"name": "infiltration"}))

    def test_verify_flag_accepts_honest_rebuilds(self):
        base = ScenarioSpec("ring", n=16, seed=2)
        apply_delta(base, {"name": "clique"}, verify=True)  # must not raise

    def test_explicit_prenoise_base_matrix_short_circuit(self):
        from dataclasses import replace

        base = ScenarioSpec("star", n=18, seed=4, noise=NoiseSpec(density=0.1))
        prenoise = replace(base, noise=None).build()
        result = apply_delta(base, {"name": "clique"}, base_matrix=prenoise)
        assert_bit_identical(result, extend_spec(base, {"name": "clique"}))

    @settings(max_examples=25, deadline=None)
    @given(
        base_name=st.sampled_from(("ring", "star", "mesh", "tree", "clique")),
        n=st.integers(min_value=6, max_value=40),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        noise=st.one_of(
            st.none(),
            st.floats(min_value=0.01, max_value=0.3).map(
                lambda d: NoiseSpec(density=d)
            ),
        ),
        base_overlays=st.lists(
            st.sampled_from(OVERLAY_NAMES), min_size=0, max_size=2
        ),
        delta_overlays=st.lists(
            st.sampled_from(OVERLAY_NAMES), min_size=1, max_size=2
        ),
    )
    def test_random_base_and_delta(
        self, base_name, n, seed, noise, base_overlays, delta_overlays
    ):
        """Property: apply_delta ≡ full rebuild over random spec space."""
        base = ScenarioSpec(
            base_name,
            n=n,
            seed=seed,
            noise=noise,
            overlays=tuple(OverlaySpec(name) for name in base_overlays),
        )
        delta = [OverlaySpec(name) for name in delta_overlays]
        assert_bit_identical(apply_delta(base, delta), extend_spec(base, delta))


class TestStats:
    def test_counts_the_rows_the_delta_layers_store_packets_in(self):
        """An infiltration delta stores packets in a handful of rows: exactly
        those count as recomputed; the rest carry over."""
        import numpy as np

        base = ScenarioSpec("ring", n=16, seed=1)
        delta = {"name": "infiltration"}
        result = apply_delta(base, delta)
        target = extend_spec(base, delta)
        layer = target.layer_matrices()[-1]
        packet_rows = int((np.asarray(layer.packets) != 0).any(axis=1).sum())
        assert 1 <= packet_rows < 16
        assert result.stats.rows == 16
        assert result.stats.rows_recomputed == packet_rows
        assert result.stats.rows_reused == 16 - packet_rows
        assert result.stats.delta_nnz == layer.nnz() > 0
        assert_bit_identical(result, target)

    def test_rows_touched_by_any_of_several_layers_count_once(self):
        import numpy as np

        base = ScenarioSpec("ring", n=16, seed=1)
        delta = [{"name": "infiltration"}, {"name": "ddos_attack"}]
        result = apply_delta(base, delta)
        layers = extend_spec(base, delta).layer_matrices()[-2:]
        touched = np.zeros(16, dtype=bool)
        for layer in layers:
            touched |= (np.asarray(layer.packets) != 0).any(axis=1)
        assert result.stats.rows_recomputed == int(touched.sum())
        assert result.stats.rows_reused == 16 - result.stats.rows_recomputed
        assert result.stats.delta_nnz == sum(layer.nnz() for layer in layers)

    def test_full_grid_delta_recomputes_everything(self):
        base = ScenarioSpec("ring", n=12, seed=1)
        result = apply_delta(base, {"name": "mesh"})
        assert result.stats.rows_recomputed == 12
        assert result.stats.rows_reused == 0

    def test_base_cache_hit_follows_the_base_tier(self):
        base = ScenarioSpec("ring", n=10, seed=2)
        built = apply_delta(base, {"name": "clique"})
        given = apply_delta(base, {"name": "clique"}, base_matrix=base.build())
        assert (built.stats.base_tier, built.stats.base_cache_hit) == ("build", False)
        assert (given.stats.base_tier, given.stats.base_cache_hit) == ("given", False)


class TestCacheInterplay:
    def test_base_composition_cached_and_reused(self):
        cache = ScenarioCache()
        base = ScenarioSpec("star", n=20, seed=7, noise=NoiseSpec(density=0.1))
        first = apply_delta(base, {"name": "clique"}, cache=cache)
        second = apply_delta(base, {"name": "ddos_attack"}, cache=cache)
        assert first.stats.base_cache_hit is False
        assert second.stats.base_cache_hit is True  # pre-noise base reused
        assert_bit_identical(second, extend_spec(base, {"name": "ddos_attack"}))

    def test_combined_result_is_cached_under_target_key(self):
        cache = ScenarioCache()
        base = ScenarioSpec("ring", n=14, seed=3)
        result = apply_delta(base, {"name": "clique"}, cache=cache)
        assert result.spec in cache
        hit = cache.get(result.spec)
        assert hit == result.matrix and hit.meta == result.matrix.meta
