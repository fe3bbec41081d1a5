"""Noise injection and pattern composition."""

import numpy as np
import pytest

from repro.core.spaces import NetworkSpace
from repro.core.traffic_matrix import TrafficMatrix
from repro.errors import LabelError, ShapeError, TrafficMatrixError
from repro.graphs import attack
from repro.graphs.compose import challenge, overlay, sequence
from repro.graphs.noise import background_noise, with_noise
from repro.graphs.patterns import star


class TestBackgroundNoise:
    def test_deterministic_for_seed(self):
        a = background_noise(10, seed=42)
        b = background_noise(10, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        assert background_noise(10, seed=1) != background_noise(10, seed=2)

    def test_density_zero_is_empty(self):
        assert background_noise(10, density=0.0, seed=0).nnz() == 0

    def test_density_one_fills_off_diagonal(self):
        m = background_noise(10, density=1.0, seed=0)
        assert m.nnz() == 90  # no self loops by default

    def test_self_loops_flag(self):
        m = background_noise(10, density=1.0, seed=0, allow_self_loops=True)
        assert m.nnz() == 100

    def test_max_packets_bound(self):
        m = background_noise(10, density=1.0, max_packets=3, seed=5)
        assert m.max_packets() <= 3 and m.max_packets() >= 1

    def test_space_restriction(self):
        m = background_noise(
            10, density=1.0, seed=0,
            src_space=NetworkSpace.GREY, dst_space=NetworkSpace.GREY,
        )
        blocks = {k for k, v in m.space_traffic().items() if v > 0}
        assert blocks == {(NetworkSpace.GREY, NetworkSpace.GREY)}

    def test_bad_density(self):
        with pytest.raises(ShapeError):
            background_noise(10, density=1.5)

    def test_bad_max_packets(self):
        with pytest.raises(ShapeError):
            background_noise(10, max_packets=0)


class TestWithNoise:
    def test_pattern_cells_preserved(self):
        pattern = star(10, packets=5)
        noisy = with_noise(pattern, density=0.5, seed=3)
        mask = pattern.packets > 0
        assert np.array_equal(noisy.packets[mask], pattern.packets[mask])

    def test_noise_added_somewhere(self):
        pattern = star(10)
        noisy = with_noise(pattern, density=0.5, seed=3)
        assert noisy.nnz() > pattern.nnz()

    def test_without_preserve_noise_may_stack(self):
        pattern = star(10, packets=1)
        noisy = with_noise(pattern, density=1.0, seed=3, preserve_pattern=False)
        assert noisy.total_packets() > pattern.total_packets()


class TestOverlay:
    def test_sums_packets(self):
        a = TrafficMatrix([[1, 0], [0, 0]])
        b = TrafficMatrix([[2, 3], [0, 0]])
        c = overlay([a, b])
        assert c[0, 0] == 3 and c[0, 1] == 3

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            overlay([])

    def test_does_not_mutate_inputs(self):
        a = TrafficMatrix([[1]], labels=["A"])
        b = TrafficMatrix([[2]], labels=["A"])
        overlay([a, b])
        assert a[0, 0] == 1


    def test_equals_the_layerwise_sum_and_colour_max(self):
        rng = np.random.default_rng(7)
        labels = attack.planning(10).labels
        layers = [
            TrafficMatrix(
                rng.integers(0, 5, (10, 10)),
                labels,
                rng.integers(0, 3, (10, 10)),
            )
            for _ in range(4)
        ]
        layers[2] = TrafficMatrix(
            layers[2].packets, labels, rng.integers(0, 5, (10, 10)), extended_colors=True
        )
        combined = overlay(layers)
        assert combined.labels == labels
        assert combined.extended_colors
        assert np.array_equal(combined.packets, sum(m.packets for m in layers))
        assert np.array_equal(
            combined.colors, np.maximum.reduce([m.colors for m in layers])
        )
        assert combined.colors.dtype == np.int8 and combined.packets.dtype == np.int64
        assert combined == layers[0] + layers[1] + layers[2] + layers[3]

    def test_meta_follows_the_fold(self):
        a = TrafficMatrix([[1]], labels=["A"], meta={"scenario": "a"})
        b = TrafficMatrix([[2]], labels=["A"], meta={"scenario": "b"})
        assert overlay([a]).meta == {"scenario": "a"}
        assert overlay([a]) is not a
        assert overlay([a, b]).meta == {} == (a + b).meta

    def test_overflow_is_caught_at_the_layer_it_happens(self):
        """Five layers whose int64 sum wraps negative and back to positive:
        a check only at the end would pass it."""
        big = TrafficMatrix([[2**62]], labels=["A"])
        layers = [big, big, big, big, TrafficMatrix([[1]], labels=["A"])]
        with pytest.raises(TrafficMatrixError, match="negative"):
            overlay(layers)
        with pytest.raises(TrafficMatrixError, match="negative"):
            big + big

    def test_incompatible_layer_rejected(self):
        a = TrafficMatrix([[1]], labels=["A"])
        with pytest.raises(LabelError):
            overlay([a, TrafficMatrix([[1]], labels=["B"])])
        with pytest.raises(ShapeError):
            overlay([a, TrafficMatrix([[1, 0], [0, 0]])])


class TestSequence:
    def test_stage_list(self):
        stages = sequence(list(attack.ATTACK_STAGES.values()), n=10)
        assert len(stages) == 4
        assert stages[0] == attack.planning(10)

    def test_cumulative(self):
        stages = sequence(list(attack.ATTACK_STAGES.values()), n=10, cumulative=True)
        assert stages[-1] == attack.full_attack(10)
        for earlier, later in zip(stages, stages[1:]):
            assert later.total_packets() > earlier.total_packets()


class TestChallenge:
    def test_plants_pattern_verbatim(self):
        pattern = attack.infiltration(10)
        chal = challenge(pattern, seed=11)
        mask = pattern.packets > 0
        assert np.array_equal(chal.packets[mask], pattern.packets[mask])

    def test_reproducible(self):
        pattern = attack.infiltration(10)
        assert challenge(pattern, seed=11) == challenge(pattern, seed=11)
