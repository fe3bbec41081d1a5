"""Traffic metrics: reciprocity, supernodes, degree histograms, fits."""

import pytest

from repro.core.traffic_matrix import TrafficMatrix
from repro.graphs import ddos, patterns, topologies
from repro.graphs.metrics import (
    degree_histogram,
    diagonal_fraction,
    power_law_slope,
    reciprocity,
    summarize,
    supernodes,
)


class TestReciprocity:
    def test_mutual_pattern_is_one(self):
        assert reciprocity(patterns.clique(6)) == 1.0

    def test_one_way_pattern_is_zero(self):
        assert reciprocity(ddos.ddos_attack(10)) == 0.0

    def test_empty_is_zero(self):
        assert reciprocity(TrafficMatrix.zeros(5)) == 0.0

    def test_half_mutual(self):
        m = TrafficMatrix([[0, 1, 1], [1, 0, 0], [0, 0, 0]])
        assert reciprocity(m) == pytest.approx(2 / 3)

    def test_self_loops_ignored(self):
        m = TrafficMatrix([[5, 0], [0, 5]])
        assert reciprocity(m) == 0.0


class TestDiagonalFraction:
    def test_pure_self_loops(self):
        assert diagonal_fraction(patterns.self_loops(10)) == 1.0

    def test_no_self_loops(self):
        assert diagonal_fraction(patterns.ring(10)) == 0.0

    def test_template_mix(self, tpl10):
        assert diagonal_fraction(tpl10.matrix) == pytest.approx(0.5)

    def test_empty(self):
        assert diagonal_fraction(TrafficMatrix.zeros(4)) == 0.0


class TestSupernodes:
    def test_star_hub_found(self):
        assert supernodes(patterns.star(10)) == ["WS1"]

    def test_external_supernode_found(self):
        assert "EXT1" in supernodes(topologies.external_supernode(10))

    def test_isolated_links_have_none(self):
        assert supernodes(topologies.isolated_links(10)) == []

    def test_custom_threshold(self):
        m = patterns.ring(10)
        assert supernodes(m, min_fan=2) == list(m.labels)

    def test_counts_peers_not_packets(self):
        labels = TrafficMatrix.zeros(6).labels
        m = TrafficMatrix.from_edges([(0, 1, 14)], labels)  # heavy single link is not a supernode
        assert supernodes(m) == []


class TestDegreeHistogram:
    def test_ring_out_fan(self):
        hist = degree_histogram(patterns.ring(10), axis="out")
        assert hist == {2: 10}

    def test_star_out_fan(self):
        hist = degree_histogram(patterns.star(10), axis="out")
        assert hist == {1: 9, 9: 1}

    def test_in_axis(self):
        hist = degree_histogram(ddos.ddos_attack(10), axis="in")
        assert hist[4] == 1  # SRV1 hit by 4 clients

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            degree_histogram(patterns.ring(10), axis="sideways")


class TestPowerLawSlope:
    def test_needs_two_points(self):
        assert power_law_slope({2: 10}) is None
        assert power_law_slope({}) is None

    def test_exact_power_law_recovered(self):
        # counts = degree^-2 scaled
        hist = {1: 1000, 2: 250, 4: 62, 8: 15}
        slope = power_law_slope(hist)
        assert slope == pytest.approx(-2.0, abs=0.05)

    def test_zero_degree_excluded(self):
        hist = {0: 99, 1: 100, 2: 25}
        slope = power_law_slope(hist)
        assert slope == pytest.approx(-2.0, abs=0.05)


class TestSummarize:
    def test_template_summary(self, tpl10):
        s = summarize(tpl10.matrix)
        assert s.n == 10 and s.nnz == 20 and s.total_packets == 30
        assert s.max_packets == 2
        assert s.active_sources == 10

    def test_dominant_block(self):
        s = summarize(ddos.ddos_attack(10))
        # the flood is mostly grey/red → blue; dominant source space varies
        assert s.dominant_block()[1] == "blue"

    def test_dominant_block_empty(self):
        assert summarize(TrafficMatrix.zeros(4)).dominant_block() is None

    def test_block_packets_partition(self, tpl10):
        s = summarize(tpl10.matrix)
        assert sum(s.space_block_packets.values()) == s.total_packets
