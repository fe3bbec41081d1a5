"""Pattern classification: generator → classifier round trips and edge cases."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import importlib

from repro.core.traffic_matrix import TrafficMatrix
from repro.graphs import attack, ddos, patterns, topologies

# the generator submodule (its ``defense`` function is exported as ``defense_pattern``)
defense = importlib.import_module("repro.graphs.defense")
from repro.graphs.classify import (
    classify_graph_pattern,
    classify_scenario,
    classify_topology,
)
from repro.graphs.compose import challenge


class TestGraphPatternRoundTrip:
    @pytest.mark.parametrize("name", list(patterns.PATTERN_GENERATORS))
    def test_default_10(self, name):
        m = patterns.PATTERN_GENERATORS[name](10)
        assert classify_graph_pattern(m) == name

    @pytest.mark.parametrize("name", ["star", "clique", "ring", "self_loops", "tree"])
    def test_other_sizes(self, name):
        for n in (6, 8, 12):
            m = patterns.PATTERN_GENERATORS[name](n)
            assert classify_graph_pattern(m) == name, (name, n)

    @given(st.integers(1, 8))
    @settings(max_examples=20, deadline=None)
    def test_star_any_center(self, center):
        m = patterns.star(10, center=center)
        assert classify_graph_pattern(m) == "star"

    @given(st.integers(2, 13))
    @settings(max_examples=20, deadline=None)
    def test_packets_do_not_matter(self, packets):
        m = patterns.ring(10, packets=packets)
        assert classify_graph_pattern(m) == "ring"

    def test_clique_subset(self):
        m = patterns.clique(10, members=[1, 3, 5, 7])
        assert classify_graph_pattern(m) == "clique"

    def test_triangle_on_any_vertices(self):
        m = patterns.triangle(10, vertices=(2, 5, 8))
        assert classify_graph_pattern(m) == "triangle"

    def test_empty_unknown(self):
        assert classify_graph_pattern(TrafficMatrix.zeros(5)) == "unknown"

    def test_mixed_self_loops_and_links_unknown(self):
        m = patterns.self_loops(6) + patterns.ring(6)
        assert classify_graph_pattern(m) == "unknown"

    def test_asymmetric_ring_not_ring(self):
        m = patterns.ring(8, mutual=False)
        # a directed cycle symmetrises to a ring shape but is not symmetric
        assert classify_graph_pattern(m) in ("ring", "unknown")

    def test_bipartite_unbalanced(self):
        m = patterns.bipartite(10, left=[0, 1, 2])
        assert classify_graph_pattern(m) == "bipartite"

    def test_star_is_not_reported_as_tree_or_bipartite(self):
        # K1,9 is both a tree and complete bipartite; star must win
        assert classify_graph_pattern(patterns.star(10)) == "star"

    def test_path_is_tree(self):
        m = patterns.mesh(10, dims=(1, 10))
        # a 1×n mesh is a path; mesh match is checked before tree and accepts it
        assert classify_graph_pattern(m) in ("mesh", "tree")


class TestTopologyRoundTrip:
    @pytest.mark.parametrize("name", list(topologies.TOPOLOGY_GENERATORS))
    def test_default_10(self, name):
        m = topologies.TOPOLOGY_GENERATORS[name](10)
        assert classify_topology(m) == name

    def test_custom_pairs_still_isolated(self):
        m = topologies.isolated_links(10, pairs=[(0, 5), (1, 6), (2, 7)])
        assert classify_topology(m) == "isolated_links"

    def test_empty_unknown(self):
        assert classify_topology(TrafficMatrix.zeros(10)) == "unknown"

    def test_clique_not_a_topology(self):
        assert classify_topology(patterns.clique(10)) == "unknown"


class TestScenarioRoundTrip:
    @pytest.mark.parametrize("name,gen", list(attack.ATTACK_STAGES.items()))
    def test_attack_stages(self, name, gen):
        assert classify_scenario(gen(10)).best == name

    @pytest.mark.parametrize("name,gen", list(defense.DEFENSE_CONCEPTS.items()))
    def test_defense_concepts(self, name, gen):
        assert classify_scenario(gen(10)).best == name

    @pytest.mark.parametrize("name,gen", list(ddos.DDOS_COMPONENTS.items()))
    def test_ddos_components(self, name, gen):
        assert classify_scenario(gen(10)).best == name

    def test_scores_are_ranked(self):
        score = classify_scenario(attack.planning(10))
        assert score.scores[score.best] >= max(score.scores.values()) - 1e-9

    def test_active_blocks_reported(self):
        score = classify_scenario(attack.infiltration(10))
        # 2 grey sources × 4 blue destinations × 1 packet
        assert score.active_blocks == {("grey", "blue"): 8}

    def test_empty_matrix_scores_low(self):
        score = classify_scenario(TrafficMatrix.zeros(10))
        assert max(score.scores.values()) <= 0.0


class TestClassifierUnderNoise:
    def test_supernode_survives_light_noise(self):
        noisy = challenge(topologies.external_supernode(10), noise_density=0.05, seed=1)
        # light noise shifts exact structural classification; the supernode
        # itself must still be detectable by fan
        from repro.graphs.metrics import supernodes

        assert "EXT1" in supernodes(noisy)

    def test_scenario_block_signal_robust(self):
        noisy = challenge(attack.planning(10), noise_density=0.0, seed=1)
        assert classify_scenario(noisy).best == "planning"
