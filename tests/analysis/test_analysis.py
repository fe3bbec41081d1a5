"""Anonymization, streaming windows, scaling-relation fits."""

import numpy as np
import pytest

from repro.analysis.anonymize import anonymize_assoc, anonymize_label, anonymize_matrix
from repro.analysis.stats import scaling_relation, synthetic_traffic
from repro.analysis.streaming import StreamAccumulator, window_stream
from repro.core.traffic_matrix import TrafficMatrix
from repro.graphs.classify import classify_graph_pattern
from repro.graphs.patterns import ring


class TestAnonymizeLabel:
    def test_deterministic(self):
        assert anonymize_label("WS1") == anonymize_label("WS1")

    def test_key_changes_pseudonym(self):
        assert anonymize_label("WS1", key="a") != anonymize_label("WS1", key="b")

    def test_valid_axis_label(self):
        from repro.core.labels import validate_labels

        validate_labels([anonymize_label("WS1")])

    def test_distinct_labels_distinct(self):
        labels = [f"N{k}" for k in range(100)]
        assert len({anonymize_label(lb) for lb in labels}) == 100


class TestAnonymizeMatrix:
    def test_pattern_preserved(self, tpl10):
        anon = anonymize_matrix(tpl10.matrix)
        assert np.array_equal(anon.packets, tpl10.matrix.packets)
        assert np.array_equal(anon.colors, tpl10.matrix.colors)
        assert anon.labels != tpl10.matrix.labels

    def test_extended_palette_survives(self):
        m = TrafficMatrix([[0, 1], [0, 0]], ["A", "B"], [[3, 4], [0, 0]], extended_colors=True)
        anon = anonymize_matrix(m)
        assert anon.extended_colors
        assert np.array_equal(anon.colors, m.colors)

    def test_classification_survives(self):
        anon = anonymize_matrix(ring(10))
        assert classify_graph_pattern(anon) == "ring"

    def test_joinable_across_matrices(self, tpl10):
        a = anonymize_matrix(tpl10.matrix, key="k")
        b = anonymize_matrix(tpl10.matrix, key="k")
        assert a.labels == b.labels


class TestAnonymizeAssoc:
    def test_totals_preserved(self, tpl10):
        arr = tpl10.matrix.to_assoc()
        anon = anonymize_assoc(arr)
        assert anon.sum() == arr.sum()
        assert anon.nnz == arr.nnz

    def test_keys_hashed(self, tpl10):
        anon = anonymize_assoc(tpl10.matrix.to_assoc())
        assert all(k.startswith("H") for k in anon.row_labels)


class TestStreamAccumulator:
    def test_window_closes_at_size(self):
        acc = StreamAccumulator(window_size=3)
        assert acc.push("a", "b") is None
        assert acc.push("a", "b") is None
        window = acc.push("c", "d")
        assert window is not None
        assert window["a", "b"] == 2 and window["c", "d"] == 1
        assert acc.pending() == 0 and acc.windows_completed == 1

    def test_flush_partial(self):
        acc = StreamAccumulator(window_size=100)
        acc.push("a", "b", 5)
        window = acc.flush()
        assert window.sum() == 5
        assert acc.flush() is None

    def test_bad_window_size(self):
        with pytest.raises(ValueError):
            StreamAccumulator(window_size=0)


class TestWindowStream:
    def test_window_count_includes_tail(self):
        events = [("a", "b", 1)] * 10
        windows = list(window_stream(events, window_size=4))
        assert len(windows) == 3
        assert windows[-1][1].events == 2

    def test_stats_fields(self):
        events = [("s1", "d1", 2), ("s1", "d2", 1), ("s2", "d1", 1)]
        [(array, stats)] = list(window_stream(events, window_size=10))
        assert stats.total_packets == 4
        assert stats.unique_links == 3
        assert stats.unique_sources == 2
        assert stats.unique_destinations == 2
        assert stats.max_source_packets == 3

    def test_empty_stream(self):
        assert list(window_stream([], window_size=4)) == []


class TestSyntheticTraffic:
    def test_deterministic(self):
        assert synthetic_traffic(n_events=50, seed=1) == synthetic_traffic(n_events=50, seed=1)

    def test_heavy_tail_concentrates(self):
        heavy = synthetic_traffic(n_events=3000, n_endpoints=100, heavy_tail=True, seed=2)
        uniform = synthetic_traffic(n_events=3000, n_endpoints=100, heavy_tail=False, seed=2)

        def top_share(events):
            from collections import Counter

            counts = Counter(src for src, _d, _p in events)
            return counts.most_common(1)[0][1] / len(events)

        assert top_share(heavy) > 3 * top_share(uniform)


class TestScalingRelation:
    def test_sublinear_links_for_heavy_tail(self):
        events = synthetic_traffic(n_events=6000, n_endpoints=200, heavy_tail=True, seed=0)
        fit = scaling_relation(
            events,
            lambda s: s.unique_links,
            quantity_name="links",
            window_sizes=(64, 128, 256, 512),
        )
        assert 0.5 < fit.slope < 1.0  # distinct links grow sublinearly
        assert fit.r_squared > 0.9
        assert fit.quantity == "links"

    def test_sources_more_sublinear_than_links(self):
        events = synthetic_traffic(n_events=6000, n_endpoints=200, heavy_tail=True, seed=0)
        links = scaling_relation(
            events, lambda s: s.unique_links, window_sizes=(64, 128, 256, 512)
        )
        sources = scaling_relation(
            events, lambda s: s.unique_sources, window_sizes=(64, 128, 256, 512)
        )
        assert sources.slope < links.slope

    def test_needs_two_sizes(self):
        events = synthetic_traffic(n_events=100, seed=0)
        with pytest.raises(ValueError):
            scaling_relation(events, lambda s: s.unique_links, window_sizes=(1024,))
