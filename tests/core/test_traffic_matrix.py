"""TrafficMatrix: construction, access, algebra, conversions, properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.labels import TEMPLATE_LABELS_10
from repro.core.spaces import NetworkSpace
from repro.core.traffic_matrix import MAX_DISPLAY_PACKETS, TrafficMatrix
from repro.errors import ColorError, LabelError, ShapeError, TrafficMatrixError


def small_matrices():
    """Hypothesis strategy: small random traffic matrices."""
    return st.integers(2, 8).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 14), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        ).map(lambda rows: TrafficMatrix(np.asarray(rows)))
    )


class TestConstruction:
    def test_zeros(self):
        tm = TrafficMatrix.zeros(10)
        assert tm.n == 10 and tm.nnz() == 0
        assert tm.labels == TEMPLATE_LABELS_10

    def test_identity(self):
        tm = TrafficMatrix.identity(4, packets=3)
        assert tm.total_packets() == 12
        assert tm[0, 0] == 3 and tm[0, 1] == 0

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            TrafficMatrix(np.zeros((2, 3), dtype=int))

    def test_rejects_negative(self):
        with pytest.raises(TrafficMatrixError, match="negative"):
            TrafficMatrix([[0, -1], [0, 0]])

    def test_rejects_fractional(self):
        with pytest.raises(TrafficMatrixError, match="integer"):
            TrafficMatrix([[0.5, 0], [0, 0]])

    def test_accepts_integral_floats(self):
        tm = TrafficMatrix([[1.0, 0.0], [0.0, 2.0]])
        assert tm[1, 1] == 2

    def test_rejects_wrong_label_count(self):
        with pytest.raises(LabelError):
            TrafficMatrix(np.zeros((3, 3), dtype=int), labels=["A", "B"])

    def test_rejects_wrong_color_shape(self):
        with pytest.raises(ShapeError):
            TrafficMatrix(np.zeros((3, 3), dtype=int), colors=np.zeros((2, 2), dtype=int))

    def test_from_edges_accumulates(self):
        tm = TrafficMatrix.from_edges(
            [("WS1", "ADV1", 1), ("WS1", "ADV1", 2), (1, 0, 5)],
            labels=["WS1", "ADV1"],
        )
        assert tm["WS1", "ADV1"] == 3  # repeated edges accumulate
        assert tm["ADV1", "WS1"] == 5  # integer indexing addresses the same axes

    def test_from_edges_out_of_range(self):
        with pytest.raises(ShapeError):
            TrafficMatrix.from_edges([(0, 5, 1)], labels=["A", "B"])

    def test_input_not_aliased(self):
        arr = np.zeros((2, 2), dtype=np.int64)
        tm = TrafficMatrix(arr)
        arr[0, 0] = 99
        assert tm[0, 0] == 0


class TestAccess:
    def test_get_set_by_label(self, tpl10):
        m = tpl10.matrix
        assert m["WS1", "ADV4"] == 2
        assert m["WS1", "WS1"] == 1

    def test_get_by_mixed_index(self, tpl10):
        assert tpl10.matrix[0, "ADV4"] == 2

    def test_negative_index_wraps(self, tpl10):
        assert tpl10.matrix[-10, -1] == 2  # WS1 -> ADV4

    def test_out_of_range_raises(self, tpl10):
        with pytest.raises(ShapeError):
            tpl10.matrix[11, 0]

    def test_unknown_label_raises(self, tpl10):
        with pytest.raises(LabelError):
            tpl10.matrix["NOPE", 0]

    def test_item_assignment_is_refused(self):
        tm = TrafficMatrix.zeros(3)
        with pytest.raises(TypeError):
            tm[0, 1] = 1

    def test_color_of(self):
        tm = TrafficMatrix.zeros(3).with_colors([[0, 2, 0], [0, 0, 0], [0, 0, 0]])
        assert int(tm.color_of(0, 1)) == 2
        assert int(tm.color_of("N1", "N2")) == 2

    def test_bad_color_rejected(self):
        with pytest.raises(ColorError):
            TrafficMatrix.zeros(3).with_colors([[5, 0, 0], [0, 0, 0], [0, 0, 0]])

    def test_grids_are_read_only(self, tpl10):
        with pytest.raises(ValueError):
            tpl10.matrix.packets[0, 0] = 9
        with pytest.raises(ValueError):
            tpl10.matrix.colors[0, 0] = 2


class TestStats:
    def test_template_stats(self, tpl10):
        m = tpl10.matrix
        assert m.nnz() == 20
        assert m.total_packets() == 30
        assert m.density() == pytest.approx(0.2)
        assert m.max_packets() == 2

    def test_degrees(self, tpl10):
        m = tpl10.matrix
        assert m.out_degrees().tolist() == [3] * 10
        assert m.in_degrees().tolist() == [3] * 10
        assert m.out_fan().tolist() == [2] * 10

    def test_display_limit_reporting(self):
        tm = TrafficMatrix.from_edges(
            [(0, 1, MAX_DISPLAY_PACKETS), (1, 2, MAX_DISPLAY_PACKETS - 1)],
            labels=["N1", "N2", "N3"],
        )
        over = tm.cells_over_display_limit()
        assert over == [("N1", "N2", MAX_DISPLAY_PACKETS)]

    def test_iter_edges_labels(self, tpl6):
        edges = list(tpl6.matrix.iter_edges())
        assert ("WS1", "ADV2", 2) in edges
        assert all(w > 0 for *_e, w in edges)

    def test_space_traffic_blocks(self, tpl10):
        blocks = tpl10.matrix.space_traffic()
        # template: blue diag(4×1) + blue->red antidiag(4×2)
        assert blocks[(NetworkSpace.BLUE, NetworkSpace.BLUE)] == 4
        assert blocks[(NetworkSpace.BLUE, NetworkSpace.RED)] == 8
        assert sum(blocks.values()) == tpl10.matrix.total_packets()


class TestAlgebra:
    def test_add_overlays_packets_and_colors(self):
        a = TrafficMatrix([[1, 0], [0, 0]], colors=[[1, 0], [0, 0]])
        b = TrafficMatrix([[2, 1], [0, 0]], colors=[[0, 2], [0, 0]])
        c = a + b
        assert c[0, 0] == 3 and c[0, 1] == 1
        assert int(c.color_of(0, 0)) == 1  # blue survives grey
        assert int(c.color_of(0, 1)) == 2  # red wins

    def test_add_requires_same_labels(self):
        a = TrafficMatrix.zeros(2, labels=["A", "B"])
        b = TrafficMatrix.zeros(2, labels=["A", "C"])
        with pytest.raises(LabelError):
            a + b

    def test_add_requires_same_size(self):
        with pytest.raises(ShapeError):
            TrafficMatrix.zeros(2) + TrafficMatrix.zeros(3)

    def test_scalar_multiply(self):
        tm = TrafficMatrix([[1, 2], [0, 3]])
        assert (2 * tm).total_packets() == 12

    def test_scalar_multiply_negative_rejected(self):
        with pytest.raises(TrafficMatrixError):
            TrafficMatrix.zeros(2) * -1

    def test_transpose_reverses_flows(self, tpl10):
        t = tpl10.matrix.T
        assert t["ADV4", "WS1"] == 2
        assert t.T == tpl10.matrix

    def test_submatrix_by_labels(self, tpl10):
        sub = tpl10.matrix.submatrix(["WS1", "ADV4"])
        assert sub.labels == ("WS1", "ADV4")
        assert sub["WS1", "ADV4"] == 2
        assert sub.n == 2

    def test_with_space_colors(self):
        tm = TrafficMatrix.zeros(10)
        colored = tm.with_space_colors()
        assert int(colored.color_of("WS1", "WS2")) == 1
        assert int(colored.color_of("ADV1", "WS1")) == 2


class TestConversions:
    def test_json_fields_round_trip(self, tpl10):
        fields = tpl10.matrix.to_json_fields()
        back = TrafficMatrix.from_json_fields(
            fields["traffic_matrix"], fields["axis_labels"], fields["traffic_matrix_colors"]
        )
        assert back == tpl10.matrix

    def test_to_assoc_preserves_totals(self, tpl10):
        a = tpl10.matrix.to_assoc()
        assert a.sum() == tpl10.matrix.total_packets()
        assert a["WS1", "ADV4"] == 2

    def test_to_networkx(self, tpl10):
        g = tpl10.matrix.to_networkx()
        assert g.number_of_nodes() == 10
        assert g.number_of_edges() == tpl10.matrix.nnz()
        assert g["WS1"]["ADV4"]["weight"] == 2

    def test_to_text_contains_labels(self, tpl10):
        text = tpl10.matrix.to_text()
        assert "WS1" in text and "ADV4" in text

    def test_to_text_color_suffixes(self, tpl10):
        text = tpl10.matrix.to_text(show_colors=True)
        assert "2r" in text  # red-annotated anti-diagonal entries


class TestEquality:
    def test_equal_matrices(self, tpl10):
        fields = tpl10.matrix.to_json_fields()
        rebuilt = TrafficMatrix.from_json_fields(
            fields["traffic_matrix"], fields["axis_labels"], fields["traffic_matrix_colors"]
        )
        assert tpl10.matrix == rebuilt

    def test_different_colors_not_equal(self, tpl10):
        colors = np.array(tpl10.matrix.colors)
        colors[0, 0] = 2
        assert tpl10.matrix != tpl10.matrix.with_colors(colors)

    def test_not_equal_to_other_types(self, tpl10):
        assert tpl10.matrix != "matrix"


class TestProperties:
    @given(small_matrices())
    @settings(max_examples=50, deadline=None)
    def test_transpose_involution(self, tm):
        assert tm.T.T == tm

    @given(small_matrices())
    @settings(max_examples=50, deadline=None)
    def test_add_commutes(self, tm):
        other = tm.T
        assert (tm + other) == (other + tm)

    @given(small_matrices())
    @settings(max_examples=50, deadline=None)
    def test_total_equals_degree_sums(self, tm):
        assert tm.total_packets() == int(tm.out_degrees().sum())
        assert tm.total_packets() == int(tm.in_degrees().sum())

    @given(small_matrices())
    @settings(max_examples=50, deadline=None)
    def test_assoc_round_trip_total(self, tm):
        assert tm.to_assoc().sum() == tm.total_packets()

    @given(small_matrices())
    @settings(max_examples=50, deadline=None)
    def test_space_traffic_partitions_total(self, tm):
        assert sum(tm.space_traffic().values()) == tm.total_packets()
