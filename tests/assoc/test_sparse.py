"""CSR kernels checked against dense NumPy and scipy.sparse references."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assoc.semiring import (
    LOR_LAND,
    LOR_MONOID,
    MAX_MONOID,
    MIN_PLUS,
    PLUS_MONOID,
    PLUS_PAIR,
    PLUS_TIMES,
    BinaryOp,
    Monoid,
)
from repro.assoc.sparse import CSRMatrix, coalesce
from repro.errors import SemiringError, SparseFormatError


def dense_strategy(max_n: int = 7, density_max: int = 3):
    return st.tuples(st.integers(1, max_n), st.integers(1, max_n), st.integers(0, 2**31)).map(
        lambda t: np.random.default_rng(t[2]).integers(0, density_max, size=(t[0], t[1]))
    )


class TestCoalesce:
    def test_sorts_row_major(self):
        r, c, v = coalesce(
            np.asarray([1, 0, 1]), np.asarray([0, 1, 2]), np.asarray([9, 8, 7]), (2, 3)
        )
        assert r.tolist() == [0, 1, 1]
        assert c.tolist() == [1, 0, 2]
        assert v.tolist() == [8, 9, 7]

    def test_merges_duplicates(self):
        r, c, v = coalesce(
            np.asarray([0, 0, 0]), np.asarray([1, 1, 1]), np.asarray([1, 2, 3]), (1, 2)
        )
        assert r.tolist() == [0] and c.tolist() == [1] and v.tolist() == [6]

    def test_merge_with_other_monoid(self):
        r, c, v = coalesce(
            np.asarray([0, 0]), np.asarray([0, 0]), np.asarray([5, 9]), (1, 1), MAX_MONOID
        )
        assert v.tolist() == [9]

    def test_out_of_bounds_rejected(self):
        with pytest.raises(SparseFormatError):
            coalesce(np.asarray([2]), np.asarray([0]), np.asarray([1]), (2, 2))

    def test_length_mismatch_rejected(self):
        with pytest.raises(SparseFormatError):
            coalesce(np.asarray([0]), np.asarray([0, 1]), np.asarray([1]), (2, 2))

    def test_empty_passthrough(self):
        r, c, v = coalesce(np.asarray([]), np.asarray([]), np.asarray([]), (3, 3))
        assert r.size == c.size == v.size == 0

    def test_duplicates_under_non_ufunc_monoid_raise_semiring_error(self):
        # the compress step calls the ufunc's reduceat directly; a plain
        # callable must still fail as a SemiringError, not an AttributeError
        bad = Monoid(BinaryOp("first", lambda x, y: x), lambda dt: 0)
        with pytest.raises(SemiringError, match="not ufunc-backed"):
            coalesce(np.asarray([0, 0]), np.asarray([1, 1]), np.asarray([1, 2]), (1, 2), bad)

    @pytest.mark.parametrize(
        "vals, add, want",
        [
            (np.asarray([True, True, False], dtype=bool), PLUS_MONOID, [True, False]),
            (np.asarray([100, 100, 7], dtype=np.int8), PLUS_MONOID, [-56, 7]),
            (np.asarray([0, 3, 0], dtype=np.int16), LOR_MONOID, [1, 0]),
        ],
        ids=["bool-plus", "int8-plus-wraps", "int16-lor"],
    )
    def test_merged_values_keep_the_input_dtype(self, vals, add, want):
        # ufunc.reduceat upcasts bools and small ints; coalesce must not
        r, c, v = coalesce(np.asarray([0, 0, 1]), np.asarray([0, 0, 0]), vals, (2, 1), add)
        assert v.dtype == vals.dtype
        assert v.tolist() == want


class TestConstruction:
    def test_from_dense_round_trip(self, rng):
        dense = rng.integers(0, 3, size=(6, 5))
        assert np.array_equal(CSRMatrix.from_dense(dense).to_dense(), dense)

    def test_from_dense_custom_zero(self):
        dense = np.asarray([[np.inf, 1.0], [2.0, np.inf]])
        m = CSRMatrix.from_dense(dense, zero=np.inf)
        assert m.nnz == 2
        assert np.array_equal(m.to_dense(np.inf), dense)

    def test_empty(self):
        m = CSRMatrix.empty((3, 4))
        assert m.nnz == 0 and m.shape == (3, 4)
        assert m.to_dense().sum() == 0

    def test_identity(self):
        eye = CSRMatrix.identity(4)
        assert np.array_equal(eye.to_dense(), np.eye(4, dtype=np.int64))

    def test_validation_rejects_bad_indptr(self):
        with pytest.raises(SparseFormatError):
            CSRMatrix((2, 2), np.asarray([0, 1]), np.asarray([0]), np.asarray([1]))

    def test_validation_rejects_unsorted_rows(self):
        with pytest.raises(SparseFormatError):
            CSRMatrix(
                (1, 3), np.asarray([0, 2]), np.asarray([2, 0]), np.asarray([1, 1])
            )

    def test_validation_rejects_duplicate_cols(self):
        with pytest.raises(SparseFormatError):
            CSRMatrix(
                (1, 3), np.asarray([0, 2]), np.asarray([1, 1]), np.asarray([1, 1])
            )

    def test_validation_single_entry_after_empty_rows(self):
        # nnz == 1 with leading empty rows: the row-start exemption used to
        # wrap index -1 into a size-0 gap array and crash.
        m = CSRMatrix(
            (3, 3), np.asarray([0, 0, 1, 1]), np.asarray([2]), np.asarray([7])
        )
        assert m.nnz == 1
        assert m.to_dense()[1, 2] == 7

    def test_validation_leading_empty_row_still_checks_last_gap(self):
        # A row starting at index 0 must not exempt the *last* adjacent pair
        # from the sorted-within-row check.
        with pytest.raises(SparseFormatError):
            CSRMatrix(
                (2, 3),
                np.asarray([0, 0, 3]),
                np.asarray([0, 2, 1]),
                np.asarray([1, 1, 1]),
            )

    def test_triples_canonical(self, rng):
        dense = rng.integers(0, 2, size=(5, 5))
        m = CSRMatrix.from_dense(dense)
        r, c, v = m.triples()
        keys = r * 5 + c
        assert np.all(np.diff(keys) > 0)


class TestStructuralOps:
    def test_transpose_matches_numpy(self, rng):
        dense = rng.integers(0, 3, size=(4, 6))
        assert np.array_equal(CSRMatrix.from_dense(dense).T.to_dense(), dense.T)

    def test_prune_drops_explicit_zeros(self):
        m = CSRMatrix((1, 2), np.asarray([0, 2]), np.asarray([0, 1]), np.asarray([0, 5]))
        assert m.nnz == 2
        assert m.prune().nnz == 1

    def test_extract_selects_and_reorders(self, rng):
        dense = rng.integers(0, 4, size=(6, 6))
        m = CSRMatrix.from_dense(dense)
        rows = np.asarray([4, 0, 2])
        cols = np.asarray([5, 1])
        assert np.array_equal(m.extract(rows, cols).to_dense(), dense[np.ix_(rows, cols)])

    def test_extract_with_repetition(self, rng):
        dense = rng.integers(0, 4, size=(3, 3))
        m = CSRMatrix.from_dense(dense)
        rows = np.asarray([1, 1])
        cols = np.asarray([0, 1, 2])
        assert np.array_equal(m.extract(rows, cols).to_dense(), dense[np.ix_(rows, cols)])

    def test_kron_matches_numpy(self, rng):
        a = rng.integers(0, 3, size=(2, 3))
        b = rng.integers(0, 3, size=(3, 2))
        got = CSRMatrix.from_dense(a).kron(CSRMatrix.from_dense(b)).to_dense()
        assert np.array_equal(got, np.kron(a, b))


class TestElementwise:
    def test_union_adds(self, rng):
        a = rng.integers(0, 3, size=(5, 5))
        b = rng.integers(0, 3, size=(5, 5))
        got = CSRMatrix.from_dense(a).ewise_union(CSRMatrix.from_dense(b)).to_dense()
        assert np.array_equal(got, a + b)

    def test_intersect_multiplies(self, rng):
        a = rng.integers(0, 3, size=(5, 5))
        b = rng.integers(0, 3, size=(5, 5))
        got = (
            CSRMatrix.from_dense(a)
            .ewise_intersect(CSRMatrix.from_dense(b), PLUS_TIMES.mult)
            .to_dense()
        )
        assert np.array_equal(got, a * b)

    def test_shape_mismatch(self):
        with pytest.raises(SparseFormatError):
            CSRMatrix.empty((2, 2)).ewise_union(CSRMatrix.empty((3, 3)))


class TestSemiringKernels:
    def test_mxv_plus_times(self, rng):
        dense = rng.integers(0, 4, size=(6, 5))
        x = rng.integers(0, 4, size=5)
        assert np.array_equal(CSRMatrix.from_dense(dense).mxv(x), dense @ x)

    def test_mxv_empty_rows_get_identity(self):
        m = CSRMatrix.empty((3, 3))
        assert m.mxv(np.ones(3, dtype=np.int64)).tolist() == [0, 0, 0]

    def test_vxm(self, rng):
        dense = rng.integers(0, 4, size=(5, 6))
        x = rng.integers(0, 4, size=5)
        assert np.array_equal(CSRMatrix.from_dense(dense).vxm(x), x @ dense)

    def test_mxm_plus_times_matches_numpy(self, rng):
        a = rng.integers(0, 3, size=(5, 7))
        b = rng.integers(0, 3, size=(7, 4))
        got = CSRMatrix.from_dense(a).mxm(CSRMatrix.from_dense(b)).to_dense()
        assert np.array_equal(got, a @ b)

    def test_mxm_dimension_mismatch(self):
        with pytest.raises(SparseFormatError):
            CSRMatrix.empty((2, 3)).mxm(CSRMatrix.empty((4, 2)))

    def test_mxm_min_plus_two_hop_distances(self):
        inf = np.inf
        w = np.asarray([[inf, 1.0, inf], [inf, inf, 2.0], [inf, inf, inf]])
        m = CSRMatrix.from_dense(w, zero=inf)
        d2 = m.mxm(m, MIN_PLUS).to_dense(inf)
        assert d2[0, 2] == 3.0
        assert np.isinf(d2[1, 0])

    def test_mxm_lor_land_reachability(self):
        adj = np.asarray([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=bool)
        m = CSRMatrix.from_dense(adj, zero=False)
        two = m.mxm(m, LOR_LAND).to_dense(False)
        assert two[0, 2] and not two[0, 1]

    def test_mxm_plus_pair_counts_common_neighbours(self):
        adj = np.asarray([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        m = CSRMatrix.from_dense(adj)
        counts = m.mxm(m.T, PLUS_PAIR).to_dense()
        # triangle graph: every pair of distinct vertices shares exactly 1 neighbour
        assert counts[0, 1] == 1 and counts[0, 0] == 2

    def test_mxm_prunes_semiring_zeros(self):
        a = CSRMatrix.from_dense(np.asarray([[1, -1]]))
        b = CSRMatrix.from_dense(np.asarray([[1], [1]]))
        out = a.mxm(b)
        assert out.nnz == 0  # 1 + (-1) == plus.times zero

    def test_reduce_rows_cols(self, rng):
        dense = rng.integers(0, 4, size=(4, 6))
        m = CSRMatrix.from_dense(dense)
        assert np.array_equal(m.reduce_rows(), dense.sum(axis=1))
        assert np.array_equal(m.reduce_cols(), dense.sum(axis=0))

    def test_reduce_scalar(self, rng):
        dense = rng.integers(0, 4, size=(4, 4))
        assert CSRMatrix.from_dense(dense).reduce_scalar() == dense.sum()

    def test_reduce_scalar_empty(self):
        assert CSRMatrix.empty((2, 2)).reduce_scalar() == 0


class TestScipyInterop:
    def test_round_trip(self, rng):
        dense = rng.integers(0, 3, size=(6, 6))
        ours = CSRMatrix.from_dense(dense)
        back = CSRMatrix.from_scipy(ours.to_scipy())
        assert back == ours

    def test_from_scipy_coo(self, rng):
        dense = rng.integers(0, 3, size=(5, 5))
        m = CSRMatrix.from_scipy(sp.coo_matrix(dense))
        assert np.array_equal(m.to_dense(), dense)


class TestMxmProperty:
    @given(dense_strategy(), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_mxm_against_numpy(self, a, seed):
        k = a.shape[1]
        b = np.random.default_rng(seed).integers(0, 3, size=(k, 4))
        got = CSRMatrix.from_dense(a).mxm(CSRMatrix.from_dense(b)).to_dense()
        assert np.array_equal(got, a @ b)

    @given(dense_strategy())
    @settings(max_examples=40, deadline=None)
    def test_transpose_involution(self, a):
        m = CSRMatrix.from_dense(a)
        assert m.T.T == m

    @given(dense_strategy())
    @settings(max_examples=40, deadline=None)
    def test_union_with_empty_is_identity(self, a):
        m = CSRMatrix.from_dense(a)
        empty = CSRMatrix.empty(m.shape, dtype=m.dtype)
        assert np.array_equal(m.ewise_union(empty).to_dense(), m.to_dense())

    @given(dense_strategy())
    @settings(max_examples=40, deadline=None)
    def test_mxm_identity(self, a):
        m = CSRMatrix.from_dense(a)
        eye = CSRMatrix.identity(a.shape[1])
        assert np.array_equal(m.mxm(eye).to_dense(), m.prune().to_dense())
