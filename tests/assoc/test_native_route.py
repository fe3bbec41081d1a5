"""The native int64 ``plus.times`` route: scipy's SpGEMM must equal ESC bit for bit.

Serial int64 ``plus.times`` products (``mxm`` and the fused masked ``mxm``)
run through scipy when it imports; ESC stays the exact reference.  These
properties pin the two routes together on the cases where they could part:
rectangular shapes, empty rows and columns, explicitly stored zeros, values
that wrap at the int64 edge (including products and sums that wrap to exactly
0, which both routes must drop), and empty, full and single-row masks.  The
``assoc.route.*`` counters show which route ran.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assoc.expr import lazy
from repro.assoc.semiring import MIN_PLUS, PLUS_PAIR, PLUS_TIMES
from repro.assoc.sparse import CSRMatrix, _masked_mxm_serial
from repro.obs import metrics
from repro.runtime import backends

needs_scipy = pytest.mark.skipif(not backends.has_scipy(), reason="scipy not installed")

EDGE = 2**63 - 1
#: Small values, stored zeros, and values whose products or sums wrap:
#: 2**32 * 2**32 and 2**62 * 4 wrap to exactly 0, -2**63 + -2**63 sums to 0.
VALUES = st.sampled_from(
    [0, 1, 2, 3, -1, -7, 4, 2**31, 2**32, -(2**32), 2**62, -(2**62), EDGE, -EDGE - 1]
)
DIMS = st.integers(min_value=1, max_value=7)


def identical(x: CSRMatrix, y: CSRMatrix) -> bool:
    return (
        x.shape == y.shape
        and x.dtype == y.dtype
        and np.array_equal(x.indptr, y.indptr)
        and np.array_equal(x.indices, y.indices)
        and np.array_equal(x.data, y.data)
    )


@st.composite
def int64_csr(draw, n_rows: int, n_cols: int) -> CSRMatrix:
    """An int64 CSR whose stored values may be zero or near the int64 edge."""
    cells = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_rows - 1), st.integers(0, n_cols - 1), VALUES
            ),
            max_size=n_rows * n_cols,
            unique_by=lambda t: (t[0], t[1]),
        )
    )
    rows = np.array([r for r, _, _ in cells], dtype=np.int64)
    cols = np.array([c for _, c, _ in cells], dtype=np.int64)
    vals = np.array([v for _, _, v in cells], dtype=np.int64)
    return CSRMatrix.from_triples(rows, cols, vals, (n_rows, n_cols))


@st.composite
def operands(draw) -> tuple[CSRMatrix, CSRMatrix]:
    m, k, n = draw(DIMS), draw(DIMS), draw(DIMS)
    return draw(int64_csr(m, k)), draw(int64_csr(k, n))


@st.composite
def masks(draw, n_rows: int, n_cols: int) -> CSRMatrix:
    kind = draw(st.sampled_from(["empty", "full", "single_row", "random"]))
    allow = np.zeros((n_rows, n_cols), dtype=bool)
    if kind == "full":
        allow[:] = True
    elif kind == "single_row":
        allow[draw(st.integers(0, n_rows - 1))] = True
    elif kind == "random":
        bits = draw(st.lists(st.booleans(), min_size=allow.size, max_size=allow.size))
        allow = np.asarray(bits, dtype=bool).reshape(n_rows, n_cols)
    return CSRMatrix.from_dense(allow)


@st.composite
def masked_operands(draw) -> tuple[tuple[CSRMatrix, CSRMatrix], CSRMatrix]:
    a, b = draw(operands())
    return (a, b), draw(masks(a.shape[0], b.shape[1]))


def route_counts() -> tuple[int, int]:
    return (
        metrics.counter("assoc.route.native").value,
        metrics.counter("assoc.route.esc").value,
    )


def runs_a_kernel(a: CSRMatrix, b: CSRMatrix) -> bool:
    """Whether ``a @ b`` expands any term (empty expansions return early)."""
    return a.nnz > 0 and b.nnz > 0 and int(b.row_nnz()[a.indices].sum()) > 0


@needs_scipy
class TestNativeEqualsESC:
    @settings(max_examples=150, deadline=None)
    @given(operands())
    def test_mxm(self, ab):
        a, b = ab
        native0, esc0 = route_counts()
        got = a.mxm(b, PLUS_TIMES)
        assert identical(got, a._mxm_serial(b, PLUS_TIMES))
        assert route_counts() == (native0 + runs_a_kernel(a, b), esc0)

    @settings(max_examples=150, deadline=None)
    @given(masked_operands())
    def test_masked_mxm(self, case):
        (a, b), mask = case
        native0, esc0 = route_counts()
        got = lazy(a).mxm(b, PLUS_TIMES).new(mask=mask)
        assert identical(got, _masked_mxm_serial(a, b, PLUS_TIMES, mask))
        assert route_counts() == (native0 + 1, esc0)
        assert not lazy(a).mxm(b, PLUS_TIMES).plan(mask=mask).materializes_unmasked

    @settings(max_examples=60, deadline=None)
    @given(masked_operands(), st.data())
    def test_a_reused_mask_builds_its_pattern_once(self, case, data):
        (a, b), mask = case
        b2 = data.draw(int64_csr(*b.shape))
        first = lazy(a).mxm(b, PLUS_TIMES).new(mask=mask)
        pattern = mask._ones_cache
        assert pattern is not None
        second = lazy(a).mxm(b2, PLUS_TIMES).new(mask=mask)
        assert mask._ones_cache is pattern
        assert identical(first, _masked_mxm_serial(a, b, PLUS_TIMES, mask))
        assert identical(second, _masked_mxm_serial(a, b2, PLUS_TIMES, mask))

    def test_pickled_mask_drops_its_pattern(self):
        import pickle

        a = CSRMatrix.from_dense(np.array([[1, 2], [3, 4]], dtype=np.int64))
        mask = CSRMatrix.from_dense(np.eye(2, dtype=bool))
        lazy(a).mxm(a, PLUS_TIMES).new(mask=mask)
        assert mask._ones_cache is not None
        clone = pickle.loads(pickle.dumps(mask))
        assert clone == mask and clone._ones_cache is None

    def test_product_wrapping_to_zero_is_dropped(self):
        a = CSRMatrix.from_dense(np.array([[2**32, 1], [2**62, 0]], dtype=np.int64))
        b = CSRMatrix.from_dense(np.array([[2**32, 0], [0, 5]], dtype=np.int64))
        got = a.mxm(b, PLUS_TIMES)
        assert identical(got, a._mxm_serial(b, PLUS_TIMES))
        assert got.to_dense(0).tolist() == [[0, 5], [0, 0]]
        assert got.nnz == 1

    def test_sum_wrapping_to_zero_is_dropped(self):
        low = -(2**63)
        a = CSRMatrix.from_dense(np.array([[low, low], [EDGE, 1]], dtype=np.int64))
        b = CSRMatrix.from_dense(np.array([[1], [1]], dtype=np.int64))
        full = CSRMatrix.from_dense(np.ones((2, 1), dtype=bool))
        for got, ref in (
            (a.mxm(b, PLUS_TIMES), a._mxm_serial(b, PLUS_TIMES)),
            (
                lazy(a).mxm(b, PLUS_TIMES).new(mask=full),
                _masked_mxm_serial(a, b, PLUS_TIMES, full),
            ),
        ):
            assert identical(got, ref)
            # row 0 wraps to 0 and is dropped; row 1 wraps to int64 min
            assert got.indptr.tolist() == [0, 0, 1]
            assert got.data.tolist() == [low]


class TestRouteSelection:
    A = CSRMatrix.from_dense(np.array([[1, 2, 0], [0, 3, 4], [5, 0, 6]], dtype=np.int64))

    @pytest.mark.parametrize(
        "a, semiring",
        [
            (CSRMatrix.from_dense(A.to_dense(0).astype(np.float64)), PLUS_TIMES),
            (A, MIN_PLUS),
            (A, PLUS_PAIR),
        ],
        ids=["float64", "min.plus", "plus.pair"],
    )
    def test_other_products_stay_on_esc(self, a, semiring):
        mask = CSRMatrix.from_dense(np.eye(3, dtype=bool))
        native0, esc0 = route_counts()
        assert identical(a.mxm(a, semiring), a._mxm_serial(a, semiring))
        assert identical(
            lazy(a).mxm(a, semiring).new(mask=mask),
            _masked_mxm_serial(a, a, semiring, mask),
        )
        assert route_counts() == (native0, esc0 + 2)

    @settings(max_examples=40, deadline=None)
    @given(masked_operands())
    def test_without_scipy_falls_back_to_esc(self, case):
        (a, b), mask = case
        ref = a._mxm_serial(b, PLUS_TIMES)
        ref_masked = _masked_mxm_serial(a, b, PLUS_TIMES, mask)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(backends, "has_scipy", lambda: False)
            native0, esc0 = route_counts()
            got = a.mxm(b, PLUS_TIMES)
            got_masked = lazy(a).mxm(b, PLUS_TIMES).new(mask=mask)
            assert route_counts() == (native0, esc0 + runs_a_kernel(a, b) + 1)
        assert identical(got, ref)
        assert identical(got_masked, ref_masked)
