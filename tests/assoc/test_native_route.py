"""The native ``plus.times`` route: scipy's SpGEMM must equal ESC bit for bit.

Serial int64 and float64 ``plus.times`` products (``mxm`` and the fused
masked ``mxm``) run through scipy when it imports; ESC stays the exact
reference.  These properties pin the routes together on the cases where they
could part: rectangular shapes, empty rows and columns, explicitly stored
zeros, int64 values that wrap at the edge (including products and sums that
wrap to exactly 0, which both routes must drop), float64 signed zeros,
infinities, NaN, cancellation and 1e±300 magnitudes, and empty, full and
single-row masks.  Float64 sums add
each entry's terms left to right in ascending ``k`` on every route, so ESC,
the row-blocked engine and the native route agree to the bit; NaN payloads
are not part of that contract, NaN positions are.  The ``assoc.route.*``
counters show which route ran.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.assoc import sparse
from repro.assoc.blocked import parallel_coalesce, parallel_masked_mxm, parallel_mxm
from repro.assoc.expr import lazy
from repro.assoc.semiring import MIN_PLUS, PLUS_MONOID, PLUS_PAIR, PLUS_TIMES
from repro.assoc.sparse import (
    CSRMatrix,
    _masked_mxm_serial,
    _native_masked_mxm,
    _native_mxm,
)
from repro.obs import metrics
from repro.runtime import RuntimeConfig, backends

needs_scipy = pytest.mark.skipif(not backends.has_scipy(), reason="scipy not installed")

EDGE = 2**63 - 1
#: Small values, stored zeros, and values whose products or sums wrap:
#: 2**32 * 2**32 and 2**62 * 4 wrap to exactly 0, -2**63 + -2**63 sums to 0.
VALUES = st.sampled_from(
    [0, 1, 2, 3, -1, -7, 4, 2**31, 2**32, -(2**32), 2**62, -(2**62), EDGE, -EDGE - 1]
)
#: Float64 values where a summation order shows: signed zeros, infinities,
#: NaN, exact cancellation (x and -x), and magnitudes whose products
#: overflow to inf (1e300 * 1e300) or underflow to 0 (1e-300 * 1e-300).
FLOATS = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 1.0, -1.0, 0.1, -0.1, 3.0, np.inf, -np.inf, np.nan,
         1e300, -1e300, 1e-300, -1e-300, 2.0**53, 1.0 + 2.0**-52]
    ),
    st.floats(min_value=-1e20, max_value=1e20, allow_nan=False),
)
DIMS = st.integers(min_value=1, max_value=7)
#: Inner dimensions long enough for runs of many terms, where any sum order
#: other than left to right (numpy's ``add.reduceat`` among them) shows.
INNER = st.integers(min_value=1, max_value=24)
BLOCKED = RuntimeConfig(workers=1, backend="serial", block_rows=2)


def identical(x: CSRMatrix, y: CSRMatrix) -> bool:
    return (
        x.shape == y.shape
        and x.dtype == y.dtype
        and np.array_equal(x.indptr, y.indptr)
        and np.array_equal(x.indices, y.indices)
        and np.array_equal(x.data, y.data)
    )


def same_bits(x: CSRMatrix, y: CSRMatrix) -> bool:
    """Float64 bit-identity up to NaN payloads: same pattern, same NaN
    positions, and the same bits everywhere else (so -0.0 != 0.0)."""
    if not (
        x.shape == y.shape
        and x.dtype == y.dtype == np.float64
        and np.array_equal(x.indptr, y.indptr)
        and np.array_equal(x.indices, y.indices)
    ):
        return False
    nan = np.isnan(x.data)
    return np.array_equal(nan, np.isnan(y.data)) and np.array_equal(
        x.data[~nan].view(np.int64), y.data[~nan].view(np.int64)
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
def float64_csr(draw, n_rows: int, n_cols: int) -> CSRMatrix:
    """A float64 CSR about half full, whose stored values may be ±0, ±inf,
    NaN or 1e±300: dense enough that product terms form long runs."""
    size = n_rows * n_cols
    present = np.asarray(draw(st.lists(st.booleans(), min_size=size, max_size=size)), dtype=bool)
    vals = draw(st.lists(FLOATS, min_size=int(present.sum()), max_size=int(present.sum())))
    rows, cols = np.divmod(np.flatnonzero(present), n_cols)
    return CSRMatrix.from_triples(rows, cols, np.array(vals, dtype=np.float64), (n_rows, n_cols))


@st.composite
def operands(draw, csr=int64_csr, inner=DIMS) -> tuple[CSRMatrix, CSRMatrix]:
    m, k, n = draw(DIMS), draw(inner), draw(DIMS)
    return draw(csr(m, k)), draw(csr(k, n))


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
def masked_operands(
    draw, csr=int64_csr, inner=DIMS
) -> tuple[tuple[CSRMatrix, CSRMatrix], CSRMatrix]:
    a, b = draw(operands(csr, inner))
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


@needs_scipy
class TestFloatRoutesAgree:
    """Routed (native), ESC and row-blocked float64 products give the same bits."""

    @settings(max_examples=200, deadline=None)
    @given(operands(float64_csr, INNER))
    def test_mxm(self, ab):
        a, b = ab
        with np.errstate(over="ignore", invalid="ignore"):
            esc = a._mxm_serial(b, PLUS_TIMES)
            assert same_bits(a.mxm(b, PLUS_TIMES), esc)
            assert same_bits(parallel_mxm(a, b, PLUS_TIMES, BLOCKED), esc)

    @settings(max_examples=200, deadline=None)
    @given(masked_operands(float64_csr, INNER))
    def test_masked_mxm(self, case):
        (a, b), mask = case
        with np.errstate(over="ignore", invalid="ignore"):
            esc = _masked_mxm_serial(a, b, PLUS_TIMES, mask)
            assert same_bits(lazy(a).mxm(b, PLUS_TIMES).new(mask=mask), esc)
            assert same_bits(parallel_masked_mxm(a, b, PLUS_TIMES, mask, BLOCKED), esc)

    def test_inf_outside_the_mask_does_not_leak(self):
        # 0 * inf is NaN, but it lands outside the mask and must vanish
        a = CSRMatrix.from_triples([0], [0], np.array([0.0]), (1, 1))
        b = CSRMatrix.from_dense(np.array([[np.inf, 2.0]]))
        mask = CSRMatrix.from_dense(np.array([[False, True]]))
        with np.errstate(invalid="ignore"):
            esc = _masked_mxm_serial(a, b, PLUS_TIMES, mask)
            assert same_bits(_native_masked_mxm(a, b, mask), esc)
        assert esc.nnz == 0

    def test_terms_add_left_to_right_in_ascending_k(self):
        # (1e16 + 1) + 1 rounds to 1e16 twice; 1e16 + (1 + 1) would not
        a = CSRMatrix.from_dense(np.array([[1e16, 1.0, 1.0]]))
        b = CSRMatrix.from_dense(np.ones((3, 1)))
        for got in (a._mxm_serial(b, PLUS_TIMES), _native_mxm(a, b)):
            assert got.data.tolist() == [1e16]

    def test_zero_sums_are_dropped_and_nan_kept(self):
        a = CSRMatrix.from_triples(
            [0, 0, 1, 1, 2, 2], [0, 1, 0, 1, 0, 1],
            np.array([1.0, -1.0, -0.0, -0.0, np.inf, -np.inf]), (3, 2),
        )
        b = CSRMatrix.from_dense(np.ones((2, 1)))
        esc = a._mxm_serial(b, PLUS_TIMES)
        assert same_bits(_native_mxm(a, b), esc)
        assert esc.indptr.tolist() == [0, 0, 0, 1] and np.isnan(esc.data[0])

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2), FLOATS), min_size=1, max_size=40)
    )
    @example([(1, 2, 1e16), (1, 2, 1.0), (0, 0, 0.5), (1, 2, 1.0)])  # reduceat: 1e16 + 2
    def test_coalesce_sums_each_run_like_a_python_loop(self, triples):
        rows, cols, vals = (np.array(x) for x in zip(*triples))
        vals = vals.astype(np.float64)
        expected = {}
        for r, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
            expected[r, c] = expected[r, c] + v if (r, c) in expected else v
        ref = np.array([expected[k] for k in sorted(expected)])
        got = sparse.coalesce(rows, cols, vals, (4, 3))[2]
        blocked = parallel_coalesce(rows, cols, vals, (4, 3), PLUS_MONOID, BLOCKED)[2]
        for out in (got, blocked):
            nan = np.isnan(ref)
            assert np.array_equal(np.isnan(out), nan)
            assert np.array_equal(out[~nan].view(np.int64), ref[~nan].view(np.int64))

    def test_a_run_of_negative_zeros_keeps_its_sign(self):
        # a duplicate-free coordinate keeps its -0.0, and a run's sum never
        # depends on whether other coordinates had duplicates
        rows = np.array([0, 0, 1, 2, 2])
        cols = np.zeros(5, dtype=np.int64)
        vals = np.array([-0.0, -0.0, -0.0, -0.0, 0.0])
        _, _, out = sparse.coalesce(rows, cols, vals, (3, 1))
        assert np.signbit(out).tolist() == [True, True, False]
        _, _, alone = sparse.coalesce(rows[2:3], cols[2:3], vals[2:3], (3, 1))
        assert np.signbit(alone).tolist() == [True]


class TestRouteSelection:
    A = CSRMatrix.from_dense(np.array([[1, 2, 0], [0, 3, 4], [5, 0, 6]], dtype=np.int64))

    @needs_scipy
    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_plus_times_routes_natively(self, dtype):
        a = CSRMatrix.from_dense(self.A.to_dense(0).astype(dtype))
        mask = CSRMatrix.from_dense(np.eye(3, dtype=bool))
        native0, esc0 = route_counts()
        assert identical(a.mxm(a, PLUS_TIMES), a._mxm_serial(a, PLUS_TIMES))
        assert identical(
            lazy(a).mxm(a, PLUS_TIMES).new(mask=mask), _masked_mxm_serial(a, a, PLUS_TIMES, mask)
        )
        assert route_counts() == (native0 + 2, esc0)

    @pytest.mark.parametrize(
        "a, b, semiring",
        [
            (A, A, MIN_PLUS),
            (A, A, PLUS_PAIR),
            (A, CSRMatrix.from_dense(A.to_dense(0).astype(np.float64)), PLUS_TIMES),
        ],
        ids=["min.plus", "plus.pair", "int64xfloat64"],
    )
    def test_other_products_stay_on_esc(self, a, b, semiring):
        mask = CSRMatrix.from_dense(np.eye(3, dtype=bool))
        native0, esc0 = route_counts()
        assert identical(a.mxm(b, semiring), a._mxm_serial(b, semiring))
        assert identical(
            lazy(a).mxm(b, semiring).new(mask=mask),
            _masked_mxm_serial(a, b, semiring, mask),
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
