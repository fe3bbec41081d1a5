"""Vectorized sparse kernels (COO build, CSR compute) generic over semirings.

These kernels follow the optimization guidance for numerical Python: build in
COO (cheap concatenation), compute in CSR (contiguous row segments), and keep
every hot path inside NumPy — fancy indexing, ``np.repeat`` expansion,
``lexsort`` and ``ufunc.reduceat`` — with no per-element Python loops.

The matrix product uses the classic **ESC** (expand, sort, compress) sparse
GEMM: every product term ``mult(A(i,k), B(k,j))`` is materialised by a single
``np.repeat`` gather, then duplicates are combined with the additive monoid's
``reduceat``.  This is the same dataflow GraphBLAS implementations use, which
keeps the semiring generic: ``min.plus`` shortest paths and ``plus.times``
packet counting share the code path.  Float64 ``plus`` is the one exception:
its runs are summed left to right from 0.0, in ascending inner index ``k``
for a product, on every route (see :func:`_float_run_sums`).

When the process opts in via :func:`repro.runtime.configure`, the heavy
kernels run on the row-blocked parallel engine in :mod:`repro.assoc.blocked`:
the planner (:mod:`repro.assoc.planner`) gates ``mxm``, ``mxv`` and the
element-wise ops, and :func:`coalesce`, which runs below the planner, gates
itself.  Blocked execution preserves the serial kernels' exact per-row term
order, so both paths return bit-identical matrices.

Serial int64 and float64 ``plus.times`` products take a native route
through scipy's compiled SpGEMM when scipy imports; ESC stays the exact reference it is
checked against (see the native-route section below).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.assoc.semiring import Monoid, PLUS_MONOID, PLUS_TIMES, Semiring
from repro.errors import SparseFormatError
from repro.runtime import backends
from repro.runtime.config import blocked_config

if TYPE_CHECKING:  # pragma: no cover
    import scipy.sparse as sp

__all__ = ["coalesce", "CSRMatrix", "masked_select"]


def coalesce(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    shape: tuple[int, int],
    add: Monoid = PLUS_MONOID,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort triples row-major and combine duplicate coordinates with *add*.

    Returns ``(rows, cols, vals)`` in canonical order (sorted by row, then
    column, no duplicates).  This is the single entry point through which all
    kernels normalise their output, so canonical order is an invariant of
    every :class:`CSRMatrix`.  Duplicates combine in input order; float64
    ``plus`` adds them strictly left to right (:func:`_float_run_sums`).
    """
    n_rows, n_cols = shape
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals)
    if not (rows.shape == cols.shape == vals.shape) or rows.ndim != 1:
        raise SparseFormatError(
            f"triple arrays must be equal-length 1-D, got {rows.shape}, {cols.shape}, {vals.shape}"
        )
    if rows.size == 0:
        return rows, cols, vals
    if rows.min() < 0 or rows.max() >= n_rows or cols.min() < 0 or cols.max() >= n_cols:
        raise SparseFormatError(f"triple coordinates out of bounds for shape {shape}")
    cfg = blocked_config(rows.size, n_rows)
    if cfg is not None:
        from repro.assoc.blocked import parallel_coalesce

        return parallel_coalesce(rows, cols, vals, shape, add, cfg)
    return _coalesce_core(rows, cols, vals, shape, add)


def _coalesce_core(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    shape: tuple[int, int],
    add: Monoid,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Serial coalesce over already-validated ``int64`` index arrays."""
    if rows.size == 0:
        return rows, cols, vals
    n_cols = shape[1]
    key = rows * np.int64(n_cols) + cols
    order = np.argsort(key, kind="stable")
    key = key[order]
    vals = vals[order]
    boundary = np.empty(key.size, dtype=bool)
    boundary[0] = True
    np.not_equal(key[1:], key[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    if starts.size == key.size:  # no duplicates
        uniq_key = key
        out_vals = vals
    elif vals.dtype == np.float64 and add.ufunc is np.add:
        uniq_key = key[starts]
        out_vals = _float_run_sums(vals, boundary, starts)
    else:
        uniq_key = key[starts]
        # duplicate runs start at strictly increasing offsets, so no segment
        # is empty and the ufunc's own reduceat needs no identity patching
        out_vals = add.ufunc.reduceat(vals, starts)
        if out_vals.dtype != vals.dtype:  # reduceat upcasts bools and small ints
            out_vals = out_vals.astype(vals.dtype)
    return uniq_key // n_cols, uniq_key % n_cols, out_vals


def _float_run_sums(vals: np.ndarray, boundary: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The float64 sum rule: each run of *vals* (runs begin where *boundary*
    is set, at *starts*) summed strictly left to right, ``(t1 + t2) + t3
    ...``, as a Python loop would.

    ``bincount`` accumulates its weights in input order into a 0.0-filled
    array, which is also the order scipy's ``csr_matmat`` uses for a product
    (each entry from 0.0, ascending ``k``), and what lets float64 products
    take the native route.  ``reduceat`` sums a run's tail before adding it
    to the first term (``t1 + (t2 + t3)``), which parts from that in the
    last bits.  Starting from 0.0 changes a sum only for a run of
    nothing but -0.0 (to +0.0), so such runs are set back to -0.0: a run's
    sum then never depends on whether other runs had duplicates.  A product
    prunes zero sums of either sign, so the routes still agree.
    """
    out = np.bincount(np.cumsum(boundary) - 1, weights=vals, minlength=starts.size)
    zero = np.flatnonzero(out == 0)
    if zero.size:
        negative_zero = np.logical_and.reduceat((vals == 0) & np.signbit(vals), starts)
        out[zero[negative_zero[zero]]] = -0.0
    return out


def _esc_compress(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    shape: tuple[int, int],
    semiring: Semiring,
) -> "CSRMatrix":
    """The compress step of an ESC product over in-bounds ``int64`` triples.

    Coalesces with the additive monoid, drops the semiring's zeros and
    builds ``indptr`` — the same result as ``from_triples(...).prune(zero)``
    without re-validating kernel-built triples or copying a fresh result.
    """
    rows, cols, vals = _coalesce_core(rows, cols, vals, shape, semiring.add)
    keep = vals != semiring.zero(vals.dtype)
    if not keep.all():
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return CSRMatrix(shape, indptr, cols, vals, _trusted=True)


class CSRMatrix:
    """Compressed-sparse-row matrix with semiring-generic kernels.

    Invariants: ``indices`` sorted within each row, no duplicate coordinates,
    no constraints on stored values (explicit zeros are allowed and can be
    removed with :meth:`prune`).
    """

    __slots__ = ("shape", "indptr", "indices", "data", "_t_cache", "_ones_cache")

    def __init__(
        self,
        shape: tuple[int, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        *,
        _trusted: bool = False,
    ) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data)
        self._t_cache: "CSRMatrix | None" = None
        self._ones_cache: "sp.csr_matrix | None" = None
        if not _trusted:
            self._validate()

    def __getstate__(self):
        # the transpose and mask-pattern caches are derivable; keep them out
        # of pickles so process-backend task payloads stay lean
        return (self.shape, self.indptr, self.indices, self.data)

    def __setstate__(self, state) -> None:
        shape, indptr, indices, data = state
        self.shape = shape
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self._t_cache = None
        self._ones_cache = None

    def _validate(self) -> None:
        n_rows, n_cols = self.shape
        if self.indptr.shape != (n_rows + 1,):
            raise SparseFormatError(
                f"indptr length {self.indptr.size} != n_rows+1 = {n_rows + 1}"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise SparseFormatError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise SparseFormatError("indptr must be non-decreasing")
        if self.indices.size != self.data.size:
            raise SparseFormatError("indices and data length mismatch")
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= n_cols:
                raise SparseFormatError(f"column index out of bounds for shape {self.shape}")
            # sorted-within-row, no duplicates: strict increase except at row starts
            nondecreasing = np.diff(self.indices) > 0
            row_starts = np.zeros(self.indices.size - 1, dtype=bool)
            starts = self.indptr[1:-1]
            # gap i sits between indices[i] and indices[i+1]; a row beginning
            # at index s exempts gap s-1.  s == 0 (leading empty rows) has no
            # preceding gap — without the lower bound it wrapped to gap -1,
            # crashing at nnz == 1 and silently exempting the *last* gap
            # otherwise.
            exempt = starts[(starts > 0) & (starts < self.indices.size)]
            row_starts[exempt - 1] = True
            if not np.all(nondecreasing | row_starts):
                raise SparseFormatError("indices must be strictly increasing within each row")

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_triples(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        shape: tuple[int, int],
        add: Monoid = PLUS_MONOID,
    ) -> "CSRMatrix":
        """Build from COO triples, combining duplicates with *add*."""
        rows, cols, vals = coalesce(rows, cols, vals, shape, add)
        indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        if rows.size:
            np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
        return cls(shape, indptr, cols, vals, _trusted=True)

    @classmethod
    def from_dense(cls, dense: np.ndarray, zero: object = 0) -> "CSRMatrix":
        """Build from a dense array, dropping entries equal to *zero*."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise SparseFormatError(f"dense input must be 2-D, got {dense.ndim}-D")
        mask = dense != zero
        rows, cols = np.nonzero(mask)
        return cls.from_triples(rows, cols, dense[rows, cols], dense.shape)

    @classmethod
    def empty(cls, shape: tuple[int, int], dtype: np.dtype | type = np.int64) -> "CSRMatrix":
        return cls(
            shape,
            np.zeros(shape[0] + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=dtype),
            _trusted=True,
        )

    @classmethod
    def identity(cls, n: int, dtype: np.dtype | type = np.int64) -> "CSRMatrix":
        idx = np.arange(n, dtype=np.int64)
        return cls((n, n), np.arange(n + 1, dtype=np.int64), idx, np.ones(n, dtype=dtype), _trusted=True)

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def row_nnz(self) -> np.ndarray:
        """Number of stored entries per row."""
        return np.diff(self.indptr)

    def triples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """COO view ``(rows, cols, vals)`` in canonical order."""
        rows = np.repeat(np.arange(self.shape[0], dtype=np.int64), self.row_nnz())
        return rows, self.indices.copy(), self.data.copy()

    def to_dense(self, zero: object = 0) -> np.ndarray:
        out = np.full(self.shape, zero, dtype=self.dtype)
        rows, cols, vals = self.triples()
        out[rows, cols] = vals
        return out

    def copy(self) -> "CSRMatrix":
        return CSRMatrix(
            self.shape, self.indptr.copy(), self.indices.copy(), self.data.copy(), _trusted=True
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.data, other.data)
        )

    def __hash__(self) -> int:
        return id(self)

    def __repr__(self) -> str:
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, dtype={self.dtype})"

    # ------------------------------------------------------------------ #
    # operator sugar (defined via the expression layer)
    # ------------------------------------------------------------------ #

    def __matmul__(self, other: "CSRMatrix") -> "CSRMatrix":
        """``A @ B`` — the default ``plus.times`` semiring product."""
        if not isinstance(other, CSRMatrix):
            return NotImplemented
        return self.mxm(other, PLUS_TIMES)

    def __add__(self, other: "CSRMatrix") -> "CSRMatrix":
        """``A + B`` — element-wise union under the ``plus`` monoid."""
        if not isinstance(other, CSRMatrix):
            return NotImplemented
        return self.ewise_union(other, PLUS_MONOID)

    def __mul__(self, other):  # noqa: ANN001
        """``A * B`` — element-wise intersection under ``times``; scalars scale."""
        if isinstance(other, CSRMatrix):
            return self.ewise_intersect(other, PLUS_TIMES.mult)
        if isinstance(other, (int, float, np.number)):
            return CSRMatrix(
                self.shape,
                self.indptr.copy(),
                self.indices.copy(),
                self.data * other,
                _trusted=True,
            )
        return NotImplemented

    __rmul__ = __mul__

    # ------------------------------------------------------------------ #
    # structural ops
    # ------------------------------------------------------------------ #

    def transpose(self) -> "CSRMatrix":
        """The transpose, computed once and cached.

        :class:`CSRMatrix` is treated as immutable by the whole engine, so
        the transpose is memoized.  This is the "descriptor" half of the lazy
        expression layer: folding a transpose into an operand costs one
        CSC-style rebuild ever, not one per call — the fix for ``vxm``
        rebuilding its transpose on every product.  The memo is one-way (no
        back-link), so a matrix/transpose pair never forms a reference cycle
        and reference counting reclaims temporaries promptly.  Callers that
        mutate ``data`` in place must not rely on a previously-taken
        transpose staying in sync.
        """
        if self._t_cache is None:
            rows, cols, vals = self.triples()
            self._t_cache = CSRMatrix.from_triples(
                cols, rows, vals, (self.shape[1], self.shape[0])
            )
        return self._t_cache

    @property
    def T(self) -> "CSRMatrix":
        return self.transpose()

    def prune(self, zero: object = 0) -> "CSRMatrix":
        """Drop stored entries equal to *zero* (the semiring's annihilator)."""
        keep = self.data != zero
        if keep.all():
            return self.copy()
        rows, cols, vals = self.triples()
        return CSRMatrix.from_triples(rows[keep], cols[keep], vals[keep], self.shape)

    def extract(self, row_idx: np.ndarray, col_idx: np.ndarray) -> "CSRMatrix":
        """Sub-matrix ``A[row_idx, :][:, col_idx]`` (GraphBLAS extract).

        Index arrays select and *reorder*; the result has shape
        ``(len(row_idx), len(col_idx))``.
        """
        row_idx = np.asarray(row_idx, dtype=np.int64)
        col_idx = np.asarray(col_idx, dtype=np.int64)
        # gather the selected rows (with repetition allowed)
        counts = self.row_nnz()[row_idx]
        total = int(counts.sum())
        out_rows = np.repeat(np.arange(row_idx.size, dtype=np.int64), counts)
        offsets = np.repeat(self.indptr[row_idx], counts)
        ramp = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
        pos = offsets + ramp
        cols = self.indices[pos]
        vals = self.data[pos]
        # remap columns: position of each old column in col_idx (drop unselected)
        col_map = np.full(self.shape[1], -1, dtype=np.int64)
        col_map[col_idx[::-1]] = np.arange(col_idx.size - 1, -1, -1, dtype=np.int64)
        new_cols = col_map[cols]
        keep = new_cols >= 0
        return CSRMatrix.from_triples(
            out_rows[keep], new_cols[keep], vals[keep], (row_idx.size, col_idx.size)
        )

    # ------------------------------------------------------------------ #
    # element-wise ops
    # ------------------------------------------------------------------ #

    def ewise_union(self, other: "CSRMatrix", add: Monoid = PLUS_MONOID) -> "CSRMatrix":
        """Element-wise combine over the union of patterns (GraphBLAS eWiseAdd).

        Eager surface: builds a one-node expression and evaluates it
        immediately, so the call exercises the same planner path as the lazy
        API (:mod:`repro.assoc.expr`).
        """
        from repro.assoc import expr

        return expr.as_expr(self).ewise(other, add, how="union").new()

    def _ewise_union_serial(self, other: "CSRMatrix", add: Monoid) -> "CSRMatrix":
        r1, c1, v1 = self.triples()
        r2, c2, v2 = other.triples()
        dtype = np.result_type(v1.dtype, v2.dtype)
        return CSRMatrix.from_triples(
            np.concatenate([r1, r2]),
            np.concatenate([c1, c2]),
            np.concatenate([v1.astype(dtype), v2.astype(dtype)]),
            self.shape,
            add,
        )

    def ewise_intersect(self, other: "CSRMatrix", mult) -> "CSRMatrix":  # noqa: ANN001
        """Element-wise combine over the pattern intersection (eWiseMult)."""
        from repro.assoc import expr

        return expr.as_expr(self).ewise(other, mult, how="intersect").new()

    def _ewise_intersect_serial(self, other: "CSRMatrix", mult) -> "CSRMatrix":  # noqa: ANN001
        n_cols = np.int64(self.shape[1])
        r1, c1, v1 = self.triples()
        r2, c2, v2 = other.triples()
        k1 = r1 * n_cols + c1
        k2 = r2 * n_cols + c2
        common, i1, i2 = np.intersect1d(k1, k2, assume_unique=True, return_indices=True)
        vals = mult(v1[i1], v2[i2])
        return CSRMatrix.from_triples(common // n_cols, common % n_cols, vals, self.shape)

    def _check_shape(self, other: "CSRMatrix") -> None:
        if self.shape != other.shape:
            raise SparseFormatError(f"shape mismatch: {self.shape} vs {other.shape}")

    # ------------------------------------------------------------------ #
    # semiring compute kernels
    # ------------------------------------------------------------------ #

    def mxv(self, x: np.ndarray, semiring: Semiring = PLUS_TIMES) -> np.ndarray:
        """Matrix-vector product ``y[i] = add_k mult(A[i,k], x[k])`` (dense x/y)."""
        from repro.assoc import expr

        return expr.as_expr(self).mxv(x, semiring).new()

    def _mxv_serial(self, x: np.ndarray, semiring: Semiring) -> np.ndarray:
        prod = semiring.mult(self.data, x[self.indices])
        prod = np.asarray(prod)
        return semiring.add.reduceat(prod, self.indptr)

    def vxm(self, x: np.ndarray, semiring: Semiring = PLUS_TIMES) -> np.ndarray:
        """Vector-matrix product ``y = x A`` — ``mxv`` through the transpose
        descriptor.

        The transpose is folded by the planner onto the cached transpose
        (:meth:`transpose`), so repeated ``vxm`` on the same matrix costs one
        transpose build total instead of an O(nnz) rebuild per call.
        """
        from repro.assoc import expr

        return expr.as_expr(self).T.mxv(x, semiring).new()

    def mxm(self, other: "CSRMatrix", semiring: Semiring = PLUS_TIMES) -> "CSRMatrix":
        """Sparse matrix product over *semiring* using vectorized ESC.

        (A serial int64 or float64 ``plus.times`` product runs on the
        native route instead, which returns the same matrix bit for bit.)  Float64 ``plus`` sums each
        output entry's terms left to right from 0.0 in ascending ``k`` on
        every route; NaN payloads are not part of that contract.

        Expansion: for each stored ``A(i, k)``, gather row ``k`` of ``B``; the
        per-entry gather lengths come from ``B``'s row-nnz, and the flat gather
        positions are built with a repeat/cumsum ramp.  Compression: coalesce
        with the additive monoid.  The expanded intermediate has
        ``sum_k nnz(A[:,k]) * nnz(B[k,:])`` entries — the usual sparse-GEMM
        FLOP count.

        Eager surface: evaluates a one-node expression through the planner, so
        the eager and lazy (:mod:`repro.assoc.expr`) paths share one dispatch.
        """
        from repro.assoc import expr

        return expr.as_expr(self).mxm(other, semiring).new()

    def _mxm_serial(
        self,
        other: "CSRMatrix",
        semiring: Semiring,
        counts: np.ndarray | None = None,
        total: int | None = None,
    ) -> "CSRMatrix":
        """The serial ESC product; the planner may pass precomputed *counts*/*total*."""
        out_shape = (self.shape[0], other.shape[1])
        if counts is None:
            if self.nnz == 0 or other.nnz == 0:
                return CSRMatrix.empty(out_shape, np.result_type(self.dtype, other.dtype))
            counts = other.row_nnz()[self.indices]
            total = int(counts.sum())
            if total == 0:
                return CSRMatrix.empty(out_shape, np.result_type(self.dtype, other.dtype))
        a_rows = np.repeat(np.arange(self.shape[0], dtype=np.int64), self.row_nnz())
        out_rows = np.repeat(a_rows, counts)
        offsets = np.repeat(other.indptr[self.indices], counts)
        ramp = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
        b_pos = offsets + ramp
        out_cols = other.indices[b_pos]
        out_vals = np.asarray(semiring.mult(np.repeat(self.data, counts), other.data[b_pos]))
        return _esc_compress(out_rows, out_cols, out_vals, out_shape, semiring)

    def reduce_rows(self, add: Monoid = PLUS_MONOID) -> np.ndarray:
        """Dense vector of per-row reductions (empty rows get the identity)."""
        return add.reduceat(self.data, self.indptr)

    def reduce_cols(self, add: Monoid = PLUS_MONOID) -> np.ndarray:
        """Dense vector of per-column reductions."""
        return self.transpose().reduce_rows(add)

    def reduce_scalar(self, add: Monoid = PLUS_MONOID) -> object:
        """Reduce every stored value to one scalar."""
        if self.data.size == 0:
            return add.identity(self.dtype)
        if add.op.is_ufunc:
            return add.op.func.reduce(self.data)  # type: ignore[union-attr]
        acc = self.data[0]
        for v in self.data[1:]:
            acc = add.op.func(acc, v)
        return acc

    def kron(self, other: "CSRMatrix", mult=None) -> "CSRMatrix":  # noqa: ANN001
        """Kronecker product — the graph generator workhorse (ref [50] lineage)."""
        if mult is None:
            mult = PLUS_TIMES.mult
        r1, c1, v1 = self.triples()
        r2, c2, v2 = other.triples()
        m2, n2 = other.shape
        rows = (r1[:, None] * m2 + r2[None, :]).ravel()
        cols = (c1[:, None] * n2 + c2[None, :]).ravel()
        vals = np.asarray(mult(np.repeat(v1, r2.size), np.tile(v2, r1.size)))
        return CSRMatrix.from_triples(
            rows, cols, vals, (self.shape[0] * m2, self.shape[1] * n2)
        )

    # ------------------------------------------------------------------ #
    # interop
    # ------------------------------------------------------------------ #

    def to_scipy(self) -> "sp.csr_matrix":
        """Convert to ``scipy.sparse.csr_matrix`` (for benchmarking baselines)."""
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.data.copy(), self.indices.copy(), self.indptr.copy()), shape=self.shape
        )

    @classmethod
    def from_scipy(cls, mat: "sp.spmatrix") -> "CSRMatrix":
        csr = mat.tocsr()
        csr.sum_duplicates()
        csr.sort_indices()
        return cls(
            csr.shape,
            csr.indptr.astype(np.int64),
            csr.indices.astype(np.int64),
            csr.data.copy(),
            _trusted=True,
        )


# ---------------------------------------------------------------------- #
# native route: int64 and float64 plus.times through scipy's compiled SpGEMM
#
# scipy's ``csr_matmat`` accumulates each output entry from 0 over the
# inner index ``k`` in ascending order and drops zero sums, just as ESC
# prunes the semiring's zero.  int64 sums wrap modulo 2**64 in any order;
# float64 sums follow the one order ESC's compress also uses (see
# ``_float_run_sums``), so both routes return the same bits.  Every other
# dtype, mixed dtypes and every other semiring stay on ESC, and ESC remains
# the exact reference the oracles check this route against.
# ---------------------------------------------------------------------- #

_NATIVE_DTYPES = (np.dtype(np.int64), np.dtype(np.float64))


def _takes_native(a: "CSRMatrix", b: "CSRMatrix", semiring: Semiring) -> bool:
    """Whether a serial product of *a* and *b* runs on the native route:
    the planner's one route gate."""
    return (
        semiring == PLUS_TIMES
        and a.dtype == b.dtype
        and a.dtype in _NATIVE_DTYPES
        and backends.has_scipy()
    )


def _native_mxm(a: "CSRMatrix", b: "CSRMatrix") -> "CSRMatrix":
    """``a @ b`` over int64 or float64 ``plus.times`` in canonical CSR order.

    scipy leaves each output row's columns unsorted, and sorting them costs
    more than the product.  So this multiplies the transposes instead,
    ``Cᵀ = Bᵀ·Aᵀ``, and reads the result out with one linear ``tocsc()``:
    the CSC arrays of ``Cᵀ`` are the row-sorted CSR arrays of ``C``.
    """
    import scipy.sparse as sp

    sa = sp.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)
    sb = sp.csr_matrix((b.data, b.indices, b.indptr), shape=b.shape)
    c = (sb.tocsc().T @ sa.tocsc().T).tocsc()
    return CSRMatrix((a.shape[0], b.shape[1]), c.indptr, c.indices, c.data, _trusted=True)


def _native_masked_mxm(a: "CSRMatrix", b: "CSRMatrix", mask: "CSRMatrix") -> "CSRMatrix":
    """``C⟨M⟩ = A @ B`` over int64 or float64 ``plus.times``; equals
    :func:`_masked_mxm_serial`.

    Only the rows of *a* the mask touches are multiplied (the fused ESC
    kernel's row rule), so the full product never exists.  The unsorted
    product is intersected with the mask pattern by one element-wise
    multiply against a ones-valued copy of the mask, and only that masked
    result, never larger than the product and usually far smaller, is
    sorted into canonical order.  The ones-valued copy depends only on the
    mask's pattern, so it is built once per mask object and memoised on it,
    as :meth:`CSRMatrix.transpose` memoises the transpose.
    """
    import scipy.sparse as sp

    out_shape = (a.shape[0], b.shape[1])
    if mask.shape != out_shape:
        raise SparseFormatError(f"mask shape {mask.shape} != product shape {out_shape}")
    row_nnz = np.where(mask.row_nnz() > 0, a.row_nnz(), 0)
    keep = np.repeat(row_nnz > 0, a.row_nnz())
    indptr = np.zeros(a.shape[0] + 1, dtype=np.int64)
    np.cumsum(row_nnz, out=indptr[1:])
    sa = sp.csr_matrix((a.data[keep], a.indices[keep], indptr), shape=a.shape)
    sb = sp.csr_matrix((b.data, b.indices, b.indptr), shape=b.shape)
    if mask._ones_cache is None:
        mask._ones_cache = sp.csr_matrix(
            (np.ones(mask.nnz, dtype=np.int64), mask.indices, mask.indptr), shape=out_shape
        )
    out = (sa @ sb).multiply(mask._ones_cache).tocsr()
    if out.dtype.kind == "f":
        # the multiply runs over the union of patterns, so an inf or NaN
        # outside the mask comes back as NaN (x * 0) instead of vanishing;
        # out holds no zeros yet, so zeroing those and eliminating is exact
        nan = np.flatnonzero(np.isnan(out.data))
        if nan.size:
            rows = np.searchsorted(out.indptr, nan, side="right") - 1
            out.data[nan[~_mask_keep(rows, out.indices[nan], mask, False, out_shape[1])]] = 0
            out.eliminate_zeros()
    out.sort_indices()
    return CSRMatrix(out_shape, out.indptr, out.indices, out.data, _trusted=True)


# ---------------------------------------------------------------------- #
# masked (fused) serial kernels
#
# These are the dispatch targets the expression planner
# (repro.assoc.planner) uses when an assignment carries a structural mask.
# They restrict *computation* to the mask's pattern — masked-out rows are
# never expanded and masked-out product terms are dropped before the
# coalesce sort — instead of materialising the full result and filtering.
# Each is bit-identical to its eager-then-filter equivalent: filtering the
# ESC expansion preserves the relative order of the surviving terms, so the
# stable sort groups and reduces them exactly as the unmasked kernel would.
# ---------------------------------------------------------------------- #


def _mask_keep(
    rows: np.ndarray,
    cols: np.ndarray,
    mask: "CSRMatrix",
    complement: bool,
    n_cols: int,
) -> np.ndarray:
    """Boolean keep-array: which ``(rows, cols)`` coordinates the mask allows.

    Membership is a ``searchsorted`` against the mask's row-major flat keys
    (canonical CSR order makes them pre-sorted) — O((nnz + m) log m), no
    dense materialisation.
    """
    n_cols = np.int64(n_cols)
    m_rows = np.repeat(np.arange(mask.shape[0], dtype=np.int64), mask.row_nnz())
    m_keys = m_rows * n_cols + mask.indices
    keys = np.asarray(rows, dtype=np.int64) * n_cols + np.asarray(cols, dtype=np.int64)
    if m_keys.size == 0:
        hit = np.zeros(keys.shape, dtype=bool)
    else:
        pos = np.searchsorted(m_keys, keys)
        hit = (pos < m_keys.size) & (m_keys[np.minimum(pos, m_keys.size - 1)] == keys)
    return ~hit if complement else hit


def masked_select(a: "CSRMatrix", mask: "CSRMatrix", complement: bool = False) -> "CSRMatrix":
    """Entries of *a* at coordinates the structural *mask* allows.

    This is GraphBLAS ``C⟨M⟩ = A`` for a leaf expression: a pure pattern
    filter, never densified.  With ``complement=True`` it keeps the entries
    *outside* the mask pattern instead.
    """
    if a.shape != mask.shape:
        raise SparseFormatError(f"mask shape {mask.shape} != operand shape {a.shape}")
    rows, cols, vals = a.triples()
    keep = _mask_keep(rows, cols, mask, complement, a.shape[1])
    return CSRMatrix.from_triples(rows[keep], cols[keep], vals[keep], a.shape)


def _mxm_out_dtype(
    a: "CSRMatrix", b: "CSRMatrix", mult, total: int | None = None  # noqa: ANN001
) -> np.dtype:
    """The dtype ``a.mxm(b)`` would produce (probe rule of the eager kernel).

    *total* is the expansion size ``b.row_nnz()[a.indices].sum()`` when the
    caller has already counted it.
    """
    if total is None:
        total = int(b.row_nnz()[a.indices].sum()) if a.nnz and b.nnz else 0
    if total == 0:
        return np.result_type(a.dtype, b.dtype)
    return np.asarray(mult(a.data[:1], b.data[:1])).dtype


def _masked_mxm_serial(
    a: "CSRMatrix",
    b: "CSRMatrix",
    semiring: Semiring,
    mask: "CSRMatrix",
    out_dtype: np.dtype | None = None,
) -> "CSRMatrix":
    """Fused masked ESC product: ``C⟨M⟩ = A ⊕.⊗ B`` without the full product.

    Rows whose mask row is empty are skipped entirely (never expanded), and
    expansion terms landing outside the mask pattern are dropped *before*
    the coalesce sort — the expensive O(t log t) step only ever sees
    surviving terms.  Non-complemented masks only; the planner routes
    complement masks through the unmasked kernel plus a filter (a complement
    of a sparse mask keeps almost everything, so there is nothing to skip).
    """
    out_shape = (a.shape[0], b.shape[1])
    if mask.shape != out_shape:
        raise SparseFormatError(f"mask shape {mask.shape} != product shape {out_shape}")
    if out_dtype is None:
        out_dtype = _mxm_out_dtype(a, b, semiring.mult)
    sel = np.flatnonzero((a.row_nnz() > 0) & (mask.row_nnz() > 0))
    if a.nnz == 0 or b.nnz == 0 or sel.size == 0:
        return CSRMatrix.empty(out_shape, out_dtype)
    # gather the stored entries of the selected (mask-active) rows of A
    a_counts = a.row_nnz()[sel]
    total_a = int(a_counts.sum())
    a_offsets = np.repeat(a.indptr[sel], a_counts)
    a_ramp = np.arange(total_a, dtype=np.int64) - np.repeat(
        np.cumsum(a_counts) - a_counts, a_counts
    )
    a_pos = a_offsets + a_ramp
    a_cols = a.indices[a_pos]
    a_rows = np.repeat(sel.astype(np.int64), a_counts)
    # ESC expansion restricted to those rows
    counts = b.row_nnz()[a_cols]
    total = int(counts.sum())
    if total == 0:
        return CSRMatrix.empty(out_shape, out_dtype)
    out_rows = np.repeat(a_rows, counts)
    offsets = np.repeat(b.indptr[a_cols], counts)
    ramp = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
    b_pos = offsets + ramp
    out_cols = b.indices[b_pos]
    # drop masked-out terms before multiplying or sorting
    keep = _mask_keep(out_rows, out_cols, mask, False, out_shape[1])
    out_rows = out_rows[keep]
    out_cols = out_cols[keep]
    a_vals = np.repeat(a.data[a_pos], counts)[keep]
    b_vals = b.data[b_pos[keep]]
    out_vals = np.asarray(semiring.mult(a_vals, b_vals))
    if out_vals.size == 0:
        return CSRMatrix.empty(out_shape, out_dtype)
    return _esc_compress(out_rows, out_cols, out_vals, out_shape, semiring)


def _masked_mxv_serial(
    a: "CSRMatrix",
    x: np.ndarray,
    semiring: Semiring,
    allow: np.ndarray,
) -> np.ndarray:
    """Masked matrix-vector product: only rows with ``allow[i]`` are computed.

    *allow* is a dense boolean row mask with any complement already applied.
    Unselected rows carry the additive identity — exactly what
    eager-then-filter would leave there.
    """
    # dtype probe on empty slices: same input dtypes as the full product
    prod_dtype = np.asarray(semiring.mult(a.data[:0], x[:0])).dtype
    out = np.full(a.shape[0], semiring.add.identity(prod_dtype), dtype=prod_dtype)
    sel = np.flatnonzero(allow)
    if sel.size == 0 or a.nnz == 0:
        return out
    counts = a.row_nnz()[sel]
    total = int(counts.sum())
    offsets = np.repeat(a.indptr[sel], counts)
    ramp = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
    pos = offsets + ramp
    prod = np.asarray(semiring.mult(a.data[pos], x[a.indices[pos]]))
    seg = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    out[sel] = semiring.add.reduceat(prod, seg)
    return out


def _masked_reduce_rows_serial(a: "CSRMatrix", add: Monoid, allow: np.ndarray) -> np.ndarray:
    """Per-row reduction computed only for rows with ``allow[i]`` set.

    Unselected rows carry the monoid identity, matching eager-then-filter.
    """
    out = np.full(a.shape[0], add.identity(a.dtype), dtype=a.dtype)
    sel = np.flatnonzero(allow)
    if sel.size == 0 or a.nnz == 0:
        return out
    counts = a.row_nnz()[sel]
    total = int(counts.sum())
    offsets = np.repeat(a.indptr[sel], counts)
    ramp = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
    pos = offsets + ramp
    seg = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    out[sel] = add.reduceat(a.data[pos], seg)
    return out


def _masked_intersect_serial(
    a: "CSRMatrix",
    b: "CSRMatrix",
    mult,  # noqa: ANN001
    mask: "CSRMatrix",
    complement: bool,
) -> "CSRMatrix":
    """Fused masked eWiseMult: the left operand is mask-filtered *before*
    intersecting, so ``(A ∩ mask) ∩ B == (A ∩ B) ∩ mask`` never exists
    unmasked."""
    n_cols = np.int64(a.shape[1])
    r1, c1, v1 = a.triples()
    keep = _mask_keep(r1, c1, mask, complement, a.shape[1])
    r1, c1, v1 = r1[keep], c1[keep], v1[keep]
    r2, c2, v2 = b.triples()
    k1 = r1 * n_cols + c1
    k2 = r2 * n_cols + c2
    common, i1, i2 = np.intersect1d(k1, k2, assume_unique=True, return_indices=True)
    vals = mult(v1[i1], v2[i2])
    return CSRMatrix.from_triples(common // n_cols, common % n_cols, vals, a.shape)


def _union_all_serial(
    parts: Sequence["CSRMatrix"],
    add: Monoid,
    mask: "CSRMatrix | None" = None,
    complement: bool = False,
) -> "CSRMatrix":
    """N-ary fused eWiseAdd: one concatenate + one coalesce for *parts*.

    The concatenation order is the operand order, so duplicate coordinates
    reduce left-to-right — bit-identical to the pairwise
    ``ewise_union`` left-fold the chain would otherwise run, at a single
    sort instead of ``len(parts) - 1`` of them.  With a mask, each operand's
    triples are filtered before the sort (fused masked union).
    """
    shape = parts[0].shape
    dtype = np.result_type(*(p.dtype for p in parts))
    rows_l: list[np.ndarray] = []
    cols_l: list[np.ndarray] = []
    vals_l: list[np.ndarray] = []
    for p in parts:
        r, c, v = p.triples()
        if mask is not None:
            keep = _mask_keep(r, c, mask, complement, shape[1])
            r, c, v = r[keep], c[keep], v[keep]
        rows_l.append(r)
        cols_l.append(c)
        vals_l.append(v.astype(dtype))
    rows = np.concatenate(rows_l)
    cols = np.concatenate(cols_l)
    vals = np.concatenate(vals_l)
    if rows.size == 0:
        return CSRMatrix.empty(shape, dtype)
    return CSRMatrix.from_triples(rows, cols, vals, shape, add)
