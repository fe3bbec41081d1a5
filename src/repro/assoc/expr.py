"""Lazy GraphBLAS-style expressions: masks, accumulators, deferred evaluation.

The eager kernels in :mod:`repro.assoc.sparse` compute the moment they are
called, which forces every consumer to materialise intermediates and apply
masks densely after the fact.  This module adds the *describe first, execute
staged* layer on top: operations on a :class:`Mat` (or on another expression)
return :class:`MatExpr` / :class:`VecExpr` nodes instead of results, and a
small planner (:mod:`repro.assoc.planner`) walks the tree at evaluation time,
fusing masks and element-wise chains into the row-blocked kernels and
dispatching through :mod:`repro.runtime`.

The GraphBLAS assignment triple — mask, accumulator, descriptor — is spelled
the conventional way::

    from repro.assoc.expr import Mat, Mask

    C = Mat.from_csr(base)
    C(mask=M, accum=PLUS, complement=True, replace=False) << A.mxm(B)
    standalone = A.mxm(B).new(mask=M)        # evaluate without assigning

Guarantees:

* every lazy evaluation is **bit-identical** to its eager equivalent
  (materialise, then filter by the mask) — including float rounding, because
  mask filtering preserves the relative order of surviving expansion terms;
* a **non-complemented sparse mask never materialises the unmasked result**:
  the planner emits the fused masked kernels, which skip masked-out rows and
  drop masked-out terms before the coalesce sort;
* the serial and blocked-parallel paths of every fused kernel agree bit for
  bit, extending the PR 1 guarantee to masked execution.

Eager :class:`~repro.assoc.sparse.CSRMatrix` methods (``mxm``, the
element-wise ops, ``mxv``/``vxm``) are now thin wrappers that build a
one-node expression and evaluate it immediately, so the whole existing test
suite exercises this layer as a compatibility gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.assoc.planner import Plan
    from repro.staticcheck.shapes import ExprType

from repro.assoc.semiring import (
    BinaryOp,
    Monoid,
    PLUS_MONOID,
    PLUS_TIMES,
    Semiring,
)
from repro.assoc.sparse import CSRMatrix, _mask_keep
from repro.errors import ExpressionError, SparseFormatError

__all__ = [
    "Mask",
    "Mat",
    "Vec",
    "MatExpr",
    "VecExpr",
    "MatLeaf",
    "MxM",
    "EWiseMult",
    "UnionAll",
    "TransposeExpr",
    "MxV",
    "ReduceRows",
    "as_expr",
    "as_mask",
    "lazy",
    "union_all",
    "apply_assign",
]


# --------------------------------------------------------------------------- #
# masks
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Mask:
    """A structural mask: the *pattern* of a sparse matrix, optionally
    complemented.

    Stored values are ignored (GraphBLAS "structure-only" semantics) — a
    coordinate is allowed when the pattern holds an entry there, or, with
    ``complement=True``, when it does not.
    """

    pattern: CSRMatrix
    complement: bool = False

    @property
    def shape(self) -> tuple[int, int]:
        return self.pattern.shape

    def transpose(self) -> "Mask":
        """The mask of the transposed coordinate space (pattern transpose is
        cached on the CSR, so folding costs one build ever)."""
        return Mask(self.pattern.transpose(), self.complement)


def as_mask(mask: object, complement: bool = False) -> Mask | None:
    """Coerce *mask* to a :class:`Mask` (or ``None``).

    Accepts a :class:`Mask` (the ``complement`` argument flips it), a
    :class:`~repro.assoc.sparse.CSRMatrix`, anything exposing a ``.csr``
    attribute (:class:`Mat`, :class:`~repro.assoc.array.AssociativeArray`),
    or a dense array whose non-zero / ``True`` cells form the pattern.
    """
    if mask is None:
        if complement:
            raise ExpressionError("complement=True requires a mask")
        return None
    if isinstance(mask, Mask):
        return Mask(mask.pattern, mask.complement != complement)
    if isinstance(mask, CSRMatrix):
        return Mask(mask, complement)
    csr = getattr(mask, "csr", None)
    if isinstance(csr, CSRMatrix):
        return Mask(csr, complement)
    arr = np.asarray(mask)
    if arr.ndim == 2:
        return Mask(CSRMatrix.from_dense(arr != 0), complement)
    raise ExpressionError(
        f"cannot interpret {type(mask).__name__} as a structural mask"
    )


def _as_vec_mask(mask: object, complement: bool, size: int) -> np.ndarray | None:
    """Dense boolean row mask for vector results (complement pre-applied)."""
    if mask is None:
        if complement:
            raise ExpressionError("complement=True requires a mask")
        return None
    arr = np.asarray(mask)
    if arr.shape != (size,):
        raise ExpressionError(f"vector mask length {arr.shape} != {(size,)}")
    allow = arr.astype(bool)
    return ~allow if complement else allow


# --------------------------------------------------------------------------- #
# matrix expressions
# --------------------------------------------------------------------------- #


class MatExpr:
    """A deferred matrix computation.  Operations return further expressions;
    :meth:`new` evaluates through the planner."""

    __slots__ = ()

    @property
    def shape(self) -> tuple[int, int]:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    # -- builders -------------------------------------------------------- #

    def mxm(self, other: object, semiring: Semiring = PLUS_TIMES) -> "MxM":
        """Deferred semiring matrix product."""
        rhs = as_expr(other)
        if self.ncols != rhs.nrows:
            raise SparseFormatError(
                f"inner dimension mismatch: {self.shape} @ {rhs.shape}"
            )
        return MxM(self, rhs, semiring)

    def ewise(self, other: object, op: object = PLUS_MONOID, how: str | None = None) -> "MatExpr":
        """Deferred element-wise combine.

        ``how`` defaults from the operator: a :class:`Monoid` combines over
        the pattern **union** (eWiseAdd), anything else over the
        **intersection** (eWiseMult).  Union chains with the same monoid
        collapse into one n-ary :class:`UnionAll` node, which the planner
        executes as a single concatenate + coalesce.
        """
        rhs = as_expr(other)
        if self.shape != rhs.shape:
            raise SparseFormatError(f"shape mismatch: {self.shape} vs {rhs.shape}")
        if how is None:
            how = "union" if isinstance(op, Monoid) else "intersect"
        if how == "union":
            if not isinstance(op, Monoid):
                raise ExpressionError(
                    f"ewise union needs a Monoid, got {type(op).__name__}"
                )
            if isinstance(self, UnionAll) and self.add is op:
                return UnionAll(self.parts + (rhs,), op)
            return UnionAll((self, rhs), op)
        if how == "intersect":
            return EWiseMult(self, rhs, op)
        raise ExpressionError(f"ewise how must be 'union' or 'intersect', got {how!r}")

    def transpose(self) -> "MatExpr":
        return TransposeExpr(self)

    @property
    def T(self) -> "MatExpr":
        return self.transpose()

    def mxv(self, x: np.ndarray, semiring: Semiring = PLUS_TIMES) -> "MxV":
        """Deferred matrix-vector product (dense vector operand)."""
        x = np.asarray(x)
        if x.shape != (self.ncols,):
            raise SparseFormatError(f"vector length {x.shape} != {(self.ncols,)}")
        return MxV(self, x, semiring)

    def reduce_rows(self, add: Monoid = PLUS_MONOID) -> "ReduceRows":
        return ReduceRows(self, add)

    def reduce_cols(self, add: Monoid = PLUS_MONOID) -> "ReduceRows":
        return ReduceRows(self.transpose(), add)

    # -- operator sugar --------------------------------------------------- #

    def __matmul__(self, other: object) -> "MxM":
        return self.mxm(other)

    def __add__(self, other: object) -> "MatExpr":
        return self.ewise(other, PLUS_MONOID)

    def __mul__(self, other: object) -> "MatExpr":
        return self.ewise(other, PLUS_TIMES.mult, how="intersect")

    # -- evaluation ------------------------------------------------------- #

    def new(self, mask: object = None, *, complement: bool = False) -> CSRMatrix:
        """Evaluate this expression, optionally through a structural mask."""
        from repro.assoc import planner

        return planner.evaluate(self, as_mask(mask, complement))

    def plan(self, mask: object = None, *, complement: bool = False) -> Plan:
        """The :class:`~repro.assoc.planner.Plan` evaluation would follow."""
        from repro.assoc import planner

        return planner.plan(self, as_mask(mask, complement))

    def typecheck(self, mask: object = None, *, complement: bool = False) -> ExprType:
        """Statically infer this tree's result shape and dtype without
        executing it (see :func:`repro.staticcheck.shapes.infer`); raises
        :class:`~repro.errors.ShapeInferenceError` naming the offending
        subtree if the tree cannot evaluate."""
        from repro.staticcheck import shapes

        return shapes.infer(self, as_mask(mask, complement))


class MatLeaf(MatExpr):
    """A concrete matrix at the leaf of an expression tree.

    ``transposed`` is the descriptor flag: the planner resolves it against
    the operand's cached transpose, so a folded transpose costs one rebuild
    ever rather than one per evaluation.
    """

    __slots__ = ("csr", "transposed")

    def __init__(self, csr: CSRMatrix, transposed: bool = False) -> None:
        self.csr = csr
        self.transposed = bool(transposed)

    @property
    def shape(self) -> tuple[int, int]:
        if self.transposed:
            return (self.csr.shape[1], self.csr.shape[0])
        return self.csr.shape

    def transpose(self) -> "MatLeaf":
        return MatLeaf(self.csr, not self.transposed)

    def resolve(self) -> CSRMatrix:
        return self.csr.transpose() if self.transposed else self.csr


class MxM(MatExpr):
    """Deferred semiring product ``left ⊕.⊗ right``."""

    __slots__ = ("left", "right", "semiring")

    def __init__(self, left: MatExpr, right: MatExpr, semiring: Semiring) -> None:
        self.left = left
        self.right = right
        self.semiring = semiring

    @property
    def shape(self) -> tuple[int, int]:
        return (self.left.nrows, self.right.ncols)


class EWiseMult(MatExpr):
    """Deferred element-wise multiply over the pattern intersection."""

    __slots__ = ("left", "right", "mult")

    def __init__(self, left: MatExpr, right: MatExpr, mult: object) -> None:
        self.left = left
        self.right = right
        self.mult = mult

    @property
    def shape(self) -> tuple[int, int]:
        return self.left.shape


class UnionAll(MatExpr):
    """Deferred n-ary element-wise add: a fused union chain."""

    __slots__ = ("parts", "add")

    def __init__(self, parts: Sequence[MatExpr], add: Monoid) -> None:
        self.parts = tuple(parts)
        self.add = add
        if not self.parts:
            raise ExpressionError("UnionAll needs at least one operand")

    @property
    def shape(self) -> tuple[int, int]:
        return self.parts[0].shape


class TransposeExpr(MatExpr):
    """Transpose of a non-leaf expression (leaf transposes fold into the
    descriptor flag instead)."""

    __slots__ = ("child",)

    def __init__(self, child: MatExpr) -> None:
        self.child = child

    @property
    def shape(self) -> tuple[int, int]:
        return (self.child.ncols, self.child.nrows)

    def transpose(self) -> MatExpr:
        return self.child


# --------------------------------------------------------------------------- #
# vector expressions
# --------------------------------------------------------------------------- #


class VecExpr:
    """A deferred dense-vector computation."""

    __slots__ = ()

    @property
    def size(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def new(self, mask: object = None, *, complement: bool = False) -> np.ndarray:
        """Evaluate, optionally through a dense boolean row mask."""
        from repro.assoc import planner

        return planner.evaluate_vec(
            self, _as_vec_mask(mask, complement, self.size)
        )

    def plan(self, mask: object = None, *, complement: bool = False) -> Plan:
        from repro.assoc import planner

        return planner.plan(self, _as_vec_mask(mask, complement, self.size))

    def typecheck(self, mask: object = None, *, complement: bool = False) -> ExprType:
        """Statically infer result size and dtype (see
        :func:`repro.staticcheck.shapes.infer_vec`)."""
        from repro.staticcheck import shapes

        return shapes.infer_vec(self, _as_vec_mask(mask, complement, self.size))


class MxV(VecExpr):
    """Deferred matrix-vector product."""

    __slots__ = ("mat", "x", "semiring")

    def __init__(self, mat: MatExpr, x: np.ndarray, semiring: Semiring) -> None:
        self.mat = mat
        self.x = np.asarray(x)
        self.semiring = semiring

    @property
    def size(self) -> int:
        return self.mat.nrows


class ReduceRows(VecExpr):
    """Deferred per-row reduction of a matrix expression."""

    __slots__ = ("mat", "add")

    def __init__(self, mat: MatExpr, add: Monoid) -> None:
        self.mat = mat
        self.add = add

    @property
    def size(self) -> int:
        return self.mat.nrows


# --------------------------------------------------------------------------- #
# coercion helpers
# --------------------------------------------------------------------------- #


def as_expr(obj: object) -> MatExpr:
    """Coerce *obj* (expression, :class:`Mat`, or CSR) to a :class:`MatExpr`."""
    if isinstance(obj, MatExpr):
        return obj
    if isinstance(obj, Mat):
        return MatLeaf(obj.csr)
    if isinstance(obj, CSRMatrix):
        return MatLeaf(obj)
    raise ExpressionError(
        f"cannot build an expression from {type(obj).__name__}"
    )


def lazy(obj: object) -> "Mat":
    """Wrap a matrix-like object in a :class:`Mat` for the lazy surface."""
    if isinstance(obj, Mat):
        return obj
    if isinstance(obj, CSRMatrix):
        return Mat(obj)
    csr = getattr(obj, "csr", None)
    if isinstance(csr, CSRMatrix):
        return Mat(csr)
    arr = np.asarray(obj)
    if arr.ndim == 2:
        return Mat(CSRMatrix.from_dense(arr))
    raise ExpressionError(f"cannot wrap {type(obj).__name__} as a Mat")


def union_all(items: Iterable[object], add: Monoid = PLUS_MONOID) -> MatExpr:
    """A fused n-ary union expression over *items* (left-to-right reduce order)."""
    parts = [as_expr(item) for item in items]
    if not parts:
        raise ExpressionError("union_all needs at least one operand")
    first = parts[0]
    for p in parts[1:]:
        if p.shape != first.shape:
            raise ExpressionError(f"shape mismatch: {first.shape} vs {p.shape}")
    if len(parts) == 1:
        return parts[0]
    return UnionAll(parts, add)


def _accum_callable(accum: object) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    if isinstance(accum, Monoid):
        return accum.op
    if isinstance(accum, BinaryOp):
        return accum
    if callable(accum):
        return accum  # type: ignore[return-value]
    raise ExpressionError(
        f"accumulator must be a BinaryOp, Monoid, or callable, got {type(accum).__name__}"
    )


# --------------------------------------------------------------------------- #
# masked assignment (the GraphBLAS C⟨M⟩ ⊕= Z rule)
# --------------------------------------------------------------------------- #


def apply_assign(
    old: CSRMatrix,
    result: CSRMatrix,
    mask: Mask | None,
    accum: object = None,
    replace: bool = False,
) -> CSRMatrix:
    """Merge *result* into *old* under mask/accumulator/replace semantics.

    The GraphBLAS rule, sparsely: positions the mask allows take the new
    content (``accum(old, new)`` where both exist, otherwise whichever
    exists; without an accumulator the result pattern *replaces* the allowed
    region outright), and positions the mask forbids keep their old entries —
    unless ``replace=True``, which clears them.  Value dtypes promote with
    ``np.result_type`` whenever old and new values can mix.
    """
    if old.shape != result.shape:
        raise ExpressionError(
            f"assignment shape mismatch: {old.shape} vs {result.shape}"
        )
    n_cols = np.int64(old.shape[1])
    ro, co, vo = old.triples()
    rr, cr, vr = result.triples()
    if mask is not None:
        if mask.shape != old.shape:
            raise ExpressionError(f"mask shape {mask.shape} != target shape {old.shape}")
        allowed_old = _mask_keep(ro, co, mask.pattern, mask.complement, old.shape[1])
        # defensively restrict the result to the mask (the planner already
        # evaluates through it, so this is normally a no-op)
        rkeep = _mask_keep(rr, cr, mask.pattern, mask.complement, old.shape[1])
        if not rkeep.all():
            rr, cr, vr = rr[rkeep], cr[rkeep], vr[rkeep]
    else:
        allowed_old = np.ones(ro.size, dtype=bool)

    if accum is None:
        if mask is None:
            # plain (full-mask) assignment: the result replaces the target
            return CSRMatrix.from_triples(rr, cr, vr, old.shape)
        keep = np.zeros(ro.size, dtype=bool) if replace else ~allowed_old
        dtype = np.result_type(vo.dtype, vr.dtype)
        rows = np.concatenate([ro[keep], rr])
        cols = np.concatenate([co[keep], cr])
        vals = np.concatenate([vo[keep].astype(dtype), vr.astype(dtype)])
        return CSRMatrix.from_triples(rows, cols, vals, old.shape)

    fn = _accum_callable(accum)
    dtype = np.result_type(vo.dtype, vr.dtype)
    ko = ro * n_cols + co
    kr = rr * n_cols + cr
    common, io, ir = np.intersect1d(ko, kr, assume_unique=True, return_indices=True)
    acc_vals = np.asarray(fn(vo[io], vr[ir])).astype(dtype, copy=False)
    old_only = np.ones(ko.size, dtype=bool)
    old_only[io] = False
    res_only = np.ones(kr.size, dtype=bool)
    res_only[ir] = False
    # old-only entries survive where allowed (the accumulated Z keeps them)
    # and where disallowed-but-not-replaced (the mask shields them)
    old_keep = old_only & (allowed_old | (not replace))
    rows = np.concatenate([ro[old_keep], common // n_cols, rr[res_only]])
    cols = np.concatenate([co[old_keep], common % n_cols, cr[res_only]])
    vals = np.concatenate(
        [vo[old_keep].astype(dtype), acc_vals, vr[res_only].astype(dtype)]
    )
    return CSRMatrix.from_triples(rows, cols, vals, old.shape)


# --------------------------------------------------------------------------- #
# the mutable containers: Mat and Vec
# --------------------------------------------------------------------------- #


class _MatAssign:
    """The left-hand side of ``C(mask=…, accum=…) << expr``."""

    __slots__ = ("mat", "mask", "accum", "replace")

    def __init__(self, mat: "Mat", mask: Mask | None, accum: object, replace: bool) -> None:
        self.mat = mat
        self.mask = mask
        self.accum = accum
        self.replace = bool(replace)

    def update(self, rhs: object) -> "Mat":
        from repro.assoc import planner

        expr = as_expr(rhs)
        if expr.shape != self.mat.shape:
            raise ExpressionError(
                f"assignment shape mismatch: {self.mat.shape} vs {expr.shape}"
            )
        result = planner.evaluate(expr, self.mask)
        self.mat._csr = apply_assign(
            self.mat._csr, result, self.mask, self.accum, self.replace
        )
        return self.mat

    def __lshift__(self, rhs: object) -> "Mat":
        return self.update(rhs)


class Mat:
    """A mutable matrix container over canonical CSR storage — the lazy
    surface's handle.

    Operations build :class:`MatExpr` trees; ``C(mask=…, accum=…,
    complement=…, replace=…) << expr`` evaluates through the planner and
    assigns in place; plain ``C << expr`` replaces the content outright.
    """

    __slots__ = ("_csr",)

    def __init__(self, csr: CSRMatrix) -> None:
        if not isinstance(csr, CSRMatrix):
            raise ExpressionError(f"Mat wraps a CSRMatrix, got {type(csr).__name__}")
        self._csr = csr

    @classmethod
    def from_csr(cls, csr: CSRMatrix) -> "Mat":
        return cls(csr)

    @classmethod
    def from_dense(cls, dense: np.ndarray, zero: object = 0) -> "Mat":
        return cls(CSRMatrix.from_dense(dense, zero))

    @property
    def csr(self) -> CSRMatrix:
        return self._csr

    @property
    def shape(self) -> tuple[int, int]:
        return self._csr.shape

    @property
    def nnz(self) -> int:
        return self._csr.nnz

    @property
    def dtype(self) -> np.dtype:
        return self._csr.dtype

    def to_dense(self, zero: object = 0) -> np.ndarray:
        return self._csr.to_dense(zero)

    # -- expression builders (delegate to a leaf of the current storage) -- #

    def _leaf(self) -> MatLeaf:
        return MatLeaf(self._csr)

    def mxm(self, other: object, semiring: Semiring = PLUS_TIMES) -> MxM:
        return self._leaf().mxm(other, semiring)

    def ewise(self, other: object, op: object = PLUS_MONOID, how: str | None = None) -> MatExpr:
        return self._leaf().ewise(other, op, how)

    def transpose(self) -> MatExpr:
        return self._leaf().transpose()

    @property
    def T(self) -> MatExpr:
        return self._leaf().transpose()

    def mxv(self, x: np.ndarray, semiring: Semiring = PLUS_TIMES) -> MxV:
        return self._leaf().mxv(x, semiring)

    def reduce_rows(self, add: Monoid = PLUS_MONOID) -> ReduceRows:
        return self._leaf().reduce_rows(add)

    def reduce_cols(self, add: Monoid = PLUS_MONOID) -> ReduceRows:
        return self._leaf().reduce_cols(add)

    def select(self, mask: object, *, complement: bool = False) -> CSRMatrix:
        """Entries allowed by *mask*, as a new CSR (``C⟨M⟩ = A`` standalone)."""
        return self._leaf().new(mask, complement=complement)

    def __matmul__(self, other: object) -> MxM:
        return self._leaf().__matmul__(other)

    def __add__(self, other: object) -> MatExpr:
        return self._leaf().__add__(other)

    def __mul__(self, other: object) -> MatExpr:
        return self._leaf().__mul__(other)

    # -- assignment ------------------------------------------------------- #

    def __call__(
        self,
        mask: object = None,
        accum: object = None,
        *,
        complement: bool = False,
        replace: bool = False,
    ) -> _MatAssign:
        return _MatAssign(self, as_mask(mask, complement), accum, replace)

    def __lshift__(self, rhs: object) -> "Mat":
        return _MatAssign(self, None, None, False).update(rhs)

    update = __lshift__

    def __repr__(self) -> str:
        return f"Mat(shape={self.shape}, nnz={self.nnz}, dtype={self.dtype})"


class _VecAssign:
    """The left-hand side of ``w(mask=…, accum=…) << vec_expr``."""

    __slots__ = ("vec", "mask", "complement", "accum", "replace")

    def __init__(
        self, vec: "Vec", mask: object, complement: bool, accum: object, replace: bool
    ) -> None:
        self.vec = vec
        self.mask = mask
        self.complement = bool(complement)
        self.accum = accum
        self.replace = bool(replace)

    def update(self, rhs: VecExpr) -> "Vec":
        from repro.assoc import planner

        if not isinstance(rhs, VecExpr):
            raise ExpressionError(
                f"vector assignment expects a VecExpr, got {type(rhs).__name__}"
            )
        if rhs.size != self.vec.size:
            raise ExpressionError(
                f"assignment length mismatch: {self.vec.size} vs {rhs.size}"
            )
        allow = _as_vec_mask(self.mask, self.complement, self.vec.size)
        result = planner.evaluate_vec(rhs, allow)
        old = self.vec.values
        dtype = np.result_type(old.dtype, result.dtype)
        out = old.astype(dtype, copy=True)
        sel = slice(None) if allow is None else allow
        if self.accum is None:
            out[sel] = result[sel]
        else:
            fn = _accum_callable(self.accum)
            out[sel] = np.asarray(fn(old[sel], result[sel])).astype(dtype, copy=False)
        if self.replace and allow is not None:
            out[~allow] = self.vec.fill
        self.vec.values = out
        return self.vec

    def __lshift__(self, rhs: VecExpr) -> "Vec":
        return self.update(rhs)


class Vec:
    """A mutable dense vector container for masked vector assignment.

    Dense vectors have no "absent entry", so ``replace`` writes *fill*
    (default 0) into the positions the mask forbids.
    """

    __slots__ = ("values", "fill")

    def __init__(self, values: np.ndarray, fill: object = 0) -> None:
        self.values = np.asarray(values)
        if self.values.ndim != 1:
            raise ExpressionError(f"Vec wraps a 1-D array, got {self.values.ndim}-D")
        self.fill = fill

    @property
    def size(self) -> int:
        return int(self.values.size)

    def __call__(
        self,
        mask: object = None,
        accum: object = None,
        *,
        complement: bool = False,
        replace: bool = False,
    ) -> _VecAssign:
        return _VecAssign(self, mask, complement, accum, replace)

    def __lshift__(self, rhs: VecExpr) -> "Vec":
        return _VecAssign(self, None, False, None, False).update(rhs)

    def __repr__(self) -> str:
        return f"Vec(size={self.size}, dtype={self.values.dtype})"
