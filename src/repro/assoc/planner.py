"""The fusing planner: expression trees → staged, runtime-dispatched kernels.

:func:`evaluate` walks a :class:`~repro.assoc.expr.MatExpr` /
:class:`~repro.assoc.expr.VecExpr` tree and executes it bottom-up, applying
the fusion rules.  Plan, evaluate and execute are that one walk:
:func:`plan` (matrix or vector expressions) takes it without running a
kernel and returns an inspectable :class:`Plan`, so tests (and the
masked-mxm benchmark) can assert *which* kernels an evaluation runs, and
:meth:`Plan.execute` takes it with a stopwatch around each kernel.  Only
:func:`_step` tells the three apart.

Fusion rules:

* **transpose folding** — a transposed leaf resolves against the operand's
  cached transpose (the descriptor path: one rebuild ever); a transpose above
  a compound expression pushes the *mask* through the transposition instead
  (``(Aᵀ)⟨M⟩ = (A⟨Mᵀ⟩)ᵀ``), so the child still evaluates fused;
* **mask pushdown** — masks distribute over element-wise unions and the left
  operand of intersections, so each sub-expression evaluates already-masked;
* **fused masked kernels** — a non-complemented mask on ``mxm`` runs the
  masked ESC kernel (masked-out rows are never expanded; the full product is
  never materialised), or, for a serial int64 or float64 ``plus.times``
  product, its native counterpart (mask-touched rows only, merged with the
  mask); masks on unions/intersections filter triples before the coalesce
  sort; a *complemented* mask on ``mxm`` is the one case that computes the
  full product and filters (the complement of a sparse mask keeps almost
  every entry, so there is nothing to skip);
* **union chain collapse** — ``A + B + C`` (same monoid) runs one
  concatenate + coalesce instead of two pairwise unions.

Every kernel dispatch goes through one gate,
:func:`repro.runtime.config.blocked_config`, so plain and fused masked
kernels run on the same row-blocked engine (:mod:`repro.assoc.blocked`) with
the same bit-identical serial ≡ parallel guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.assoc import blocked
from repro.assoc import expr as E
from repro.assoc.semiring import Monoid, Semiring
from repro.assoc.sparse import (
    CSRMatrix,
    _masked_intersect_serial,
    _masked_mxm_serial,
    _masked_mxv_serial,
    _masked_reduce_rows_serial,
    _mxm_out_dtype,
    _native_masked_mxm,
    _native_mxm,
    _takes_native,
    _union_all_serial,
    masked_select,
)
from repro.errors import ExpressionError, SparseFormatError
from repro.obs import metrics as _obs
from repro.obs import trace as _trace
from repro.runtime.config import blocked_config

__all__ = [
    "Step",
    "StepProfile",
    "Plan",
    "plan",
    "evaluate",
    "evaluate_vec",
]


@dataclass(frozen=True)
class Step:
    """One kernel invocation in a plan."""

    kernel: str
    fused_mask: bool = False
    note: str = ""

    def __str__(self) -> str:
        suffix = "[fused mask]" if self.fused_mask else ""
        return f"{self.kernel}{suffix}"


@dataclass(frozen=True)
class StepProfile:
    """Measured cost of one executed plan step.

    ``wall_ns`` is the step's monotonic wall time; ``nnz`` is the stored-entry
    count of the step's result (``None`` when the result has no sparsity
    notion).  Produced by :meth:`Plan.execute`, rendered by
    :meth:`Plan.explain` with ``profile=True`` — the ground-truth input for
    the ROADMAP's cost-based planner.
    """

    kernel: str
    wall_ns: int
    nnz: int | None = None

    @property
    def wall_ms(self) -> float:
        return self.wall_ns / 1e6


@dataclass(frozen=True)
class Plan:
    """The ordered kernel schedule an evaluation will follow.

    ``expr``/``mask`` carry the tree the plan was built from (excluded from
    equality: two plans with the same kernel schedule compare equal), which
    is what :meth:`typecheck` and :meth:`explain` operate on.
    """

    steps: tuple[Step, ...]
    expr: object | None = field(default=None, compare=False, repr=False)
    mask: object | None = field(default=None, compare=False, repr=False)
    profile: tuple[StepProfile, ...] | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def kernels(self) -> tuple[str, ...]:
        return tuple(step.kernel for step in self.steps)

    @property
    def uses_fused_mask(self) -> bool:
        return any(step.fused_mask for step in self.steps)

    @property
    def materializes_unmasked(self) -> bool:
        """True when the plan computes a full result and filters afterwards
        (only the complement-masked ``mxm`` path does)."""
        return "mask_filter" in self.kernels

    def describe(self) -> str:
        return " -> ".join(str(step) for step in self.steps) or "(empty)"

    def typecheck(self):  # noqa: ANN201 - ExprType, imported lazily
        """Statically prove the plan's expression well-shaped before running.

        Returns the inferred :class:`~repro.staticcheck.shapes.ExprType`
        (result shape + dtype); raises
        :class:`~repro.errors.ShapeInferenceError` naming the offending
        subtree for trees the builder methods never validated (raw node
        construction, stale operands, mismatched masks).
        """
        from repro.staticcheck import shapes

        if self.expr is None:
            raise ExpressionError(
                "plan carries no expression tree to typecheck (it was built "
                "directly from steps, not by plan())"
            )
        if isinstance(self.expr, E.VecExpr):
            return shapes.infer_vec(self.expr, self.mask)
        return shapes.infer(self.expr, self.mask)

    def execute(self):  # noqa: ANN201 - CSRMatrix | np.ndarray
        """Run the plan's expression, recording a per-step profile.

        Returns the evaluation result and stores one :class:`StepProfile`
        per plan step (measured wall time plus result nnz) on
        :attr:`profile`, aligned 1:1 with :attr:`steps`: the walk
        :func:`plan` and :func:`evaluate` take, with a stopwatch around each
        kernel.  When tracing is live each step additionally opens a
        ``plan.<kernel>`` span, so traced runs show the plan tree inside the
        trace timeline.
        """
        if self.expr is None:
            raise ExpressionError(
                "plan carries no expression tree to execute (it was built "
                "directly from steps, not by plan())"
            )
        _obs.counter("planner.executions").inc()
        walk = _Walk(run=True)
        result = _walk_any(self.expr, self.mask, walk)
        object.__setattr__(self, "profile", tuple(walk.costs))
        return result

    def explain(self, profile: bool = False) -> str:
        """The kernel schedule plus the typed expression tree — and, for an
        ill-shaped tree, the ``!!``-marked subtree that fails inference.

        With ``profile=True`` (after :meth:`execute`), each step is annotated
        with its measured wall time and result nnz, plus a total line.
        """
        from repro.staticcheck import shapes

        lines = [f"plan: {self.describe()}"]
        if profile:
            if self.profile is None:
                raise ExpressionError(
                    "no recorded profile — call Plan.execute() before "
                    "explain(profile=True)"
                )
            width = max((len(str(step)) for step in self.steps), default=4)
            lines.append("profile:")
            for k, (step, prof) in enumerate(zip(self.steps, self.profile), start=1):
                nnz = f"  nnz={prof.nnz}" if prof.nnz is not None else ""
                lines.append(
                    f"  {k:>2}. {str(step).ljust(width)}  {prof.wall_ms:>9.3f} ms{nnz}"
                )
            total = sum(p.wall_ns for p in self.profile) / 1e6
            lines.append(f"      {'total'.ljust(width)}  {total:>9.3f} ms")
        if self.mask is not None:
            lines.append(f"mask: {self.mask!r}")
        if self.expr is not None:
            lines.append(shapes.annotate(self.expr))
        return "\n".join(lines)


# --------------------------------------------------------------------------- #
# runtime-gated dispatch helpers
#
# These eight helpers are the only place a planned kernel chooses between its
# serial kernel and the row-blocked engine (``repro.assoc.blocked``): each
# checks its operand shapes, then asks ``blocked_config``.  The serial
# branches keep their early returns and the route counters; the two product
# dispatchers then ask the one route gate, ``_takes_native``.
# ``sparse.coalesce`` asks ``blocked_config`` itself, because it runs below
# the planner.  How a gated call travels (pickled row blocks, or
# shared-memory segments on the ``process`` backend) is decided inside the
# blocked engine and is invisible here: both routes run the same serial
# kernels over the same row partition.
# --------------------------------------------------------------------------- #


def _dispatch_mxm(a: CSRMatrix, b: CSRMatrix, semiring: Semiring) -> CSRMatrix:
    if a.shape[1] != b.shape[0]:
        raise SparseFormatError(f"inner dimension mismatch: {a.shape} @ {b.shape}")
    out_shape = (a.shape[0], b.shape[1])
    if a.nnz == 0 or b.nnz == 0:
        return CSRMatrix.empty(out_shape, np.result_type(a.dtype, b.dtype))
    counts = b.row_nnz()[a.indices]  # products contributed by each A entry
    total = int(counts.sum())
    if total == 0:
        return CSRMatrix.empty(out_shape, np.result_type(a.dtype, b.dtype))
    cfg = blocked_config(total, a.shape[0])
    if cfg is not None:
        return blocked.parallel_mxm(a, b, semiring, cfg, total)
    if _takes_native(a, b, semiring):
        _obs.counter("assoc.route.native").inc()
        return _native_mxm(a, b)
    _obs.counter("assoc.route.esc").inc()
    return a._mxm_serial(b, semiring, counts, total)


def _dispatch_mxv(a: CSRMatrix, x: np.ndarray, semiring: Semiring) -> np.ndarray:
    x = np.asarray(x)
    if x.shape != (a.shape[1],):
        raise SparseFormatError(f"vector length {x.shape} != {(a.shape[1],)}")
    cfg = blocked_config(a.nnz, a.shape[0])
    if cfg is not None:
        return blocked.parallel_mxv(a, x, semiring, cfg)
    return a._mxv_serial(x, semiring)


def _dispatch_ewise_union(a: CSRMatrix, b: CSRMatrix, add: Monoid) -> CSRMatrix:
    a._check_shape(b)
    cfg = blocked_config(a.nnz + b.nnz, a.shape[0])
    if cfg is not None:
        return blocked.parallel_ewise_union(a, b, add, cfg)
    return a._ewise_union_serial(b, add)


def _dispatch_ewise_intersect(a: CSRMatrix, b: CSRMatrix, mult) -> CSRMatrix:  # noqa: ANN001
    a._check_shape(b)
    cfg = blocked_config(a.nnz + b.nnz, a.shape[0])
    if cfg is not None:
        return blocked.parallel_ewise_intersect(a, b, mult, cfg)
    return a._ewise_intersect_serial(b, mult)


def _dispatch_masked_mxm(
    a: CSRMatrix, b: CSRMatrix, semiring, mask: CSRMatrix  # noqa: ANN001
) -> CSRMatrix:
    if a.shape[1] != b.shape[0]:
        raise SparseFormatError(f"inner dimension mismatch: {a.shape} @ {b.shape}")
    work = int(b.row_nnz()[a.indices].sum()) if a.nnz and b.nnz else 0
    cfg = blocked_config(work, a.shape[0])
    if cfg is not None:
        return blocked.parallel_masked_mxm(a, b, semiring, mask, cfg, work)
    if _takes_native(a, b, semiring):
        _obs.counter("assoc.route.native").inc()
        return _native_masked_mxm(a, b, mask)
    _obs.counter("assoc.route.esc").inc()
    return _masked_mxm_serial(a, b, semiring, mask, _mxm_out_dtype(a, b, semiring.mult, work))


def _dispatch_union_all(
    parts: list[CSRMatrix], add, mask: CSRMatrix | None, complement: bool  # noqa: ANN001
) -> CSRMatrix:
    cfg = blocked_config(sum(p.nnz for p in parts), parts[0].shape[0])
    if cfg is not None:
        return blocked.parallel_union_all(parts, add, mask, complement, cfg)
    return _union_all_serial(parts, add, mask, complement)


def _dispatch_masked_intersect(
    a: CSRMatrix, b: CSRMatrix, mult, mask: CSRMatrix, complement: bool  # noqa: ANN001
) -> CSRMatrix:
    cfg = blocked_config(a.nnz + b.nnz, a.shape[0])
    if cfg is not None:
        return blocked.parallel_masked_intersect(a, b, mult, mask, complement, cfg)
    return _masked_intersect_serial(a, b, mult, mask, complement)


def _dispatch_masked_mxv(
    a: CSRMatrix, x: np.ndarray, semiring, allow: np.ndarray  # noqa: ANN001
) -> np.ndarray:
    cfg = blocked_config(a.nnz, a.shape[0])
    if cfg is not None:
        return blocked.parallel_masked_mxv(a, x, semiring, allow, cfg)
    return _masked_mxv_serial(a, x, semiring, allow)


# --------------------------------------------------------------------------- #
# the walk: evaluation, planning and profiling
# --------------------------------------------------------------------------- #


class _Walk:
    """What one :func:`plan` (``run=False``: steps only, no kernel runs) or
    :meth:`Plan.execute` (``run=True``: steps, run and costed) walk records."""

    __slots__ = ("run", "steps", "costs")

    def __init__(self, run: bool) -> None:
        self.run = run
        self.steps: list[Step] = []
        self.costs: list[StepProfile] = []


def _result_nnz(result: object) -> int | None:
    """The stored-entry count of a step result (``None`` when meaningless)."""
    nnz = getattr(result, "nnz", None)
    if nnz is not None:
        return int(nnz)
    if isinstance(result, np.ndarray):
        return int(np.count_nonzero(result))
    return None


def _step(  # noqa: ANN201
    walk: _Walk | None, kernel: str, thunk, fused_mask: bool = False, note: str = ""  # noqa: ANN001
):
    """One plan step: the only place plan, evaluate and execute differ.

    Plain :func:`evaluate` (``walk is None``) is a bare ``thunk()``: no
    :class:`Step`, no clock, no span.  A planning walk records the
    :class:`Step` and returns ``None`` without running the kernel (parents
    hand child results only to thunks, which then never run either).  An
    executing walk records the step, runs the thunk inside a
    ``plan.<kernel>`` span and records its :class:`StepProfile`, so the
    profile aligns 1:1 with the steps by construction.
    """
    if walk is None:
        return thunk()
    walk.steps.append(Step(kernel, fused_mask, note))
    if not walk.run:
        return None
    t0 = _obs.monotonic_ns()
    with _trace.get_tracer().span(f"plan.{kernel}"):
        out = thunk()
    walk.costs.append(StepProfile(kernel, _obs.monotonic_ns() - t0, _result_nnz(out)))
    return out


def evaluate(e: E.MatExpr, mask: E.Mask | None = None) -> CSRMatrix:
    """Execute a matrix expression, fusing *mask* into the kernels."""
    return _walk_mat(e, mask, None)


def evaluate_vec(v: E.VecExpr, allow: np.ndarray | None = None) -> np.ndarray:
    """Execute a vector expression; *allow* is a dense boolean row mask with
    any complement already applied."""
    return _walk_vec(v, allow, None)


def plan(e: E.MatExpr | E.VecExpr, mask: E.Mask | np.ndarray | None = None) -> Plan:
    """The kernel schedule evaluation follows: the evaluation walk, run
    without executing a kernel.  For a vector expression *mask* is the dense
    boolean row mask :func:`evaluate_vec` takes."""
    walk = _Walk(run=False)
    _walk_any(e, mask, walk)
    return Plan(tuple(walk.steps), expr=e, mask=mask)


def _walk_any(e, mask, walk: _Walk):  # noqa: ANN001, ANN202
    return (_walk_vec if isinstance(e, E.VecExpr) else _walk_mat)(e, mask, walk)


def _walk_mat(e: E.MatExpr, mask: E.Mask | None, walk: _Walk | None) -> CSRMatrix:
    if mask is not None and mask.shape != e.shape:
        raise ExpressionError(f"mask shape {mask.shape} does not match expression shape {e.shape}")
    if isinstance(e, E.MatLeaf):
        note = "transposed (cached descriptor)" if e.transposed else ""
        csr = _step(walk, "leaf", e.resolve, note=note)
        if mask is None:
            return csr
        select = lambda: masked_select(csr, mask.pattern, mask.complement)
        return _step(walk, "masked_select", select, fused_mask=True)
    if isinstance(e, E.MxM):
        a = _walk_mat(e.left, None, walk)
        b = _walk_mat(e.right, None, walk)
        if mask is None or mask.complement:
            full = _step(walk, "mxm", lambda: _dispatch_mxm(a, b, e.semiring))
            if mask is None:
                return full
            filtered = lambda: masked_select(full, mask.pattern, True)
            note = "complement mask: full product then filter"
            return _step(walk, "mask_filter", filtered, note=note)
        fused = lambda: _dispatch_masked_mxm(a, b, e.semiring, mask.pattern)
        return _step(walk, "masked_mxm", fused, True, "masked rows never expanded")
    if isinstance(e, E.UnionAll):
        n = len(e.parts)
        if mask is None:
            parts = [_walk_mat(p, None, walk) for p in e.parts]
            if n == 2:
                union = lambda: _dispatch_ewise_union(parts[0], parts[1], e.add)
                return _step(walk, "ewise_union", union)
            if n == 1:  # a pass-through, still one step
                union = lambda: parts[0]
            else:
                union = lambda: _dispatch_union_all(parts, e.add, None, False)
            return _step(walk, "union_all", union, note=f"{n}-way fused")
        # mask pushdown only into compound children (their evaluation fuses
        # it); leaf operands stay unfiltered and the fused union kernel
        # filters their triples inline, pre-sort — no double filtering of
        # leaves, and no intermediate per-leaf selects
        parts = [_walk_mat(p, None if isinstance(p, E.MatLeaf) else mask, walk) for p in e.parts]
        if n == 1:
            union = lambda: masked_select(parts[0], mask.pattern, mask.complement)
        else:
            union = lambda: _dispatch_union_all(parts, e.add, mask.pattern, mask.complement)
        return _step(walk, "masked_union", union, True, f"{n}-way fused, triples filtered pre-sort")
    if isinstance(e, E.EWiseMult):
        # mask pushdown: (A⟨M⟩ ⊗ B) == (A ⊗ B)⟨M⟩.  A leaf left operand is
        # filtered once, inline in the fused kernel; a compound left operand
        # evaluates fused under the mask (the kernel's re-check of its
        # already-restricted triples is the cheaper side of that trade)
        a = _walk_mat(e.left, None if isinstance(e.left, E.MatLeaf) else mask, walk)
        b = _walk_mat(e.right, None, walk)
        if mask is None:
            return _step(walk, "ewise_intersect", lambda: _dispatch_ewise_intersect(a, b, e.mult))
        fused = lambda: _dispatch_masked_intersect(a, b, e.mult, mask.pattern, mask.complement)
        return _step(walk, "masked_intersect", fused, True, "mask pushed to left operand")
    if isinstance(e, E.TransposeExpr):
        child = _walk_mat(e.child, None if mask is None else mask.transpose(), walk)
        note = "" if mask is None else "mask pushed through transpose"
        return _step(walk, "transpose", lambda: child.transpose(), note=note)
    raise ExpressionError(f"unknown expression node {type(e).__name__}")


def _walk_vec(v: E.VecExpr, allow: np.ndarray | None, walk: _Walk | None) -> np.ndarray:
    if not isinstance(v, (E.MxV, E.ReduceRows)):
        raise ExpressionError(f"unknown vector expression node {type(v).__name__}")
    a = _walk_mat(v.mat, None, walk)
    if isinstance(v, E.MxV):
        if allow is None:
            return _step(walk, "mxv", lambda: _dispatch_mxv(a, v.x, v.semiring))
        fused = lambda: _dispatch_masked_mxv(a, v.x, v.semiring, allow)
        return _step(walk, "masked_mxv", fused, True, "masked rows skipped")
    if allow is None:
        return _step(walk, "reduce_rows", lambda: a.reduce_rows(v.add))
    fused = lambda: _masked_reduce_rows_serial(a, v.add, allow)
    return _step(walk, "masked_reduce_rows", fused, True)
