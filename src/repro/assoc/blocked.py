"""The row-blocked parallel engine: one kernel table and one dispatcher.

Each blocked kernel is one :class:`BlockedKernel` row in :data:`KERNELS`,
and :func:`run_blocked` takes any row through the same steps: row partition,
transport choice, export or slicing, one map of :func:`_block_task`, then
cast and assembly.  The ``parallel_*`` entry points are one-line calls into
it.  The planner (:mod:`repro.assoc.planner`) decides *whether* a kernel
runs blocked; this module decides *how*.

**Bit-identical results.**  The serial kernels stable-sort expansion terms by
``row * n_cols + col`` and combine each run of duplicates on its own: with
``reduceat``, or left to right for float64 ``plus``.  Row blocks partition
that key space into disjoint, ordered ranges and keep the order of terms
inside each range, so per-block outputs concatenate into exactly the serial
output, float rounding included.  Masks share the operand's row
tiling and filter per row, so the fused masked kernels keep the property.

**Zero-copy process dispatch.**  On the ``process`` backend, operands above
``RuntimeConfig.shm_min_bytes`` are exported **once** into shared-memory
segments (:mod:`repro.runtime.shm`); each task ships only segment refs and
its row range, attaches, cuts its rows with the same :func:`_slice_rows` the
pickle route uses in the parent, and runs the same serial kernel, so both
routes return the same bits.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from repro.assoc import sparse as _sparse
from repro.assoc.semiring import Monoid, Semiring
from repro.assoc.sparse import CSRMatrix
from repro.obs import metrics as _obs
from repro.obs import trace as _trace
from repro.runtime import shm as _shm
from repro.runtime.config import RuntimeConfig, get_config
from repro.runtime.executor import choose_block_rows, get_executor

__all__ = [
    "BlockedKernel", "KERNELS", "run_blocked",
    "parallel_mxm", "parallel_mxv", "parallel_ewise_union", "parallel_ewise_intersect",
    "parallel_masked_mxm", "parallel_masked_mxv", "parallel_masked_intersect",
    "parallel_union_all", "parallel_coalesce",
]


def _slice_rows(csr: CSRMatrix, r0: int, r1: int) -> CSRMatrix:
    """The ``[r0:r1)`` row block of *csr* as a standalone CSR (zero-copy views)."""
    lo, hi = int(csr.indptr[r0]), int(csr.indptr[r1])
    indptr = csr.indptr[r0 : r1 + 1] - lo
    indices, data = csr.indices[lo:hi], csr.data[lo:hi]
    return CSRMatrix((r1 - r0, csr.shape[1]), indptr, indices, data, _trusted=True)


def _row_partition(n_rows: int, work: int, workers: int, requested: int | None) -> np.ndarray:
    """Block boundary rows ``[0, k, 2k, ..., n_rows]`` (always >= 1 block)."""
    block_rows = choose_block_rows(n_rows, work, workers, requested)
    # max(): a zero-row operand still gets its one (empty) block
    return np.append(np.arange(0, max(n_rows, 1), block_rows, dtype=np.int64), n_rows)


@contextmanager
def _kernel_obs(
    name: str, cfg: RuntimeConfig, nnz_in: int
) -> "Iterator[_trace.Span | _trace.NullSpan]":
    """Metrics + span scope around one blocked-kernel call.

    Counts the call (``kernels.<name>``), times it into the shared
    ``kernels.wall_ms`` histogram, and — when tracing is live — opens a
    ``kernel.<name>`` span carrying backend, worker count, and nnz in;
    callers add ``route``/``blocks``/``nnz_out`` via ``span.set(...)``.
    Module-level and patchable on purpose: ``benchmarks/bench_obs_overhead.py``
    swaps it for a transparent no-op to price the instrumentation itself.
    """
    _obs.counter(f"kernels.{name}").inc()
    tracer = _trace.get_tracer()
    t0 = _obs.monotonic_ns()
    with tracer.span(
        f"kernel.{name}", backend=cfg.resolved_backend(), workers=cfg.workers, nnz_in=nnz_in
    ) as span:
        yield span
    _obs.histogram("kernels.wall_ms").observe((_obs.monotonic_ns() - t0) / 1e6)


def _each(op: Any, on_csr: Callable, on_array: Callable) -> Any:
    """Apply *on_csr* / *on_array* to one operand (or its CSR refs / array refs)."""
    if op is None:
        return None
    if isinstance(op, (list, tuple)):
        return [_each(p, on_csr, on_array) for p in op]
    if isinstance(op, (CSRMatrix, _shm.CSRRef)):
        return on_csr(op)
    return on_array(op)


def _leaves(operands: tuple) -> Iterator[Any]:
    """Every CSR matrix and dense array inside *operands*."""
    for op in operands:
        if isinstance(op, (list, tuple)):
            yield from _leaves(op)
        elif op is not None:
            yield op


def _nnz(ops: tuple) -> int:
    return sum(leaf.nnz for leaf in _leaves(ops) if isinstance(leaf, CSRMatrix))


ROWS = "rows"  # row-sliced per block
WHOLE = "whole"  # broadcast whole to every block
EXTRA = "extra"  # a plain argument (semiring, monoid, flag), shipped as-is


@dataclass(frozen=True)
class BlockedKernel:
    """One blocked kernel: how a serial kernel is cut into row blocks.

    ``layout`` names every positional argument of ``serial`` in order:
    :data:`ROWS` and :data:`WHOLE` slots take the operands, :data:`EXTRA`
    slots take the extra arguments.  ``dtype(operands, extra)`` is the
    result dtype CSR parts are cast to before assembly — the serial
    kernel's own rule, since a block whose share of the work is empty may
    come back with a different dtype.  Rows without a dtype rule return
    dense parts, concatenated as they are.
    """

    name: str
    serial: Callable
    layout: tuple[str, ...]
    dtype: Callable | None = None

    @property
    def sliced(self) -> tuple[bool, ...]:
        return tuple(slot == ROWS for slot in self.layout if slot != EXTRA)

    def block(self, operands: tuple, r0: int, r1: int) -> tuple:
        """*operands* as one block sees them: row-sliced slots cut to ``[r0, r1)``."""
        return tuple(
            _each(op, lambda c: _slice_rows(c, r0, r1), lambda a: a[r0:r1]) if cut else op
            for op, cut in zip(operands, self.sliced)
        )

    def call(self, operands: tuple, extra: tuple) -> Any:
        ops, more = iter(operands), iter(extra)
        return self.serial(*(next(more if slot == EXTRA else ops) for slot in self.layout))


def _mxm_dtype(operands: tuple, extra: tuple) -> np.dtype:
    return _sparse._mxm_out_dtype(operands[0], operands[1], extra[0].mult)


def _union_dtype(operands: tuple, extra: tuple) -> np.dtype:
    return np.result_type(operands[0].dtype, operands[1].dtype)


def _union_all_dtype(operands: tuple, extra: tuple) -> np.dtype:
    return np.result_type(*(p.dtype for p in operands[0]))


def _intersect_dtype(operands: tuple, extra: tuple) -> np.dtype:
    return np.asarray(extra[0](operands[0].data[:1], operands[1].data[:1])).dtype


KERNELS: dict[str, BlockedKernel] = {
    k.name: k
    for k in (
        BlockedKernel("parallel_mxm", CSRMatrix._mxm_serial, (ROWS, WHOLE, EXTRA), _mxm_dtype),
        BlockedKernel("parallel_mxv", CSRMatrix._mxv_serial, (ROWS, WHOLE, EXTRA)),
        BlockedKernel("parallel_ewise_union", CSRMatrix._ewise_union_serial,
                      (ROWS, ROWS, EXTRA), _union_dtype),
        BlockedKernel("parallel_ewise_intersect", CSRMatrix._ewise_intersect_serial,
                      (ROWS, ROWS, EXTRA), _intersect_dtype),
        BlockedKernel("parallel_masked_mxm", _sparse._masked_mxm_serial,
                      (ROWS, WHOLE, EXTRA, ROWS, EXTRA), _mxm_dtype),
        BlockedKernel("parallel_masked_mxv", _sparse._masked_mxv_serial,
                      (ROWS, WHOLE, EXTRA, ROWS)),
        BlockedKernel("parallel_masked_intersect", _sparse._masked_intersect_serial,
                      (ROWS, ROWS, EXTRA, ROWS, EXTRA), _intersect_dtype),
        BlockedKernel("parallel_union_all", _sparse._union_all_serial,
                      (ROWS, EXTRA, ROWS, EXTRA), _union_all_dtype),
        # cuts triples by index range, not rows: see parallel_coalesce
        BlockedKernel("parallel_coalesce", _sparse._coalesce_core,
                      (ROWS, ROWS, ROWS, EXTRA, EXTRA)),
    )
}


def _block_task(args: tuple) -> Any:
    """Run one block.  On the shm route, *rows* is the block's range and
    *operands* are segment refs: attach, then cut the rows here."""
    kernel, operands, extra, rows = args
    if rows is not None:
        attached = tuple(_each(ref, _shm.attach_csr, _shm.attach_array) for ref in operands)
        operands = kernel.block(attached, *rows)
    return kernel.call(operands, extra)


def _map_blocks(
    kernel: BlockedKernel, operands: tuple, extra: tuple, spans: list[tuple[int, int]],
    cfg: RuntimeConfig, span: "_trace.Span | _trace.NullSpan",
) -> list:
    """Ship every ``[lo, hi)`` block of *operands* to the executor, one task each."""
    executor = get_executor(cfg)
    leaves = _leaves(operands)
    nbytes = sum(_shm.csr_nbytes(x) if isinstance(x, CSRMatrix) else x.nbytes for x in leaves)
    if cfg.use_shm(int(nbytes)):
        span.set(route="shm", blocks=len(spans))
        with _shm.OperandLease() as lease:
            refs = tuple(_each(op, lease.export_csr, lease.export_array) for op in operands)
            tasks = [(kernel, refs, extra, (lo, hi)) for lo, hi in spans]
            return executor.map(
                _block_task, tasks, label=f"{kernel.name} ({len(tasks)} shm blocks)"
            )
    span.set(route="pickle", blocks=len(spans))
    tasks = [(kernel, kernel.block(operands, lo, hi), extra, None) for lo, hi in spans]
    return executor.map(_block_task, tasks, label=f"{kernel.name} ({len(tasks)} blocks)")


def _assemble(parts: list[CSRMatrix], dtype: np.dtype) -> CSRMatrix:
    """Stack row-block results (full column range each) into one CSR."""
    offsets = np.cumsum([0] + [p.nnz for p in parts[:-1]], dtype=np.int64)
    indptr = np.concatenate([[0]] + [p.indptr[1:] + off for p, off in zip(parts, offsets)])
    indices = np.concatenate([p.indices for p in parts])
    data = np.concatenate([p.data.astype(dtype, copy=False) for p in parts])
    return CSRMatrix((indptr.size - 1, parts[0].shape[1]), indptr, indices, data, _trusted=True)


def run_blocked(
    kernel: BlockedKernel, operands: tuple, extra: tuple, config: RuntimeConfig | None = None,
    out_dtype: np.dtype | None = None,
) -> Any:
    """Run *kernel* over row blocks of *operands*; bit-identical to its serial call.

    Operand shapes are not checked here: the planner's dispatchers check
    them before they gate a call into this engine.  *out_dtype* is the
    result dtype when the caller already knows it; otherwise the kernel's
    dtype rule works it out.
    """
    cfg = get_config() if config is None else config
    work = _nnz(tuple(op for op, cut in zip(operands, kernel.sliced) if cut))
    n_rows = next(_leaves(operands)).shape[0]
    starts = _row_partition(n_rows, work, cfg.workers, cfg.block_rows)
    spans = [(int(r0), int(r1)) for r0, r1 in zip(starts[:-1], starts[1:])]
    with _kernel_obs(kernel.name, cfg, _nnz(operands)) as span:
        parts = _map_blocks(kernel, operands, extra, spans, cfg, span)
        if kernel.dtype is None:
            out = np.concatenate(parts)
            if span is not _trace.NULL_SPAN:  # count_nonzero is O(n); trace-only
                span.set(nnz_out=int(np.count_nonzero(out)))
            return out
        if out_dtype is None:
            out_dtype = kernel.dtype(operands, extra)
        out = _assemble(parts, out_dtype)
        span.set(nnz_out=out.nnz)
        return out


def parallel_mxm(
    a: CSRMatrix, b: CSRMatrix, semiring: Semiring, config: RuntimeConfig | None = None,
    total: int | None = None,
) -> CSRMatrix:
    """Row-blocked ESC product, bit-identical to the serial ``a.mxm(b)``.

    *total* is the expansion size ``b.row_nnz()[a.indices].sum()`` when the
    caller (the planner's gate) has already counted it.
    """
    out_dtype = None if total is None else _sparse._mxm_out_dtype(a, b, semiring.mult, total)
    return run_blocked(KERNELS["parallel_mxm"], (a, b), (semiring,), config, out_dtype)


def parallel_mxv(
    a: CSRMatrix, x: np.ndarray, semiring: Semiring, config: RuntimeConfig | None = None
) -> np.ndarray:
    """Row-blocked matrix-vector product."""
    return run_blocked(KERNELS["parallel_mxv"], (a, np.asarray(x)), (semiring,), config)


def parallel_ewise_union(
    a: CSRMatrix, b: CSRMatrix, add: Monoid, config: RuntimeConfig | None = None
) -> CSRMatrix:
    """Row-blocked element-wise union: both operands share one tiling."""
    return run_blocked(KERNELS["parallel_ewise_union"], (a, b), (add,), config)


def parallel_ewise_intersect(
    a: CSRMatrix, b: CSRMatrix, mult, config: RuntimeConfig | None = None  # noqa: ANN001
) -> CSRMatrix:
    """Row-blocked element-wise intersection."""
    return run_blocked(KERNELS["parallel_ewise_intersect"], (a, b), (mult,), config)


def parallel_masked_mxm(
    a: CSRMatrix, b: CSRMatrix, semiring: Semiring, mask: CSRMatrix,
    config: RuntimeConfig | None = None, total: int | None = None,
) -> CSRMatrix:
    """Row-blocked fused masked product; the mask shares ``a``'s row tiling.

    *total* is the expansion size, as for :func:`parallel_mxm`.  Every block
    is handed the product's dtype, so no block counts its expansion again.
    """
    out_dtype = _sparse._mxm_out_dtype(a, b, semiring.mult, total)
    kernel = KERNELS["parallel_masked_mxm"]
    return run_blocked(kernel, (a, b, mask), (semiring, out_dtype), config, out_dtype)


def parallel_masked_mxv(
    a: CSRMatrix, x: np.ndarray, semiring: Semiring, allow: np.ndarray,
    config: RuntimeConfig | None = None,
) -> np.ndarray:
    """Row-blocked masked matrix-vector product."""
    ops = (a, np.asarray(x), np.asarray(allow))
    return run_blocked(KERNELS["parallel_masked_mxv"], ops, (semiring,), config)


def parallel_masked_intersect(
    a: CSRMatrix, b: CSRMatrix, mult, mask: CSRMatrix, complement: bool,  # noqa: ANN001
    config: RuntimeConfig | None = None,
) -> CSRMatrix:
    """Row-blocked fused masked element-wise intersection."""
    kernel = KERNELS["parallel_masked_intersect"]
    return run_blocked(kernel, (a, b, mask), (mult, complement), config)


def parallel_union_all(
    parts: list[CSRMatrix], add: Monoid, mask: CSRMatrix | None, complement: bool,
    config: RuntimeConfig | None = None,
) -> CSRMatrix:
    """Row-blocked n-ary fused union (optionally masked) over one shared tiling."""
    ops = (list(parts), mask)
    return run_blocked(KERNELS["parallel_union_all"], ops, (add, complement), config)


def parallel_coalesce(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, shape: tuple[int, int], add: Monoid,
    config: RuntimeConfig | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partition triples by row block, coalesce blocks concurrently, concat.

    The stable block partition keeps each coordinate's duplicates in their
    original relative order inside exactly one block, so per-block stable
    sorts and run sums reproduce the serial output bit-for-bit.
    """
    cfg = get_config() if config is None else config
    n_rows = shape[0]
    block_rows = choose_block_rows(n_rows, rows.size, cfg.workers, cfg.block_rows)
    n_blocks = -(-n_rows // block_rows) if n_rows else 1
    if n_blocks <= 1 or rows.size == 0:
        # zero triples would leave every block empty below (nothing to
        # concatenate); the serial core already handles that shape exactly
        return _sparse._coalesce_core(rows, cols, vals, shape, add)
    kernel = KERNELS["parallel_coalesce"]
    with _kernel_obs(kernel.name, cfg, int(rows.size)) as span:
        block_id = rows // np.int64(block_rows)
        order = np.argsort(block_id, kind="stable")
        triples = (rows[order], cols[order], vals[order])
        bounds = np.concatenate([[0], np.cumsum(np.bincount(block_id, minlength=n_blocks))])
        spans = [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
        parts = _map_blocks(kernel, triples, (shape, add), spans, cfg, span)
        out_r, out_c, out_v = (np.concatenate(column) for column in zip(*parts))
        span.set(nnz_out=int(out_r.size))
        return out_r, out_c, out_v
