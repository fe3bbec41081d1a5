"""Pluggable executors and the chunk-size heuristic for blocked kernels.

Two executors share one interface (ordered ``map``):

* :class:`SerialExecutor` — plain loop, zero overhead, the default;
* :class:`PoolExecutor` — a ``concurrent.futures`` pool chosen by backend
  name.  ``thread`` pools suit NumPy kernels, whose hot loops (sorting,
  ``reduceat``, fancy indexing) release the GIL so row blocks genuinely
  overlap; ``process`` pools suit workloads where the GIL-holding share
  matters, and their task payloads must pickle, which every built-in
  semiring does.

Pools are created lazily and cached per ``(backend, workers)`` so repeated
kernel calls reuse warm workers; :func:`shutdown_executors` tears them down
(registered with ``atexit``).

Every task runs through one picklable wrapper, :func:`_run_task`, inside
:func:`repro.runtime.config.serial_region`, so kernels invoked *from a
worker* never try to re-enter a pool — nested parallelism is structurally
impossible rather than merely discouraged.
"""

from __future__ import annotations

import asyncio
import atexit
import threading
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from repro.errors import RuntimeConfigError, WorkerCrashError
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.runtime import shm
from repro.runtime.config import RuntimeConfig, get_config, in_serial_region, serial_region

__all__ = [
    "SerialExecutor",
    "PoolExecutor",
    "get_executor",
    "invalidate_stale_pools",
    "shutdown_executors",
    "parallel_map",
    "async_submit",
    "choose_block_rows",
]

T = TypeVar("T")
R = TypeVar("R")

#: Progress hook signature: ``on_progress(done, total)``.  Hooks fire in task
#: *completion* order (not submission order), once per finished task.
ProgressCallback = Callable[[int, int], None]

#: Average stored-entry floor per row block: blocks thinner than this spend
#: more time in dispatch than in NumPy.
MIN_NNZ_PER_BLOCK = 1024

#: Blocks per worker the heuristic aims for — a few blocks of slack per
#: worker smooths out row-imbalance without shredding the matrix.
BLOCKS_PER_WORKER = 4


def _run_task(
    fn: Callable[[T], R], item: T, traced: bool, label: str, index: int
) -> "tuple[R, list[_trace.SpanRecord] | None]":
    """Run one task with nested parallelism disabled (picklable helper).

    Returns ``(value, records)``.  With *traced* off, ``records`` is ``None``
    and the task makes no collector and reads no clock.  With it on, the
    task's spans — its own ``runtime.task`` root plus anything the kernel
    opens beneath it — are captured into a private per-thread tracer and
    shipped back alongside the result; the dispatching side stitches them
    under its own span with :meth:`~repro.obs.trace.Tracer.adopt`.  Works
    identically in the calling thread, a pool thread and a pool process: the
    collector is thread-local state in whichever interpreter runs the task,
    and :class:`~repro.obs.trace.SpanRecord` pickles.
    """
    if not traced:
        with serial_region():
            return fn(item), None
    with _trace.collecting() as collector:
        with collector.span("runtime.task", label=label, index=index):
            with serial_region():
                result = fn(item)
    return result, collector.drain()


def _serial_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    on_progress: ProgressCallback | None,
) -> list[R]:
    out: list[R] = []
    total = len(items)
    tracer = _trace.get_tracer()
    for k, item in enumerate(items, start=1):
        value, records = _run_task(fn, item, tracer.enabled, "", k - 1)
        tracer.adopt(records or (), parent_id=tracer.current_span_id())
        out.append(value)
        if on_progress is not None:
            on_progress(k, total)
    return out


def _crash_error(
    executor: "PoolExecutor",
    exc: BrokenExecutor,
    *,
    label: str,
    task_index: int | None,
    total: int,
) -> WorkerCrashError:
    """Evict the broken pool and build the descriptive replacement error."""
    _evict(executor)
    where = (
        f"task {task_index + 1}/{total}" if task_index is not None else f"{total} pending task(s)"
    )
    what = f" of {label}" if label else ""
    _metrics.counter("runtime.worker_crashes").inc()
    return WorkerCrashError(
        f"{executor.name} pool worker died mid-run ({where}{what}): {exc}. "
        "The broken pool was evicted; the next dispatch gets a fresh one.",
        label=label,
        task_index=task_index,
    )


@contextmanager
def _map_obs(
    executor: "PoolExecutor",
    total: int,
    label: str,
) -> "Iterator[tuple[_trace.Tracer | _trace.NullTracer, _trace.Span | _trace.NullSpan]]":
    """Metrics + span scope around one pool map.

    Module-level and patchable on purpose: ``benchmarks/bench_obs_overhead.py``
    swaps this (and the kernel-side hook) for a transparent no-op to measure
    the bare hot path, which is how the ≤5% disabled-overhead gate separates
    instrumentation cost from kernel cost.
    """
    _metrics.counter("runtime.maps").inc()
    _metrics.counter("runtime.tasks_dispatched").inc(total)
    tracer = _trace.get_tracer()
    t0 = _metrics.monotonic_ns()
    with tracer.span(
        "runtime.map",
        label=label,
        backend=executor.name,
        workers=executor.workers,
        tasks=total,
    ) as span:
        yield tracer, span
    _metrics.histogram("runtime.map_ms").observe((_metrics.monotonic_ns() - t0) / 1e6)


def _span_id(span: "_trace.Span | _trace.NullSpan") -> int | None:
    """The id worker records are stitched under (``None`` when untraced)."""
    return span.span_id if isinstance(span, _trace.Span) else None


def _pool_map(
    executor: "PoolExecutor",
    fn: Callable[[T], R],
    items: Sequence[T],
    on_progress: ProgressCallback | None,
    label: str = "",
) -> list[R]:
    """Ordered pool map; with a hook, progress fires in completion order.

    The hook runs in the *calling* thread (one ``as_completed`` loop), so
    callbacks never race each other.  A task that raised still counts as done
    — its exception surfaces afterwards, when results are collected in order,
    matching plain ``Executor.map`` semantics.

    A worker that dies mid-task (segfault, ``os._exit``, OOM kill) would
    surface as an opaque ``BrokenProcessPool``; it is re-raised here as
    :class:`~repro.errors.WorkerCrashError` naming the task that was in
    flight, and the broken pool is evicted from the cache so the next
    dispatch rebuilds a usable one.  A crashed task is **not** a finished
    task: the progress hook never counts it, so ``done == total`` fires only
    when every task genuinely completed — a crash-then-retry can no longer
    observe a full progress bar with work still in flight.  Each skipped
    future is recorded in the ``runtime.tasks_crashed`` counter instead.

    When tracing is live, worker-side spans come back with each result and
    are stitched under this map's ``runtime.map`` span, one tree across
    threads and processes.
    """
    total = len(items)
    with _map_obs(executor, total, label) as (tracer, span):
        traced = tracer.enabled
        futures: "list[Future[tuple[R, list[_trace.SpanRecord] | None]]]"
        try:
            futures = [
                executor._pool.submit(_run_task, fn, item, traced, label, k)
                for k, item in enumerate(items)
            ]
        except BrokenExecutor as exc:  # pool already broken before this call
            raise _crash_error(
                executor, exc, label=label, task_index=None, total=total
            ) from exc
        if on_progress is not None:
            done = 0
            for future in as_completed(futures):
                if isinstance(future.exception(), BrokenExecutor):
                    # the worker died under this task; the caller will see a
                    # WorkerCrashError below and may retry — not progress
                    _metrics.counter("runtime.tasks_crashed").inc()
                    continue
                done += 1
                on_progress(done, total)
        out: list[R] = []
        for k, future in enumerate(futures):
            try:
                value, records = future.result()
            except BrokenExecutor as exc:
                raise _crash_error(
                    executor, exc, label=label, task_index=k, total=total
                ) from exc
            tracer.adopt(records or (), parent_id=_span_id(span))
            out.append(value)
    return out


class SerialExecutor:
    """Ordered in-thread execution; the identity executor."""

    name = "serial"
    workers = 1

    def map(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        on_progress: ProgressCallback | None = None,
        label: str = "",
    ) -> list[R]:
        return _serial_map(fn, items, on_progress)


class PoolExecutor:
    """A ``thread`` or ``process`` worker pool, named by its backend.

    ``thread`` is the best default because NumPy releases the GIL.  On
    ``process``, tasks and their arguments cross a pickle boundary; all
    built-in semirings and monoids are picklable (their operators are
    module-level functions), and large CSR operands skip that boundary
    entirely — see :mod:`repro.runtime.shm` and :meth:`RuntimeConfig.use_shm`.
    """

    def __init__(self, backend: str, workers: int) -> None:
        self.name = backend
        self.workers = int(workers)
        self._pool: ThreadPoolExecutor | ProcessPoolExecutor
        if backend == "thread":
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-runtime"
            )
        elif backend == "process":
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        else:  # pragma: no cover - BACKENDS validation makes this unreachable
            raise RuntimeConfigError(f"unknown backend {backend!r}")

    @property
    def broken(self) -> bool:
        """Whether a worker death (or failed start) has poisoned the pool."""
        return self._pool._broken is not False

    def map(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        on_progress: ProgressCallback | None = None,
        label: str = "",
    ) -> list[R]:
        return _pool_map(self, fn, items, on_progress, label)

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)


_SERIAL = SerialExecutor()
_pools: dict[tuple[str, int], PoolExecutor] = {}
_pool_lock = threading.Lock()


def _shutdown_quietly(executor: PoolExecutor) -> None:
    try:
        executor.shutdown()
    except Exception:  # pragma: no cover - broken pools may refuse teardown
        pass


def _evict(executor: PoolExecutor) -> None:
    """Drop *executor* from the cache and shut it down (crash recovery)."""
    with _pool_lock:
        for key, pool in list(_pools.items()):
            if pool is executor:
                del _pools[key]
                _metrics.counter("runtime.pools_evicted").inc()
    _shutdown_quietly(executor)


def get_executor(
    config: RuntimeConfig | None = None,
) -> SerialExecutor | PoolExecutor:
    """The executor for *config* (default: the active config), cached.

    A cached pool poisoned by a worker death is discarded here and rebuilt,
    so one crash never leaves the backend permanently unusable.
    """
    cfg = get_config() if config is None else config
    backend = cfg.resolved_backend()
    if backend == "serial" or cfg.workers == 1:
        return _SERIAL
    key = (backend, cfg.workers)
    stale: PoolExecutor | None = None
    with _pool_lock:
        pool = _pools.get(key)
        if pool is not None and pool.broken:
            stale = pool
            pool = None
        if pool is None:
            pool = _pools[key] = PoolExecutor(backend, cfg.workers)
            _metrics.counter("runtime.pools_built").inc()
    if stale is not None:
        _shutdown_quietly(stale)
    return pool


def invalidate_stale_pools(config: RuntimeConfig) -> None:
    """Drain cached pools that *config* superseded.

    Called by every transition of the active config (``configure``,
    ``reset`` and the exit of ``configured``) that changes its resolved
    ``(backend, workers)`` pair: a pool cached for the same backend under a
    different worker count is now stale — without this, its workers would
    linger for the rest of the process and a later ``get_executor()`` for
    that key could hand it back.  Pools for *other* backends stay warm
    (switching ``thread`` → ``process`` and back should not cold-start the
    thread pool).
    """
    backend = config.resolved_backend()
    with _pool_lock:
        stale_keys = [
            key for key in _pools if key[0] == backend and key[1] != config.workers
        ]
        pools = [_pools.pop(key) for key in stale_keys]
    for pool in pools:
        _metrics.counter("runtime.pools_evicted").inc()
        pool.shutdown()


def shutdown_executors() -> None:
    """Tear down every cached pool (used by tests and process exit).

    Also sweeps the shared-memory operand plane: any lease a crashed caller
    abandoned is closed and unlinked with the pools, so teardown leaves no
    ``/dev/shm`` residue.  Finally the active trace ring is export-closed —
    spans buffered at teardown are flushed to the configured sink (see
    :func:`repro.obs.trace.flush_active`) rather than silently dropped.
    """
    with _pool_lock:
        pools = list(_pools.values())
        _pools.clear()
    for pool in pools:
        pool.shutdown()
    shm.release_all()
    _trace.flush_active()


atexit.register(shutdown_executors)


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    config: RuntimeConfig | None = None,
    *,
    on_progress: ProgressCallback | None = None,
    label: str = "",
) -> list[R]:
    """Ordered map over *items* on the configured executor.

    Single-item (or serial-config) calls skip the pool entirely, and calls
    from inside a worker task stay serial rather than re-entering the
    fixed-size pool (which could deadlock), so this is safe to use
    unconditionally in fan-out helpers — nested composition included.

    ``on_progress(done, total)`` (when given) fires once per finished task,
    in **completion** order — not item order — from the calling thread.
    Results still come back in input order.

    ``label`` names the work in flight (e.g. ``"parallel_mxm (12 blocks)"``);
    it appears in the :class:`~repro.errors.WorkerCrashError` raised when a
    pool worker dies mid-run.
    """
    seq = list(items)
    if len(seq) <= 1 or in_serial_region():
        return _serial_map(fn, seq, on_progress)
    return get_executor(config).map(fn, seq, on_progress, label)


async def async_submit(
    fn: Callable[[T], R],
    item: T,
    config: RuntimeConfig | None = None,
    *,
    label: str = "",
) -> R:
    """Run one task on the configured executor without blocking the event loop.

    This is the asyncio bridge the scenario service builds on: thread and
    process configs reuse the same cached pools as :func:`parallel_map`
    (``loop.run_in_executor`` accepts a ``concurrent.futures`` pool directly),
    while a serial config runs the task on a transient thread so a blocking
    build never stalls the loop.  That hop is ``asyncio.to_thread``, which
    copies the caller's :mod:`contextvars` into the task (``run_in_executor``
    would not).  The task runs inside
    :func:`~repro.runtime.config.serial_region` either way — nested
    parallelism stays structurally impossible.

    A worker death surfaces as :class:`~repro.errors.WorkerCrashError` naming
    *label*, and the broken pool is evicted so later submissions get a fresh
    one — same contract as :func:`parallel_map`.
    """
    executor = get_executor(config)
    _metrics.counter("runtime.async_submits").inc()
    tracer = _trace.get_tracer()
    traced = tracer.enabled
    with tracer.span("runtime.async_submit", label=label, backend=executor.name) as span:
        if isinstance(executor, PoolExecutor):
            loop = asyncio.get_running_loop()
            try:
                value, records = await loop.run_in_executor(
                    executor._pool, _run_task, fn, item, traced, label, 0
                )
            except BrokenExecutor as exc:
                raise _crash_error(
                    executor, exc, label=label, task_index=None, total=1
                ) from exc
        else:
            value, records = await asyncio.to_thread(_run_task, fn, item, traced, label, 0)
        tracer.adopt(records or (), parent_id=_span_id(span))
    return value


def choose_block_rows(
    n_rows: int,
    nnz: int,
    workers: int,
    requested: int | None = None,
) -> int:
    """Rows per block for an ``n_rows``-row operand with *nnz* stored entries.

    An explicit ``requested`` (``runtime.configure(block_rows=...)``) wins.
    Otherwise aim for :data:`BLOCKS_PER_WORKER` blocks per worker, then widen
    blocks until each carries at least :data:`MIN_NNZ_PER_BLOCK` entries on
    average — thin blocks spend their time in dispatch, not arithmetic.
    """
    if n_rows <= 0:
        return 1
    if requested is not None:
        return max(1, min(int(requested), n_rows))
    target_blocks = max(1, min(workers * BLOCKS_PER_WORKER, n_rows))
    block = -(-n_rows // target_blocks)  # ceil division
    if nnz > 0:
        rows_for_min_nnz = -(-MIN_NNZ_PER_BLOCK * n_rows // nnz)
        block = max(block, min(rows_for_min_nnz, n_rows))
    return max(1, min(block, n_rows))
