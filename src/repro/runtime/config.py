"""Process-wide runtime configuration for the parallel sparse engine.

One immutable :class:`RuntimeConfig` governs how the blocked kernels in
:mod:`repro.assoc.blocked` split and schedule work.  Callers opt in with::

    from repro import runtime
    runtime.configure(workers=4, block_rows=256)

and every semiring ``mxm`` / ``mxv`` / element-wise op / ``coalesce`` routed
through :class:`~repro.assoc.sparse.CSRMatrix` picks the setting up — no call
sites change.  ``configured(...)`` scopes a setting to a ``with`` block, which
is what the tests and benchmarks use.

A thread-local *serial region* flag prevents nested parallelism: tasks already
running inside one of our executors see a serial config, so a parallel
``mxm``'s per-block ``coalesce`` never tries to spawn a second pool.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Iterator

from repro.errors import RuntimeConfigError
from repro.obs import trace as _trace

__all__ = [
    "DEFAULT_SHM_MIN_BYTES",
    "RuntimeConfig",
    "configure",
    "configured",
    "get_config",
    "reset",
    "blocked_config",
    "INLINE_MAX_WORK",
    "runs_inline",
    "serial_region",
    "in_serial_region",
]

#: Backends accepted by :func:`configure`.  ``auto`` resolves to ``thread``
#: when ``workers > 1`` (NumPy kernels release the GIL) and ``serial`` otherwise.
BACKENDS = ("auto", "serial", "thread", "process")

#: Default operand-size floor for the shared-memory plane: below 1 MiB the
#: pickle copies are cheaper than the segment create/attach round trip.
DEFAULT_SHM_MIN_BYTES = 1 << 20

#: Work ceiling (a scenario build's ``n² × layers``) for running a task on the
#: event loop's own thread (see :func:`runs_inline`).  Over 3000
#: ``random_spec`` specs on one pinned CPU, ``n² × layers`` is at most 2304
#: (p50 324) and a build takes at most 0.74 ms (p99 0.47 ms), so 4096 keeps
#: every cold build inline while larger builds still leave the loop.
INLINE_MAX_WORK = 4096


@dataclass(frozen=True)
class RuntimeConfig:
    """Immutable snapshot of the engine settings.

    Parameters
    ----------
    workers:
        Number of parallel workers.  ``1`` keeps every kernel on the classic
        serial path.
    block_rows:
        Rows per block when the blocked engine (:mod:`repro.assoc.blocked`)
        cuts a kernel's operands into row blocks.  ``None`` defers to the
        chunk-size heuristic (:func:`repro.runtime.executor.choose_block_rows`).
    backend:
        One of :data:`BACKENDS`.  ``process`` requires picklable semirings —
        all built-ins qualify.
    min_parallel_work:
        Work-item floor (expanded product terms, nnz, …) below which kernels
        stay serial; splitting tiny operands costs more than it saves.
    shm_min_bytes:
        Operand-size floor (bytes) above which the ``process`` backend ships
        operands through :mod:`multiprocessing.shared_memory` segments instead
        of pickling a copy into every row-block task (see
        :mod:`repro.runtime.shm`).  Small operands keep the pickle path — the
        segment round trip only pays for itself once the per-task copies
        dominate.  ``None`` disables the shared-memory plane entirely.
    tracing:
        Whether the :mod:`repro.obs` span tracer is live.  Off by default —
        the always-on metrics registry never depends on this flag; tracing
        records per-span ring entries and is the opt-in, heavier half.  The
        ``REPRO_TRACE`` environment variable pre-enables it at import.
    """

    workers: int = 1
    block_rows: int | None = None
    backend: str = "auto"
    min_parallel_work: int = 4096
    shm_min_bytes: int | None = DEFAULT_SHM_MIN_BYTES
    tracing: bool = False

    def __post_init__(self) -> None:
        if int(self.workers) < 1:
            raise RuntimeConfigError(f"workers must be >= 1, got {self.workers}")
        if self.block_rows is not None and int(self.block_rows) < 1:
            raise RuntimeConfigError(f"block_rows must be >= 1 or None, got {self.block_rows}")
        if self.backend not in BACKENDS:
            raise RuntimeConfigError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        if int(self.min_parallel_work) < 0:
            raise RuntimeConfigError(
                f"min_parallel_work must be >= 0, got {self.min_parallel_work}"
            )
        if self.shm_min_bytes is not None and int(self.shm_min_bytes) < 0:
            raise RuntimeConfigError(
                f"shm_min_bytes must be >= 0 or None, got {self.shm_min_bytes}"
            )

    def resolved_backend(self) -> str:
        """The concrete backend after ``auto`` resolution."""
        if self.backend != "auto":
            return self.backend
        return "thread" if self.workers > 1 else "serial"

    @property
    def parallel(self) -> bool:
        """Whether this config can ever run kernels in parallel."""
        return self.workers > 1 and self.resolved_backend() != "serial"

    def use_shm(self, operand_bytes: int) -> bool:
        """Whether process-backend operands of *operand_bytes* go zero-copy.

        True only when all three hold: the shared-memory plane is enabled
        (``shm_min_bytes is not None``), the resolved backend actually crosses
        a pickle boundary (``process`` with more than one worker), and the
        operands are heavy enough to amortise the segment round trip.
        """
        return (
            self.shm_min_bytes is not None
            and self.workers > 1
            and self.resolved_backend() == "process"
            and operand_bytes >= self.shm_min_bytes
        )


_DEFAULT = RuntimeConfig(tracing=_trace.is_enabled())
_lock = threading.Lock()
_config: RuntimeConfig = _DEFAULT
_tls = threading.local()


def get_config() -> RuntimeConfig:
    """The active process-wide configuration."""
    return _config


def _switch(make: Callable[[RuntimeConfig], RuntimeConfig]) -> RuntimeConfig:
    """The one config transition: swap, drain superseded pools, sync tracing.

    :func:`configure`, :func:`reset` and the exit of :func:`configured` all go
    through here; *make* maps the active config to its successor under the
    lock.  A transition that changes the resolved ``(backend, workers)`` pair
    drains the pools it superseded
    (:func:`repro.runtime.executor.invalidate_stale_pools`), so superseded
    workers never linger for the rest of the process — except inside a worker
    task, which must not drain the pool running it.  The executor module is
    imported lazily because it imports this one at its top level.

    The process-global tracer is then aligned with ``tracing``: enabling is
    idempotent, and disabling flushes the ring to the configured sink first
    (see :func:`repro.obs.trace.flush_active`) so buffered spans are never
    silently dropped by a reconfigure.
    """
    global _config
    with _lock:
        old = _config
        new = _config = make(old)
    shape = (new.resolved_backend(), new.workers)
    if (old.resolved_backend(), old.workers) != shape and not in_serial_region():
        from repro.runtime import executor

        executor.invalidate_stale_pools(new)
    if new.tracing and not _trace.is_enabled():
        _trace.enable()
    elif not new.tracing and _trace.is_enabled():
        _trace.disable(flush=True)
    return new


def configure(
    workers: int | None = None,
    block_rows: int | None | str = "unchanged",
    backend: str | None = None,
    min_parallel_work: int | None = None,
    shm_min_bytes: int | None | str = "unchanged",
    tracing: bool | None = None,
) -> RuntimeConfig:
    """Update the process-wide config in place; unspecified fields persist.

    ``block_rows`` and ``shm_min_bytes`` accept ``None`` explicitly (meaning
    "use the heuristic" and "disable the shared-memory plane" respectively),
    so their unchanged sentinel is the string ``"unchanged"``.
    Returns the new active config.

    A reconfigure that changes the resolved ``(backend, workers)`` pair also
    drains the now-stale cached executor pool — ``get_executor`` never hands
    back a pool built for a superseded worker count, and the superseded
    workers do not linger for the rest of the process.
    """
    updates: dict[str, object] = {}
    if workers is not None:
        updates["workers"] = int(workers)
    if block_rows != "unchanged":
        updates["block_rows"] = None if block_rows is None else int(block_rows)
    if backend is not None:
        updates["backend"] = backend
    if min_parallel_work is not None:
        updates["min_parallel_work"] = int(min_parallel_work)
    if shm_min_bytes != "unchanged":
        updates["shm_min_bytes"] = None if shm_min_bytes is None else int(shm_min_bytes)
    if tracing is not None:
        updates["tracing"] = bool(tracing)
    return _switch(lambda cfg: replace(cfg, **updates) if updates else cfg)


def reset() -> RuntimeConfig:
    """Restore the default (serial) configuration."""
    return _switch(lambda _: _DEFAULT)


@contextmanager
def configured(
    workers: int | None = None,
    block_rows: int | None | str = "unchanged",
    backend: str | None = None,
    min_parallel_work: int | None = None,
    shm_min_bytes: int | None | str = "unchanged",
    tracing: bool | None = None,
) -> Iterator[RuntimeConfig]:
    """Scope a configuration to a ``with`` block, restoring the previous one.

    Both ends are full transitions: leaving the block drains the pools the
    scoped config built for the restored backend, just as a ``configure``
    back to the previous setting would.
    """
    previous = _config
    try:
        yield configure(
            workers, block_rows, backend, min_parallel_work, shm_min_bytes, tracing
        )
    finally:
        _switch(lambda _: previous)


def in_serial_region() -> bool:
    """True inside an executor task, where nested parallelism is forbidden."""
    return bool(getattr(_tls, "serial_depth", 0))


@contextmanager
def serial_region() -> Iterator[None]:
    """Mark the current thread as already-parallel (kernels stay serial)."""
    _tls.serial_depth = getattr(_tls, "serial_depth", 0) + 1
    try:
        yield
    finally:
        _tls.serial_depth -= 1


def blocked_config(work_items: int, n_rows: int) -> RuntimeConfig | None:
    """The active config if *work_items* over *n_rows* rows should run on the
    row-blocked engine (:mod:`repro.assoc.blocked`), else ``None``.

    This is the one gate: the planner's kernel dispatchers and
    :func:`repro.assoc.sparse.coalesce` both ask it.  It folds together the
    opt-in (``workers > 1`` on a non-serial backend), the work-size floor
    (``min_parallel_work``), the nested-region guard (work already inside a
    worker task stays serial), and the row count: a single row cannot be
    split, so it stays serial whatever the config.
    """
    cfg = _config
    if (
        n_rows <= 1
        or not cfg.parallel
        or work_items < cfg.min_parallel_work
        or in_serial_region()
    ):
        return None
    return cfg


def runs_inline(work: int | None, config: RuntimeConfig | None = None) -> bool:
    """Whether a task of *work* items should run on the caller's own thread.

    The gate :func:`repro.runtime.executor.async_submit` asks before it hops
    off the event loop.  Only a serial config (*config*, else the active one)
    with a declared *work* of at most :data:`INLINE_MAX_WORK` says yes: a
    hand-off that does no parallel work costs more than a build that small,
    and an undeclared cost is never assumed small.
    """
    cfg = _config if config is None else config
    return work is not None and not cfg.parallel and work <= INLINE_MAX_WORK
