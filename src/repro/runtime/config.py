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
from typing import Iterator

from repro.errors import RuntimeConfigError
from repro.obs import trace as _trace

__all__ = [
    "DEFAULT_SHM_MIN_BYTES",
    "RuntimeConfig",
    "configure",
    "configured",
    "get_config",
    "reset",
    "parallel_config",
    "blocked_config",
    "serial_region",
    "in_serial_region",
]

#: Backends accepted by :func:`configure`.  ``auto`` resolves to ``thread``
#: when ``workers > 1`` (NumPy kernels release the GIL) and ``serial`` otherwise.
BACKENDS = ("auto", "serial", "thread", "process")

#: Default operand-size floor for the shared-memory plane: below 1 MiB the
#: pickle copies are cheaper than the segment create/attach round trip.
DEFAULT_SHM_MIN_BYTES = 1 << 20


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

    def should_parallelize(self, work_items: int) -> bool:
        """Parallel-worthiness of an operation with *work_items* units of work."""
        return self.parallel and work_items >= self.min_parallel_work

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


def _invalidate_stale_pools(old: RuntimeConfig, new: RuntimeConfig) -> None:
    """Drain cached pools the reconfigure made stale (no-op when unchanged).

    ``get_executor`` caches pools per ``(backend, workers)``; without this a
    ``configure(workers=...)`` mid-session would leave the previous pool's
    workers alive for the rest of the process.  Imported lazily — the executor
    module imports this one at its top level.
    """
    if (old.resolved_backend(), old.workers) == (new.resolved_backend(), new.workers):
        return
    if in_serial_region():
        # a worker task reconfiguring must not drain the pool running it
        return
    from repro.runtime import executor

    executor.invalidate_stale_pools(new)


def _sync_tracing(cfg: RuntimeConfig) -> None:
    """Align the process-global tracer with ``cfg.tracing``.

    Enabling is idempotent; disabling flushes the ring to the configured sink
    first (see :func:`repro.obs.trace.flush_active`) so buffered spans are
    never silently dropped by a reconfigure.
    """
    if cfg.tracing and not _trace.is_enabled():
        _trace.enable()
    elif not cfg.tracing and _trace.is_enabled():
        _trace.disable(flush=True)


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
    global _config
    with _lock:
        cfg = _config
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
        _config = replace(cfg, **updates) if updates else cfg
        new = _config
    _invalidate_stale_pools(cfg, new)
    _sync_tracing(new)
    return new


def reset() -> RuntimeConfig:
    """Restore the default (serial) configuration."""
    global _config
    with _lock:
        previous = _config
        _config = _DEFAULT
    _invalidate_stale_pools(previous, _DEFAULT)
    _sync_tracing(_DEFAULT)
    return _config


@contextmanager
def configured(
    workers: int | None = None,
    block_rows: int | None | str = "unchanged",
    backend: str | None = None,
    min_parallel_work: int | None = None,
    shm_min_bytes: int | None | str = "unchanged",
    tracing: bool | None = None,
) -> Iterator[RuntimeConfig]:
    """Scope a configuration to a ``with`` block, restoring the previous one."""
    global _config
    with _lock:
        previous = _config
    try:
        yield configure(
            workers, block_rows, backend, min_parallel_work, shm_min_bytes, tracing
        )
    finally:
        with _lock:
            _config = previous
        _sync_tracing(previous)


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


def parallel_config(work_items: int) -> RuntimeConfig | None:
    """The active config if *work_items* should run in parallel, else ``None``.

    It folds together the opt-in (``workers > 1``), the work-size floor, and
    the nested-region guard.  The library reaches it through one gate,
    :func:`blocked_config`.
    """
    cfg = _config
    if not cfg.parallel or work_items < cfg.min_parallel_work or in_serial_region():
        return None
    return cfg


def blocked_config(work_items: int, n_rows: int) -> RuntimeConfig | None:
    """The active config if *work_items* over *n_rows* rows should run on the
    row-blocked engine (:mod:`repro.assoc.blocked`), else ``None``.

    This is the one gate: the planner's kernel dispatchers and
    :func:`repro.assoc.sparse.coalesce` both ask it.  A single row cannot be
    split, so it stays serial whatever the config.
    """
    return parallel_config(work_items) if n_rows > 1 else None
