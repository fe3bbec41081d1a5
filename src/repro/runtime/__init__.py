"""Pluggable parallel runtime for the GraphBLAS-style sparse engine.

The runtime decouples *what* the semiring kernels compute from *how* the work
is scheduled.  :mod:`repro.assoc` stays the algebra layer; this package owns
worker pools, chunking heuristics and host detection, so scaling the engine is
a configuration change, not a rewrite::

    from repro import runtime

    runtime.configure(workers=4, block_rows=256)   # opt in, process-wide
    C = A.mxm(B, MIN_PLUS)                          # now runs blocked-parallel

    with runtime.configured(workers=1):             # scoped opt-out
        C_serial = A.mxm(B, MIN_PLUS)

Work runs on a :class:`SerialExecutor` or on a :class:`PoolExecutor` (a
``thread`` or ``process`` pool, cached per ``(backend, workers)``); every
task takes the same path through both, traced or not.

Serial and parallel paths produce **bit-identical** results: row-blocked
execution preserves the exact per-row term order the serial ESC kernel uses,
so even non-associative float rounding matches.

On the ``process`` backend, operands above ``shm_min_bytes`` travel through
:mod:`multiprocessing.shared_memory` segments instead of being pickled into
every row-block task — see :mod:`repro.runtime.shm`.  Identity is unaffected:
the plane changes how bytes move, never what is computed.
"""

from repro.runtime import shm
from repro.runtime.backends import (
    EnvironmentInfo,
    cpu_count,
    detect,
    has_scipy,
    recommended_workers,
)
from repro.runtime.config import (
    BACKENDS,
    DEFAULT_SHM_MIN_BYTES,
    RuntimeConfig,
    configure,
    configured,
    get_config,
    in_serial_region,
    reset,
    serial_region,
)
from repro.runtime.executor import (
    PoolExecutor,
    SerialExecutor,
    async_submit,
    choose_block_rows,
    get_executor,
    invalidate_stale_pools,
    parallel_map,
    shutdown_executors,
)
from repro.runtime.shm import (
    ArrayRef,
    CSRRef,
    OperandLease,
    attach_array,
    attach_csr,
    csr_nbytes,
    detach_all,
    live_segment_names,
    release_all,
)

__all__ = [
    "BACKENDS",
    "DEFAULT_SHM_MIN_BYTES",
    "RuntimeConfig",
    "configure",
    "configured",
    "get_config",
    "reset",
    "serial_region",
    "in_serial_region",
    "EnvironmentInfo",
    "detect",
    "cpu_count",
    "has_scipy",
    "recommended_workers",
    "SerialExecutor",
    "PoolExecutor",
    "get_executor",
    "invalidate_stale_pools",
    "shutdown_executors",
    "parallel_map",
    "async_submit",
    "choose_block_rows",
    "shm",
    "ArrayRef",
    "CSRRef",
    "OperandLease",
    "attach_array",
    "attach_csr",
    "csr_nbytes",
    "detach_all",
    "live_segment_names",
    "release_all",
]
