"""Environment detection for the runtime: cores, optional scipy, defaults.

Nothing here imports heavy modules at import time — scipy presence is probed
through ``importlib.util.find_spec`` so the engine configures itself correctly
on machines without it (the kernels are pure NumPy; scipy is only a
benchmarking baseline and interop target).
"""

from __future__ import annotations

import functools
import importlib.util
import os
from dataclasses import dataclass

__all__ = ["EnvironmentInfo", "cpu_count", "has_scipy", "detect", "recommended_workers"]

#: Cap on auto-detected workers: beyond this, per-block Python overhead
#: outweighs the extra cores for the matrix sizes this engine targets.
MAX_AUTO_WORKERS = 8


def cpu_count() -> int:
    """Usable CPU count (respects affinity masks where the OS exposes them)."""
    try:
        return len(os.sched_getaffinity(0))  # type: ignore[attr-defined]
    except (AttributeError, OSError):
        return os.cpu_count() or 1


@functools.lru_cache(maxsize=None)
def has_scipy() -> bool:
    """Whether scipy is installed, probed once and without importing it.

    ``find_spec("scipy")`` only searches the import path; asking for
    ``"scipy.sparse"`` would import the parent package to find it.  The
    answer is memoised because the int64 product route asks on every call.
    """
    try:
        return importlib.util.find_spec("scipy") is not None
    except (ImportError, ValueError):
        return False


def recommended_workers() -> int:
    """Default worker count for ``runtime.configure(workers=...)`` callers."""
    return max(1, min(cpu_count(), MAX_AUTO_WORKERS))


@dataclass(frozen=True)
class EnvironmentInfo:
    """One-call summary of what the host offers the engine."""

    cpu_count: int
    scipy_available: bool
    recommended_workers: int

    def describe(self) -> str:
        scipy = "scipy available" if self.scipy_available else "no scipy"
        return (
            f"{self.cpu_count} CPU(s), {scipy}, "
            f"recommended workers: {self.recommended_workers}"
        )


def detect() -> EnvironmentInfo:
    """Probe the host environment once and return the summary."""
    return EnvironmentInfo(
        cpu_count=cpu_count(),
        scipy_available=has_scipy(),
        recommended_workers=recommended_workers(),
    )
