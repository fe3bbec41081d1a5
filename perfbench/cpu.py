"""Pinning to whichever CPU is fastest right now.

On the shared 2-vCPU VM this benchmark was tuned on, each vCPU switched on
its own between a fast state and one 1.3-1.6x slower, for seconds to minutes
at a time: a fixed pure-Python loop read 17 ms or 23-28 ms, and the two
vCPUs were often in different states.  A process left on one vCPU timed
that vCPU's state, not the program.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Any

#: The loop time of the reference CPU the timings are scaled to: about the
#: fast state of the VM above.  A time measured while the loop took
#: ``loop_ms`` is reported as ``time * REF_LOOP_MS / loop_ms`` (a rate as
#: ``rate * loop_ms / REF_LOOP_MS``), so a run that met a slow state reports
#: about what a fast one does; the factors are printed beside them.
#: On that VM, five-seed sets of scenario_cold read a throughput IQR/median
#: of 0.14 and 0.21 unscaled and 0.04 scaled.  The loop over-states the
#: slowdown of the game's ops (a log-log slope of about 0.5 against a fixed
#: game op timed beside it), so classroom_play is over-corrected a little.
REF_LOOP_MS = 3.2

#: The CPUs a benchmark process may use, as ``run.py`` found them before it
#: pinned itself (its workload processes inherit the pin, not the set).
CPUS_ENV = "PERFBENCH_CPUS"


def usable_cpus() -> list[int]:
    listed = os.environ.get(CPUS_ENV)
    if listed:
        return [int(c) for c in listed.split(",")]
    return sorted(os.sched_getaffinity(0))


def loop_ms(reps: int = 5) -> float:
    """Median time of a fixed pure-Python loop (3-5 ms on the VM's Xeon)."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        total = 0
        for i in range(40_000):
            total += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def pin_fastest(cpus: list[int]) -> dict[str, Any]:
    """Time the loop on each of *cpus* from the calling thread, then pin
    every thread of the process (and the processes it starts later) to the
    fastest.  The other threads should be idle meanwhile."""
    speeds = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speeds[cpu] = loop_ms()
    best = min(speeds, key=speeds.get)
    for tid in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(tid), {best})
        except ProcessLookupError:  # the thread has just ended
            pass
    os.sched_setaffinity(0, {best})
    return {"cpu": best, "loop_ms": speeds}
