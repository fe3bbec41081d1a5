"""One workload process: imports, set-up, a timed closed loop, output checks.

``run.py`` starts this file in a fresh interpreter for every measurement::

    python3 perfbench/child.py WORKLOAD MODE WORKDIR STOREDIR SEED SECONDS

MODE is ``prepare`` (write the seeded inputs into WORKDIR, untimed),
``setup`` (import and set up, then stop), ``run`` (set up, then the timed
loop with tracing off) or ``trace`` (the same with benchmark-side spans in
alternating blocks).  Scenario stores live under STOREDIR.  The last line on
stdout is one JSON object.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up time counts from here

import asyncio  # noqa: E402
import contextlib  # noqa: E402
from array import array  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Iterator  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import cpu  # noqa: E402
import numpy as np  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: In the timed phase the loop moves to the fastest CPU (``cpu.py``) this
#: often, on a paused clock; a check costs about 2 x 25 ms.
REPIN_EVERY_S = 1.0

#: Traced runs alternate untraced (U) and traced (T) blocks in ABBA order,
#: which cancels a linear drift between the two throughputs.
_BLOCK_PATTERN = (False, True, True, False)


def percentile_tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile that still
    has ten samples above it, i.e. that of the eleventh-largest latency,
    estimated with ``hd_quantile``."""
    n = len(latencies)
    if n <= 10:
        return max(latencies), 100.0, 0
    p = 1.0 - 10.5 / n  # the eleventh-largest's plotting position
    return hd_quantile(latencies, p), 100.0 * p, 10


#: A timed phase is cut into up to MAX_WINDOWS windows of at least
#: MIN_WINDOW_OPS ops in completion order, or into its laps when the loop
#: repeats the same ops (``Context.lap_ops``).  Each end-to-end figure is
#: taken per window, scaled to the reference CPU speed (``scale``), and
#: reported as the median over the windows.
MAX_WINDOWS = 24
MIN_WINDOW_OPS = 100


def hd_quantile(values: list[float], p: float) -> float:
    """The Harrell-Davis estimate of the *p* quantile: a weighted mean of
    the order statistics with Beta(p(n+1), (1-p)(n+1)) weights.  A sample
    quantile is a single order statistic, so where ops of different kinds
    leave a gap at its rank it jumps across the gap from run to run; this
    estimate moves smoothly."""
    from scipy.special import betainc

    ordered = np.sort(np.asarray(values, dtype=float))
    n = ordered.size
    if n == 1:
        return float(ordered[0])
    cuts = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(cuts), ordered))


def scale(speed: list[tuple[float, float]], t0: float, t1: float) -> float:
    """The factor that takes a time measured between *t0* and *t1* to the
    reference CPU speed: ``cpu.REF_LOOP_MS`` over the median loop time of
    the CPU checks in effect then (the last one before *t0* and those up to
    *t1*).  *speed* holds (clock time, loop ms) per check, in time order."""
    in_effect = [ms for t, ms in speed if t0 < t <= t1]
    before = [ms for t, ms in speed if t <= t0]
    if before:
        in_effect.append(before[-1])
    return cpu.REF_LOOP_MS / statistics.median(in_effect)


def window_figures(
    done: list[tuple[float, float]], start: float, speed: list[tuple[float, float]], size: int = 0
) -> dict[str, Any]:
    """Throughput, p50 and tail latency at the reference CPU speed.

    *done* holds (completion time, latency) per op, in completion order, on
    the clock of *speed*.  *size* is the length of a lap when the loop
    repeats the same ops (0: the loop does not).  Throughput is the median
    of the window rates.  Over windows, p50 and tail are the medians of the
    windows' own; over laps, each op of the lap is first taken at the median
    of its repeats and p50 and tail are those of these typical op times, so
    the mix at the middle rank is the same in every run.  A trailing part
    window is left out.
    """
    laps = 0 < size and 2 * size <= len(done)
    if not laps:
        size = min(len(done), max(MIN_WINDOW_OPS, len(done) // MAX_WINDOWS))
    rates, p50s, tails, factors, scaled = [], [], [], [], []
    prev = start
    for w in range(len(done) // size):
        chunk = done[w * size : (w + 1) * size]
        end = chunk[-1][0]
        k = scale(speed, prev, end)
        factors.append(k)
        rates.append(len(chunk) / (end - prev) / k)
        prev = end
        latencies = [lat * k for _t, lat in chunk]
        scaled.extend(latencies)
        p50s.append(hd_quantile(latencies, 0.5))
        tails.append(percentile_tail(latencies)[0])
    _tail, pct, beyond = percentile_tail([lat for _t, lat in done[:size]])
    if laps:
        typical = [statistics.median(scaled[j::size]) for j in range(size)]
        p50, tail = hd_quantile(typical, 0.5), percentile_tail(typical)[0]
    else:
        p50, tail = statistics.median(p50s), statistics.median(tails)
    return {
        "throughput_ops_s": statistics.median(rates),
        "latency_p50_ms": p50 * 1e3,
        "latency_tail_ms": tail * 1e3,
        "tail_percentile": pct,
        "tail_beyond": beyond,
        "window_ops": size,
        "windows": len(rates),
        "window_speed_factors": factors,
        "window_rates": rates,
        "window_p50s_ms": [x * 1e3 for x in p50s],
        "window_tails_ms": [t * 1e3 for t in tails],
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def registry_flat() -> dict[str, float]:
    """The ``repro.obs`` metrics registry as one flat name -> number map."""
    from repro.obs import snapshot

    snap = snapshot()
    flat: dict[str, float] = dict(snap["counters"])
    for name, hist in snap["histograms"].items():
        flat[name + ".count"] = hist["count"]
        flat[name + ".sum"] = hist["sum"]
    return flat


class Context:
    """What a workload sees of the harness: clocks, checks, spans."""

    def __init__(self, mode: str, work: Path, store_base: Path, seed: int, seconds: float) -> None:
        self.work = work
        self.store_base = store_base
        self.seed = seed
        self.seconds = seconds
        self.setup_only = mode == "setup"
        self.traced = mode == "trace"
        self.spans = tracing.SpanRecorder()
        self.excluded_s = 0.0
        self.setup_s = 0.0
        self.info: dict[str, Any] = {}
        self.layer: dict[str, float] = {}
        self.checks: dict[str, list[int]] = {}  # name -> [passed, failed]
        self.errors: list[str] = []
        self.failed_ops = 0
        self.lap_ops = 0  # ops per lap when the loop repeats its ops, else 0
        self._in_flight = 0
        self._idle: asyncio.Event | None = None
        self._pin_gate: asyncio.Event | None = None
        self._cpus = cpu.usable_cpus()
        self._next_pin = 0.0
        # (timed-phase clock, CPU chosen, its loop ms) per CPU check
        self.cpu_checks: list[tuple[float, int, float]] = []
        # per completed op, in completion order; compact arrays, so the
        # benchmark's own memory does not grow with the op count
        self.done_at = array("d")  # on the timed-phase clock
        self.latency = array("d")
        self.done_op = array("q")
        self.done_traced = bytearray()
        self._next_op = 0
        self._t_phase = 0.0
        self._t_end = 0.0
        self.elapsed = 0.0
        self.paused_s = 0.0
        # unpaused seconds of the timed phase spent untraced / traced
        self._mode_s = {False: 0.0, True: 0.0}
        self._mode_since = 0.0
        self.registry_delta: dict[str, float] = {}
        self._registry0: dict[str, float] = {}

    # -- phases --------------------------------------------------------- #

    @contextlib.contextmanager
    def inputs(self) -> Iterator[None]:
        """Input generation: runs before set-up and is not set-up time."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.excluded_s += time.perf_counter() - t0

    def begin_setup(self) -> None:
        if self.traced:
            self.spans.resolve()
            self.spans.install()

    def ready(self) -> None:
        """The first op is ready: close the set-up clock, open the timed phase."""
        self.setup_s = time.perf_counter() - T_START - self.excluded_s
        if self.setup_only:
            self.spans.uninstall()
            return
        self._registry0 = registry_flat()
        pick = cpu.pin_fastest(self._cpus)
        self._t_phase = time.perf_counter()
        self.cpu_checks.append((self._t_phase, pick["cpu"], pick["loop_ms"][pick["cpu"]]))
        self._t_end = self._t_phase + self.seconds
        self._mode_since = self._t_phase
        self._next_pin = self._t_phase + REPIN_EVERY_S
        self._sync_mode(self._t_phase)

    @property
    def _block_s(self) -> float:
        return max(0.25, self.seconds / 24.0)

    def _sync_mode(self, now: float) -> None:
        if not self.traced:
            return
        block = int((now - self._t_phase) / self._block_s)
        traced = _BLOCK_PATTERN[block % len(_BLOCK_PATTERN)]
        if traced == self.spans.installed:
            return
        self._mode_s[not traced] += now - self._mode_since
        self._mode_since = now
        if traced:
            self.spans.install()
        else:
            self.spans.uninstall()

    def running(self) -> bool:
        """Whether the timed phase goes on; for a loop on one thread."""
        if time.perf_counter() >= self._next_pin:
            self._pin()
        return self._tick()

    async def running_async(self) -> bool:
        """``running`` for clients sharing one event loop.  A due CPU move
        first waits until no op is in flight, so the threads the ops use
        are idle while the loop is timed on each CPU."""
        if self._pin_gate is not None:  # another client is moving
            await self._pin_gate.wait()
        elif time.perf_counter() >= self._next_pin:
            gate = self._pin_gate = asyncio.Event()
            while self._in_flight:
                self._idle = asyncio.Event()
                await self._idle.wait()
            self._pin()
            self._pin_gate = None
            gate.set()
        return self._tick()

    def _pin(self) -> None:
        now = time.perf_counter() - self.paused_s
        with self.paused():
            pick = cpu.pin_fastest(self._cpus)
        self.cpu_checks.append((now, pick["cpu"], pick["loop_ms"][pick["cpu"]]))
        self._next_pin = time.perf_counter() + REPIN_EVERY_S

    def _tick(self) -> bool:
        now = time.perf_counter()
        if now >= self._t_end:
            return False
        self._sync_mode(now)
        return True

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Benchmark work inside the timed phase (an output check) that the
        throughput must not count."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            paused = time.perf_counter() - t0
            self.paused_s += paused
            self._mode_s[self.spans.installed] -= paused

    def finish(self) -> None:
        """Close the timed phase; checks after this run untraced."""
        now = time.perf_counter()
        self.elapsed = now - self._t_phase - self.paused_s
        self._mode_s[self.spans.installed] += now - self._mode_since
        self.spans.uninstall()
        after = registry_flat()
        self.registry_delta = {
            k: after[k] - self._registry0.get(k, 0)
            for k in after
            if after[k] != self._registry0.get(k, 0)
        }

    # -- ops and checks ------------------------------------------------- #

    @contextlib.contextmanager
    def op(self, bind: object | None = None) -> Iterator[int]:
        """Time one op.  An exception counts it failed and is not re-raised."""
        op_id = self._next_op
        self._next_op += 1
        traced = self.spans.installed
        if bind is not None and traced:
            self.spans.op_of_object[id(bind)] = op_id
        token = tracing.CURRENT_OP.set(op_id)
        self._in_flight += 1
        t0 = time.perf_counter()
        try:
            yield op_id
        except Exception as exc:  # a failed op is counted, the loop goes on
            self.failed_ops += 1
            if len(self.errors) < 5:
                self.errors.append("".join(traceback.format_exception_only(exc)).strip())
        else:
            t1 = time.perf_counter()
            self.done_at.append(t1 - self.paused_s)
            self.latency.append(t1 - t0)
            self.done_op.append(op_id)
            self.done_traced.append(traced)
        finally:
            self._in_flight -= 1
            if not self._in_flight and self._idle is not None:
                self._idle.set()
            tracing.CURRENT_OP.reset(token)
            if bind is not None:
                self.spans.op_of_object.pop(id(bind), None)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        tally = self.checks.setdefault(name, [0, 0])
        tally[0 if ok else 1] += 1
        if not ok and len(self.errors) < 5:
            self.errors.append(f"check {name} failed {detail}".strip())

    # -- results -------------------------------------------------------- #

    def result(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "setup_s": self.setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "info": self.info,
        }
        if self.setup_only:
            return out
        check_failures = sum(f for _p, f in self.checks.values())
        out.update(
            attempted=len(self.latency) + self.failed_ops,
            failed=self.failed_ops + check_failures,
            checks={k: {"passed": p, "failed": f} for k, (p, f) in self.checks.items()},
            errors=self.errors,
            elapsed_s=self.elapsed,
        )
        cpus = [c for _t, c, _ms in self.cpu_checks]
        out["cpu_checks"] = {
            "checks": len(cpus),
            "moves": sum(a != b for a, b in zip(cpus, cpus[1:])),
            "loop_ms": [ms for _t, _c, ms in self.cpu_checks],
        }
        if self.latency:
            out.update(
                ops=len(self.latency),
                **window_figures(
                    list(zip(self.done_at, self.latency)),
                    self._t_phase,
                    [(t, ms) for t, _c, ms in self.cpu_checks],
                    self.lap_ops,
                ),
            )
        if self.traced:
            out["layer"] = self.layer
            out["registry_delta"] = self.registry_delta
        return out

    def traced_ops(self) -> set[int]:
        return {op for op, traced in zip(self.done_op, self.done_traced) if traced}

    def traced_latencies(self) -> dict[int, float]:
        return {
            op: lat
            for op, lat, traced in zip(self.done_op, self.latency, self.done_traced)
            if traced
        }

    def trace_overhead_pct(self) -> tuple[float, float, float]:
        """(overhead %, untraced ops/s, traced ops/s) from the ABBA blocks:
        each mode's op count over the unpaused seconds spent in it."""
        time_in = self._mode_s
        traced_ops = sum(self.done_traced)
        ops_in = {False: len(self.done_traced) - traced_ops, True: traced_ops}
        thr = {m: ops_in[m] / time_in[m] if time_in[m] else 0.0 for m in time_in}
        if not thr[False] or not thr[True]:
            return 0.0, thr[False], thr[True]
        return 100.0 * (1.0 - thr[True] / thr[False]), thr[False], thr[True]


def main(argv: list[str]) -> int:
    name, mode, work, store_base = argv[1], argv[2], Path(argv[3]), Path(argv[4])
    seed, seconds = int(argv[5]), float(argv[6])
    workload = workloads.WORKLOADS[name]
    ctx = Context(mode, work, store_base, seed, seconds)
    if mode == "prepare":
        workload.prepare(ctx)
    else:
        workload.main(ctx)
    if ctx.traced:
        ctx.spans.dump(work / "trace.json")
    print(json.dumps(ctx.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
