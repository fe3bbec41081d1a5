"""Always-on process-local metrics: counters, gauges, log-bucket histograms.

The registry is the cheap half of :mod:`repro.obs`: every hot path in the
runtime, the blocked kernels, the shm plane, and the scenario service counts
through it unconditionally — one dict lookup plus one locked integer add per
event, no sampling, no configuration.  The expensive half (the span tracer in
:mod:`repro.obs.trace`) is opt-in; the registry is not.  Looking up a
metric that already exists takes no lock.

Three metric kinds, all thread-safe:

* :class:`Counter` — a monotonically increasing total (``inc``);
* :class:`Gauge` — a point-in-time level (``set``/``inc``/``dec``), e.g. the
  number of live shm segments or the service queue depth;
* :class:`Histogram` — a fixed log-scale (base-2) bucket array over float
  observations, tracking count/sum/min/max alongside the buckets.  Log-scale
  buckets make one layout serve nanosecond span costs and second-long batch
  builds without per-metric tuning.

:func:`snapshot` renders everything JSON-able (sorted keys, deterministic),
and :func:`merge_snapshot` folds one process's snapshot into another's
registry — how worker-side totals reach the dispatching parent.

**This module (with :mod:`repro.obs.trace`) is the only place in the library
allowed to read wall clocks.**  Every instrumented module times through
:func:`monotonic_ns` / :func:`wall_ns` here, which keeps the determinism
contract checkable: the ``DET002`` lint bans clock reads in contract code,
``OBS002`` bans them everywhere outside ``repro.obs``, and this module carries
the one sanctioned exemption.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Mapping, Union

from repro.errors import ObservabilityError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Metric",
    "counter",
    "gauge",
    "histogram",
    "get_registry",
    "snapshot",
    "merge_snapshot",
    "reset_metrics",
    "monotonic_ns",
    "wall_ns",
]


def monotonic_ns() -> int:
    """Monotonic nanoseconds — the duration clock every instrumented module
    uses (never ``time.*`` directly; see the module docstring)."""
    return time.perf_counter_ns()


def wall_ns() -> int:
    """Epoch nanoseconds — the cross-process alignment clock for span starts."""
    return time.time_ns()


class Counter:
    """A monotonically increasing integer total."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (inc({amount}))"
            )
        with self._lock:
            self._value += int(amount)

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """A point-in-time level (float); last write wins."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += float(amount)

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= float(amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.value})"


#: Histogram bucket exponent range: bucket ``e`` counts observations in
#: ``(2^(e-1), 2^e]``.  The clamp range spans sub-microsecond (2^-20 ≈ 1e-6)
#: to ~10^12, wide enough for nanosecond costs in ms units and for byte sizes.
_BUCKET_LOW_EXP = -20
_BUCKET_HIGH_EXP = 40


def bucket_exponent(value: float) -> int:
    """The base-2 bucket exponent for *value* (clamped to the fixed range)."""
    if value <= 0.0:
        return _BUCKET_LOW_EXP
    # frexp(v) = (m, e) with v = m * 2^e and 0.5 <= m < 1, so 2^(e-1) <= v < 2^e;
    # exact powers of two land in their own bucket (upper bound inclusive).
    mantissa, exponent = math.frexp(value)
    if mantissa == 0.5:
        exponent -= 1
    return max(_BUCKET_LOW_EXP, min(_BUCKET_HIGH_EXP, exponent))


class Histogram:
    """Fixed log-scale (base-2) histogram over float observations.

    Buckets are indexed by :func:`bucket_exponent`; count, sum, min, and max
    are tracked exactly, so mean and totals are lossless even though the
    distribution itself is quantised to powers of two.
    """

    __slots__ = ("name", "_lock", "_count", "_sum", "_min", "_max", "_buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        v = float(value)
        e = bucket_exponent(v)
        with self._lock:
            self._count += 1
            self._sum += v
            if v < self._min:
                self._min = v
            if v > self._max:
                self._max = v
            self._buckets[e] = self._buckets.get(e, 0) + 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def to_dict(self) -> dict[str, object]:
        """JSON-able snapshot: scalars plus ``{"<=2^e": count}`` buckets."""
        with self._lock:
            buckets = {f"le_2^{e}": n for e, n in sorted(self._buckets.items())}
            return {
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else None,
                "max": self._max if self._count else None,
                "mean": self._sum / self._count if self._count else 0.0,
                "buckets": buckets,
            }

    def _merge(self, other: Mapping[str, object]) -> None:
        """Fold a :meth:`to_dict` snapshot into this histogram (registry merge)."""
        with self._lock:
            self._count += int(other.get("count", 0))  # type: ignore[arg-type]
            self._sum += float(other.get("sum", 0.0))  # type: ignore[arg-type]
            o_min = other.get("min")
            o_max = other.get("max")
            if o_min is not None and float(o_min) < self._min:  # type: ignore[arg-type]
                self._min = float(o_min)  # type: ignore[arg-type]
            if o_max is not None and float(o_max) > self._max:  # type: ignore[arg-type]
                self._max = float(o_max)  # type: ignore[arg-type]
            for key, n in dict(other.get("buckets", {})).items():  # type: ignore[arg-type]
                e = int(str(key).rpartition("^")[2])
                self._buckets[e] = self._buckets.get(e, 0) + int(n)

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count}, sum={self.sum:.3f})"


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Thread-safe get-or-create registry over named metrics.

    One process-wide instance (:func:`get_registry`) backs the module-level
    helpers; tests may build private registries.  Asking for an existing name
    with a different kind raises :class:`~repro.errors.ObservabilityError` —
    a name is one metric forever.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Metric] = {}

    def _get_or_create(self, name: str, kind: type) -> Metric:
        # Lock-free fast path: a dict read is atomic under the GIL, and a
        # metric is never replaced once registered (``reset`` only drops
        # them).  Creation, kind mismatches and bad names take the lock.
        if type(name) is str:
            metric = self._metrics.get(name)
            if type(metric) is kind:
                return metric
        if not name or not isinstance(name, str):
            raise ObservabilityError(f"metric names are non-empty strings, got {name!r}")
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = kind(name)
                self._metrics[name] = metric
            elif not isinstance(metric, kind):
                raise ObservabilityError(
                    f"metric {name!r} is a {type(metric).__name__}, "
                    f"not a {kind.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        metric = self._get_or_create(name, Counter)
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._get_or_create(name, Gauge)
        assert isinstance(metric, Gauge)
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._get_or_create(name, Histogram)
        assert isinstance(metric, Histogram)
        return metric

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> dict[str, dict[str, object]]:
        """A JSON-able view of every metric, grouped by kind, sorted by name."""
        with self._lock:
            metrics = dict(self._metrics)
        out: dict[str, dict[str, object]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        for name in sorted(metrics):
            metric = metrics[name]
            if isinstance(metric, Counter):
                out["counters"][name] = metric.value
            elif isinstance(metric, Gauge):
                out["gauges"][name] = metric.value
            else:
                out["histograms"][name] = metric.to_dict()
        return out

    def merge(self, other: Mapping[str, Mapping[str, object]]) -> None:
        """Fold a :meth:`snapshot` from another process into this registry.

        Counters and histograms are additive; gauges take the incoming value
        (a level reported later wins).  This is how worker-side totals are
        shipped back with results and folded into the parent's registry.
        """
        for name, value in dict(other.get("counters", {})).items():
            self.counter(name).inc(int(value))  # type: ignore[arg-type]
        for name, value in dict(other.get("gauges", {})).items():
            self.gauge(name).set(float(value))  # type: ignore[arg-type]
        for name, doc in dict(other.get("histograms", {})).items():
            self.histogram(name)._merge(doc)  # type: ignore[arg-type]

    def reset(self) -> None:
        """Drop every metric (tests only — production metrics are cumulative)."""
        with self._lock:
            self._metrics.clear()


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry behind the module-level helpers."""
    return _REGISTRY


def counter(name: str) -> Counter:
    """Get-or-create a :class:`Counter` in the process registry."""
    return _REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    """Get-or-create a :class:`Gauge` in the process registry."""
    return _REGISTRY.gauge(name)


def histogram(name: str) -> Histogram:
    """Get-or-create a :class:`Histogram` in the process registry."""
    return _REGISTRY.histogram(name)


def snapshot() -> dict[str, dict[str, object]]:
    """A JSON-able snapshot of the process registry."""
    return _REGISTRY.snapshot()


def merge_snapshot(other: Mapping[str, Mapping[str, object]]) -> None:
    """Fold another process's snapshot into this process's registry."""
    _REGISTRY.merge(other)


def reset_metrics() -> None:
    """Clear the process registry (tests only)."""
    _REGISTRY.reset()
