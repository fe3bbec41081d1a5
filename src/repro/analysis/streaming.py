"""Streaming traffic-matrix construction (refs [16]-[19] made laptop-scale).

The cited deployments accumulate packet streams into hypersparse GraphBLAS
matrices in fixed-size windows, then analyse each window's matrix.
:class:`StreamAccumulator` reproduces that pipeline on associative arrays:
feed ``(src, dst, packets)`` events, get one
:class:`~repro.assoc.AssociativeArray` per window, plus the same summary
statistics the scaling-relations paper (ref [50]) tracks per window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from repro.assoc.array import AssociativeArray
from repro.runtime.executor import parallel_map

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenarios import ScenarioSpec

__all__ = [
    "WindowStats",
    "StreamAccumulator",
    "window_stream",
    "scenario_stream",
    "merge_windows",
]


@dataclass(frozen=True)
class WindowStats:
    """Per-window quantities from the multi-temporal analysis lineage."""

    window_index: int
    events: int
    total_packets: int
    unique_links: int
    unique_sources: int
    unique_destinations: int
    max_source_packets: int
    max_destination_packets: int

    @classmethod
    def from_array(cls, index: int, events: int, array: AssociativeArray) -> "WindowStats":
        out_deg = array.reduce_rows()
        in_deg = array.reduce_cols()
        return cls(
            window_index=index,
            events=events,
            total_packets=int(array.sum()),
            unique_links=array.nnz,
            unique_sources=sum(1 for v in out_deg.values() if v),
            unique_destinations=sum(1 for v in in_deg.values() if v),
            max_source_packets=int(max(out_deg.values(), default=0)),
            max_destination_packets=int(max(in_deg.values(), default=0)),
        )


class StreamAccumulator:
    """Accumulate packet events into fixed-size window matrices.

    ``window_size`` counts *events* (packet records), matching the
    2^k-packet windows of the reference pipeline.  Duplicate (src, dst)
    events within a window sum — the associative-array construction does the
    merging, which is the entire point of the abstraction.
    """

    def __init__(self, window_size: int = 1024) -> None:
        if window_size < 1:
            raise ValueError(f"window_size must be >= 1, got {window_size}")
        self.window_size = window_size
        self._srcs: list[str] = []
        self._dsts: list[str] = []
        self._vals: list[int] = []
        self._windows_done = 0

    def push(self, src: str, dst: str, packets: int = 1) -> AssociativeArray | None:
        """Add one event; returns the finished window's array when it closes."""
        self._srcs.append(src)
        self._dsts.append(dst)
        self._vals.append(int(packets))
        if len(self._srcs) >= self.window_size:
            return self.flush()
        return None

    def pending(self) -> int:
        return len(self._srcs)

    def flush(self) -> AssociativeArray | None:
        """Close the current window early (None if it holds no events)."""
        if not self._srcs:
            return None
        array = AssociativeArray.from_triples(
            self._srcs, self._dsts, np.asarray(self._vals, dtype=np.int64)
        )
        self._srcs, self._dsts, self._vals = [], [], []
        self._windows_done += 1
        return array

    @property
    def windows_completed(self) -> int:
        return self._windows_done


def window_stream(
    events: Iterable[tuple[str, str, int]],
    *,
    window_size: int = 1024,
) -> Iterator[tuple[AssociativeArray, WindowStats]]:
    """Run a whole event stream through an accumulator, yielding each window.

    The trailing partial window is flushed and yielded too — dropping tail
    traffic would bias every statistic downward.
    """
    acc = StreamAccumulator(window_size)
    count_in_window = 0
    index = 0
    for src, dst, packets in events:
        count_in_window += 1
        array = acc.push(src, dst, packets)
        if array is not None:
            yield array, WindowStats.from_array(index, count_in_window, array)
            index += 1
            count_in_window = 0
    array = acc.flush()
    if array is not None:
        yield array, WindowStats.from_array(index, count_in_window, array)


def scenario_stream(
    specs: Iterable["ScenarioSpec"],
    *,
    window_size: int = 1024,
    workers: int | None = None,
    service: object | None = None,
) -> Iterator[tuple[AssociativeArray, WindowStats]]:
    """Stream declaratively-specified scenarios through the window pipeline.

    Each :class:`~repro.scenarios.ScenarioSpec` is realised (in one
    :func:`~repro.scenarios.generate_batch` call, so ``workers`` parallelises
    generation) and its non-zero cells are replayed as ``(src, dst, packets)``
    events into :func:`window_stream` — the bridge from the scenario API to
    the streaming lineage: a synthetic "capture" of any mix of attack,
    defense and noise scenarios, windowed exactly like real packet data.

    ``service`` (a :class:`~repro.scenarios.ScenarioService`, a bare
    :class:`~repro.scenarios.ScenarioCache`, or a durable
    :class:`~repro.store.ScenarioStore`) routes realisation through that
    object's content-addressed tier(s): specs already resident stream without
    rebuilding — bit-identical, since both cache and store serve exactly what
    a fresh build would produce — and fresh builds are retained for the next
    stream.  A store passed directly is wrapped in an ephemeral in-memory
    cache, so a stream replayed after a restart warm-starts from disk.
    """
    from repro.errors import ScenarioError
    from repro.scenarios import ScenarioCache, ScenarioService, generate_batch
    from repro.store import ScenarioStore

    cache = None
    if isinstance(service, ScenarioService):
        cache = service.cache
    elif isinstance(service, ScenarioCache):
        cache = service
    elif isinstance(service, ScenarioStore):
        cache = ScenarioCache(max_entries=None, store=service)
    elif service is not None:
        raise ScenarioError(
            f"scenario_stream expects a ScenarioService, ScenarioCache, or "
            f"ScenarioStore for 'service', got {type(service).__name__}"
        )
    matrices = generate_batch(list(specs), workers=workers, cache=cache)
    events = (edge for matrix in matrices for edge in matrix.iter_edges())
    yield from window_stream(events, window_size=window_size)


def _reindex_task(args: tuple[AssociativeArray, tuple[str, ...], tuple[str, ...]]):
    array, r_axis, c_axis = args
    return array._embed(r_axis, c_axis).csr


def merge_windows(arrays: Iterable[AssociativeArray]) -> AssociativeArray:
    """Combine per-window matrices into one aggregate by key-aligned addition.

    This is the long-horizon view of the streaming lineage: many 2^k-event
    window matrices collapse into a whole-capture traffic matrix.  Every
    window is reindexed once onto the union label axes (in parallel on the
    runtime's configured executor), then a single accumulator assignment —
    ``total(accum=PLUS) << union_all(windows)`` on the expression layer —
    collapses them with one fused concatenate + coalesce, itself row-blocked
    under :func:`repro.runtime.configure`.  One sort over all windows
    replaces the old ``log₂(windows)`` rounds of pairwise tree merges.
    """
    pending = list(arrays)
    if not pending:
        return AssociativeArray.empty()
    if len(pending) == 1:
        return pending[0]
    from repro.assoc.expr import Mat, union_all
    from repro.assoc.semiring import PLUS

    r_axis = tuple(sorted(set().union(*(a.row_labels for a in pending))))
    c_axis = tuple(sorted(set().union(*(a.col_labels for a in pending))))
    reindexed = parallel_map(
        _reindex_task, [(a, r_axis, c_axis) for a in pending]
    )
    total = Mat.from_csr(reindexed[0])
    total(accum=PLUS) << union_all(reindexed[1:])
    return AssociativeArray(r_axis, c_axis, total.csr, _trusted=True)
