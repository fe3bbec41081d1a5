"""Long-running asyncio scenario service: bounded queue, cache, delta rebuilds.

:class:`ScenarioService` promotes one-shot :func:`~repro.scenarios.
generate_batch` fan-out to a resident front end for scenario traffic:

* **Bounded intake.**  Batches of :class:`~repro.scenarios.ScenarioSpec`
  enter through an ``asyncio.Queue`` with a configurable depth — when the
  queue is full, ``await submit(...)`` *waits* (backpressure) instead of
  buffering unboundedly, and ``submit(..., wait=False)`` fails fast with
  :class:`~repro.errors.ScenarioServiceError`.
* **Bounded execution.**  A fixed pool of worker tasks (``concurrency``)
  drains the queue; each build runs under the process-wide
  :func:`repro.runtime.configure` setting through
  :func:`repro.runtime.executor.async_submit`.  A small build on a serial
  config (``n² × layers`` within
  :data:`repro.runtime.config.INLINE_MAX_WORK`, well under a millisecond)
  runs on the event loop itself, because the thread hand-off would cost more
  than the build; larger builds and every pool config leave the loop, so the
  loop never blocks on a heavy NumPy build.
* **Content-addressed caching.**  Every build routes through a
  :class:`~repro.scenarios.ScenarioCache` keyed by ``spec.cache_key()``;
  repeated traffic is served bit-identically from memory, ``warm()``
  pre-populates, and ``stats()`` exposes the cache analytics alongside the
  service counters.
* **Incremental rebuilds.**  ``apply_delta`` extends a cached scenario by
  generating only its delta overlays and summing them onto the cached base
  (:func:`repro.scenarios.delta.apply_delta`), bit-identical to the full
  rebuild.
* **Progress + cancellation.**  Per-batch ``on_progress(done, total)`` hooks
  fire from the event loop in completion order, and a
  :class:`BatchHandle` can cancel everything in a batch that has not
  finished (in-flight executor work runs to completion but its result is
  discarded — the cache still keeps it, so the work is not wasted).  Once
  cancellation is observed the hook never fires again, and a *raising* hook
  is contained to its batch — it cannot kill a worker task and strand the
  queue.
* **Shared-memory reuse.**  On a ``process`` runtime config the builds run
  on the same cached pool as the blocked kernels, so any operands the batch
  routes through :mod:`repro.runtime.shm` stay attached in the pool workers'
  per-process LRU across the whole batch — segments are mapped once per
  worker, not once per spec.

The synchronous :func:`repro.scenarios.generate_batch` is a thin façade over
:func:`run_batch_sync` here, so both fronts share one code path for
validation, realisation, seeding, provenance, caching, and progress.

Usage::

    async with ScenarioService(concurrency=4, max_entries=512) as service:
        await service.warm(common_specs)
        handle = await service.submit(specs, on_progress=print)
        matrices = await handle.results()
        extended = await service.apply_delta(specs[0], {"name": "ddos_attack"})
        print(service.stats()["cache"]["hit_rate"])
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Callable, Iterable

from repro.errors import ReproError, ScenarioError, ScenarioServiceError
from repro.obs import metrics as _obs
from repro.runtime.config import configured
from repro.runtime.executor import async_submit, parallel_map
from repro.scenarios.cache import ScenarioCache
from repro.scenarios.delta import DeltaResult, apply_delta
from repro.scenarios.spec import ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.traffic_matrix import TrafficMatrix
    from repro.store import ScenarioStore

__all__ = ["ProgressCallback", "BatchHandle", "ScenarioService", "run_batch_sync"]

#: Per-batch progress hook: ``on_progress(done, total)``, fired once per
#: finished spec in **completion** order (worker order, not spec order).
ProgressCallback = Callable[[int, int], None]


def _build_indexed(item: "tuple[int, ScenarioSpec]") -> "TrafficMatrix":
    """Build one ``(index, spec)`` pair, naming the spec on failure.

    The shared realisation step behind both fronts (the async service and the
    sync batch façade).  A generator can reject a spec that passed registry
    validation (body-level constraints the schema cannot express); failures
    must say *which* spec broke, and they must not take the executor pool
    down with them — a raised task leaves the cached pools reusable.
    """
    index, spec = item
    try:
        return spec.build()
    except ReproError as exc:
        raise ScenarioError(
            f"spec {index} ({spec.base!r}) failed to build: {exc}"
        ) from exc


def _build_work(spec: ScenarioSpec) -> int:
    """A build's cost for the inline gate: ``n²`` cells per dense layer.

    The base, each overlay and the noise pass each touch every cell once.
    """
    n = int(spec.n)
    return n * n * (1 + len(spec.overlays) + (spec.noise is not None))


def _validate_batch(specs: Iterable[ScenarioSpec], what: str) -> list[ScenarioSpec]:
    """Up-front validation shared by every intake path: fail fast, by name."""
    seq = list(specs)
    for k, spec in enumerate(seq):
        if not isinstance(spec, ScenarioSpec):
            raise ScenarioError(
                f"{what} expects ScenarioSpec items, got "
                f"{type(spec).__name__} at index {k}"
            )
        try:
            spec.validate()
        except ReproError as exc:
            raise ScenarioError(
                f"spec {k} ({spec.base!r}) failed validation: {exc}"
            ) from exc
    return seq


def run_batch_sync(
    specs: Iterable[ScenarioSpec],
    *,
    workers: int | None = None,
    backend: str | None = None,
    cache: ScenarioCache | None = None,
    on_progress: ProgressCallback | None = None,
    what: str = "generate_batch",
) -> "list[TrafficMatrix]":
    """The synchronous batch path (the body of ``generate_batch``).

    Cache hits resolve before the fan-out (their progress fires first, in
    spec order); misses fan out over the runtime executors, under a config
    whose ``workers``/``backend`` are scoped to this call where given (the
    process-wide setting otherwise), and are stored on completion, durably
    before this returns when the cache has a store.
    Results always come back in input order, bit-identical on every backend.
    """
    seq = _validate_batch(specs, what)
    total = len(seq)
    results: "list[TrafficMatrix | None]" = [None] * total
    done = 0
    pending: list[tuple[int, ScenarioSpec]] = []
    for k, spec in enumerate(seq):
        cached = cache.get(spec) if cache is not None else None
        if cached is not None:
            results[k] = cached
            done += 1
            if on_progress is not None:
                on_progress(done, total)
        else:
            pending.append((k, spec))
    if pending:
        hook = None
        if on_progress is not None:
            base_done = done

            def hook(finished: int, _pending_total: int) -> None:
                on_progress(base_done + finished, total)

        with configured(workers=workers, backend=backend):
            built = parallel_map(_build_indexed, pending, on_progress=hook)
        for (k, spec), matrix in zip(pending, built):
            if cache is not None:
                cache.put(spec, matrix)
            results[k] = matrix
        if cache is not None:
            cache.flush()
    return results  # type: ignore[return-value]


def _apply_delta_job(
    args: "tuple[ScenarioSpec, object, ScenarioCache, bool]",
) -> DeltaResult:
    base_spec, delta, cache, verify = args
    return apply_delta(base_spec, delta, cache=cache, verify=verify)


class BatchHandle:
    """One submitted batch: ordered result futures, progress, cancellation."""

    def __init__(
        self,
        specs: list[ScenarioSpec],
        futures: "list[asyncio.Future]",
        on_progress: ProgressCallback | None,
    ) -> None:
        self.specs = specs
        self._futures = futures
        self._on_progress = on_progress
        self._done = 0
        self._cancelled = False

    @property
    def total(self) -> int:
        return len(self._futures)

    @property
    def done(self) -> int:
        """Specs that have finished (result, failure, or cancellation)."""
        return self._done

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been observed for this batch."""
        return self._cancelled

    def _mark_done(self) -> None:
        """Count a finished spec and fire the progress hook (service-internal).

        Two containment rules keep the service workers alive:

        * after :meth:`cancel` is observed the hook never fires again — a
          build that was already in flight still completes and is counted,
          silently;
        * a hook that *raises* is swallowed here rather than propagating into
          the worker task's drain loop — a dead worker would strand every
          queued future and deadlock ``await handle``.
        """
        self._done += 1
        if self._on_progress is None or self._cancelled:
            return
        try:
            self._on_progress(self._done, len(self._futures))
        except Exception:
            pass

    def cancel(self) -> int:
        """Cancel every spec in the batch that has not finished.

        Returns the number of futures actually cancelled.  A build already
        running on an executor cannot be interrupted — it completes and its
        matrix still lands in the cache, but the future stays cancelled.
        From this point on ``on_progress`` is suppressed: late completions
        (including the task in flight during this call) are counted in
        :attr:`done` but never reported, so a hook cannot observe progress
        on a batch its owner already abandoned.
        """
        self._cancelled = True
        return sum(1 for future in self._futures if future.cancel())

    async def results(
        self, *, return_exceptions: bool = False
    ) -> "list[TrafficMatrix]":
        """All matrices, in submission order.

        Raises the first build failure (or ``CancelledError`` for cancelled
        specs) unless ``return_exceptions=True``, which returns exception
        objects in the failed slots instead.
        """
        return list(
            await asyncio.gather(*self._futures, return_exceptions=return_exceptions)
        )

    def __await__(self):
        return self.results().__await__()


class ScenarioService:
    """Asyncio front end over the spec machinery (see module docstring).

    Parameters
    ----------
    concurrency:
        Number of worker tasks draining the queue — the in-flight build bound.
    queue_size:
        Queue depth; the backpressure point for ``submit``.
    cache:
        A :class:`~repro.scenarios.ScenarioCache` to share (e.g. with a sync
        batch path or another service); by default the service owns a fresh
        one configured by ``max_entries``/``max_bytes``.
    store:
        A :class:`~repro.store.ScenarioStore` to mount as the cache's durable
        L2 tier, so the service's corpus survives restarts.  Mutually
        exclusive with ``cache`` — a shared cache already decided its own
        tiering; pass ``ScenarioCache(..., store=...)`` instead.  Store
        writes are write-behind, off the request path: the store's writer
        thread group-commits them, and every result the service served is
        durable once :meth:`stop` returns (which re-raises a failure the
        writer met).

    Builds run under the process-wide :func:`repro.runtime.configure`
    setting; scope one with :func:`repro.runtime.configured`.  The
    ``process`` backend requires picklable specs — all are.
    """

    def __init__(
        self,
        *,
        concurrency: int = 4,
        queue_size: int = 64,
        cache: ScenarioCache | None = None,
        store: "ScenarioStore | None" = None,
        max_entries: int | None = 256,
        max_bytes: int | None = None,
    ) -> None:
        if int(concurrency) < 1:
            raise ScenarioServiceError(
                f"concurrency must be >= 1, got {concurrency}"
            )
        if int(queue_size) < 1:
            raise ScenarioServiceError(f"queue_size must be >= 1, got {queue_size}")
        if cache is not None and store is not None:
            raise ScenarioServiceError(
                "pass either cache or store, not both — attach the store to "
                "the cache (ScenarioCache(..., store=...)) when sharing one"
            )
        self.cache = (
            cache
            if cache is not None
            else ScenarioCache(
                max_entries=max_entries, max_bytes=max_bytes, store=store
            )
        )
        self.concurrency = int(concurrency)
        self.queue_size = int(queue_size)
        self._queue: "asyncio.Queue | None" = None
        self._tasks: "list[asyncio.Task]" = []
        self._counters = {
            "batches_submitted": 0,
            "specs_submitted": 0,
            "specs_completed": 0,
            "specs_failed": 0,
            "specs_cancelled": 0,
            "delta_rebuilds": 0,
            "delta_rows_recomputed": 0,
            "delta_rows_reused": 0,
        }

    def _count(self, name: str, amount: int = 1) -> None:
        """Bump a service counter and its mirror in the process registry.

        The instance dict keeps per-service analytics for :meth:`stats`;
        the ``scenario.<name>`` counter folds the same event into the
        process-wide :mod:`repro.obs` registry so one metrics snapshot covers
        every service (and the sync batch path) at once.
        """
        self._counters[name] += amount
        _obs.counter(f"scenario.{name}").inc(amount)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def running(self) -> bool:
        return self._queue is not None

    async def start(self) -> "ScenarioService":
        """Create the queue and worker tasks; idempotent-unsafe by design."""
        if self.running:
            raise ScenarioServiceError("service is already running")
        self._queue = asyncio.Queue(maxsize=self.queue_size)
        self._tasks = [
            asyncio.create_task(self._worker(), name=f"scenario-service-{k}")
            for k in range(self.concurrency)
        ]
        return self

    async def stop(self, *, drain: bool = True) -> None:
        """Stop the workers.  ``drain=True`` finishes queued work first.

        Then waits, off the event loop, until every store write the service
        queued is durable: the service's durability barrier.
        """
        if not self.running:
            return
        assert self._queue is not None
        if drain:
            await self._queue.join()
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        self._queue = None
        if self.cache.store is not None:
            await asyncio.to_thread(self.cache.flush)

    async def __aenter__(self) -> "ScenarioService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        # On a clean exit, finish what was accepted; on error, bail fast.
        await self.stop(drain=exc_type is None)

    def _require_running(self) -> asyncio.Queue:
        if self._queue is None:
            raise ScenarioServiceError(
                "service is not running; use 'async with ScenarioService(...)' "
                "or 'await service.start()' first"
            )
        return self._queue

    # ------------------------------------------------------------------ #
    # the worker loop
    # ------------------------------------------------------------------ #

    async def _worker(self) -> None:
        queue = self._queue
        assert queue is not None
        while True:
            job = await queue.get()
            _obs.gauge("scenario.queue_depth").set(float(queue.qsize()))
            try:
                await self._run_job(job)
            finally:
                queue.task_done()

    async def _run_job(
        self, job: "tuple[int, ScenarioSpec, asyncio.Future, BatchHandle, int]"
    ) -> None:
        index, spec, future, handle, enq_ns = job
        _obs.histogram("scenario.queue_wait_ms").observe(
            (_obs.monotonic_ns() - enq_ns) / 1e6
        )
        try:
            if future.cancelled():
                self._count("specs_cancelled")
                return
            key = spec.cache_key()  # once per request, carried to the store
            matrix = self.cache.get(spec, key)
            if matrix is None:
                t0 = _obs.monotonic_ns()
                try:
                    matrix = await async_submit(
                        _build_indexed,
                        (index, spec),
                        label=f"spec {index} ({spec.base!r})",
                        work=_build_work(spec),
                    )
                except Exception as exc:  # build failure -> the spec's future
                    self._count("specs_failed")
                    if not future.cancelled():
                        future.set_exception(exc)
                    return
                _obs.histogram("scenario.build_ms").observe(
                    (_obs.monotonic_ns() - t0) / 1e6
                )
                # Cache even when the requester has gone: the work is done,
                # and the next request for this spec should be a pure hit.
                self.cache.put(spec, matrix, key)
            if future.cancelled():
                self._count("specs_cancelled")
            else:
                future.set_result(matrix)
                self._count("specs_completed")
        finally:
            handle._mark_done()

    # ------------------------------------------------------------------ #
    # intake
    # ------------------------------------------------------------------ #

    async def submit(
        self,
        specs: Iterable[ScenarioSpec],
        *,
        on_progress: ProgressCallback | None = None,
        wait: bool = True,
    ) -> BatchHandle:
        """Enqueue a batch and return its :class:`BatchHandle`.

        The queue is bounded: when it is full, ``wait=True`` (default) makes
        this coroutine *wait* for space — awaiting ``submit`` is the
        backpressure point — while ``wait=False`` raises
        :class:`~repro.errors.ScenarioServiceError` immediately (specs of
        this batch already enqueued keep running and still populate the
        cache; the rest are cancelled).

        ``on_progress(done, total)`` fires on the event loop once per
        finished spec, in completion order (worker order, not spec order) —
        the same hook contract as ``generate_batch``.
        """
        queue = self._require_running()
        seq = _validate_batch(specs, what="ScenarioService.submit")
        loop = asyncio.get_running_loop()
        futures = [loop.create_future() for _ in seq]
        handle = BatchHandle(seq, futures, on_progress)
        self._count("batches_submitted")
        for k, (spec, future) in enumerate(zip(seq, futures)):
            job = (k, spec, future, handle, _obs.monotonic_ns())
            if wait:
                await queue.put(job)
            else:
                try:
                    queue.put_nowait(job)
                except asyncio.QueueFull:
                    for leftover in futures[k:]:
                        leftover.cancel()
                    raise ScenarioServiceError(
                        f"service queue is full ({self.queue_size} jobs); "
                        f"spec {k} of {len(seq)} did not fit — await "
                        f"submit(..., wait=True) for backpressure instead"
                    ) from None
            self._count("specs_submitted")
            _obs.gauge("scenario.queue_depth").set(float(queue.qsize()))
        return handle

    async def generate(
        self,
        specs: Iterable[ScenarioSpec],
        *,
        on_progress: ProgressCallback | None = None,
    ) -> "list[TrafficMatrix]":
        """Submit a batch and await its ordered results in one call."""
        handle = await self.submit(specs, on_progress=on_progress)
        return await handle.results()

    async def warm(self, specs: Iterable[ScenarioSpec]) -> int:
        """Pre-populate the cache; returns the number of specs actually built.

        Idempotent: already-resident specs are skipped with a counter-neutral
        presence peek, and duplicates within one call build once.  The builds
        go through the normal queue, so warming respects the same
        concurrency and backpressure bounds as live traffic.
        """
        self._require_running()
        seq = _validate_batch(specs, what="ScenarioService.warm")
        missing: list[ScenarioSpec] = []
        seen: set[str] = set()
        for spec in seq:
            key = spec.cache_key()
            if key in seen or key in self.cache:
                continue
            seen.add(key)
            missing.append(spec)
        if not missing:
            return 0
        handle = await self.submit(missing)
        await handle.results()
        return len(missing)

    async def apply_delta(
        self,
        base_spec: ScenarioSpec,
        delta: object,
        *,
        verify: bool = False,
    ) -> DeltaResult:
        """Extend a scenario incrementally (see :func:`repro.scenarios.delta.apply_delta`).

        The pre-noise base composition is fetched from this service's cache
        (built and cached on first use), only the delta layers are generated
        and summed onto it, and the combined result is cached under the
        extended spec's key — a later ``submit``/``generate`` of that spec is
        a pure hit.  Runs on a worker thread: the cache is in-process state,
        so the delta path never crosses a pickle boundary.
        """
        self._require_running()
        result = await asyncio.to_thread(
            _apply_delta_job, (base_spec, delta, self.cache, verify)
        )
        self._count("delta_rebuilds")
        self._count("delta_rows_recomputed", result.stats.rows_recomputed)
        self._count("delta_rows_reused", result.stats.rows_reused)
        return result

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #

    def stats(self) -> dict[str, object]:
        """Service counters plus a cache analytics snapshot (JSON-able)."""
        out: dict[str, object] = dict(self._counters)
        out["running"] = self.running
        out["concurrency"] = self.concurrency
        out["queue_size"] = self.queue_size
        out["queue_depth"] = self._queue.qsize() if self._queue is not None else 0
        out["cache"] = self.cache.stats()
        if self.cache.store is not None:
            out["store"] = self.cache.store.stats()
        return out

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return (
            f"ScenarioService({state}, concurrency={self.concurrency}, "
            f"queue_size={self.queue_size}, cache={self.cache!r})"
        )
