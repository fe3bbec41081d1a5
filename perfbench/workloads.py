"""The four seeded workloads.  Each class docstring says why it was chosen.

A workload has two entry points, both called by ``child.py`` in a fresh
process:

* ``prepare(ctx)`` writes the seeded inputs the program is given (a module
  bundle, a filled store) into ``ctx.work``.  It is not timed.
* ``main(ctx)`` imports ``repro`` (set-up time), generates in-memory inputs
  (excluded from set-up), sets the system up, calls ``ctx.ready()``, then
  runs its closed loop until ``ctx.running()`` turns false and checks the
  outputs.  In a set-up-only process it returns right after ``ready()``.

This module imports nothing from ``repro`` at import time: every import of
the program happens inside ``main``, on the set-up clock.
"""

from __future__ import annotations

import os
import shutil
import statistics
from collections import Counter, deque
from contextlib import nullcontext
from typing import Any

import numpy as np

#: Per-layer metrics read as ``repro.obs`` counter deltas per timed op:
#: (metric, counter).
_PER_OP_COUNTERS = (
    ("runtime.async_submits", "runtime.async_submits"),
    ("store.bytes_written", "store.bytes_written"),
    ("store.fsyncs", "store.fsyncs"),
    ("store.bytes_read", "store.bytes_read"),
    ("scenarios.evictions", "scenario.cache.evictions"),
)


#: Served results kept for the after-run checks, at most; a bound keeps peak
#: memory independent of how many ops a run completes.
MAX_SAMPLES = 128


def _span(ctx: Any, name: str) -> Any:
    """A benchmark-side span in a traced block, else nothing."""
    return ctx.spans.span(name) if ctx.spans.installed else nullcontext()


def common_layers(ctx: Any) -> None:
    """Span self times, registry deltas and the tracing overhead, for any
    workload.  ``*_ms`` metrics are mean self time per call."""
    traced = ctx.traced_ops()
    for name, (calls, self_s) in ctx.spans.self_times(traced).items():
        ctx.layer[name + "_ms"] = 1e3 * self_s / calls
    inits = ctx.spans.calls("core.matrix_init", traced)
    ctx.layer["core.matrix_inits"] = inits / max(1, len(traced))
    ctx.info["spans_recorded"] = len(ctx.spans.records())

    delta = ctx.registry_delta
    ops = max(1, len(ctx.latency))
    for metric, counter in _PER_OP_COUNTERS:
        ctx.layer[metric] = delta.get(counter, 0) / ops
    waits = delta.get("scenario.queue_wait_ms.count", 0)
    if waits:
        ctx.layer["scenarios.queue_wait_ms"] = delta["scenario.queue_wait_ms.sum"] / waits
    shares = record_cache_shares(ctx)
    if shares["requests"]:
        ctx.layer["scenarios.l1_hit_rate"] = shares["l1_hits"] / shares["requests"]
        ctx.layer["scenarios.l2_hit_rate"] = shares["l2_hits"] / shares["requests"]
    reused = delta.get("scenario.delta_rows_reused", 0)
    rows = reused + delta.get("scenario.delta_rows_recomputed", 0)
    if rows:
        ctx.layer["scenarios.delta_rows_reused_ratio"] = reused / rows
    ctx.info["bases"] = {
        "delta_rows": rows,
        "delta_rows_reused": reused,
        "ops": ops,
        "traced_ops": len(traced),
    }
    pct, untraced_thr, traced_thr = ctx.trace_overhead_pct()
    ctx.layer["obs.trace_overhead_pct"] = pct
    ctx.info["trace_overhead_base"] = {
        "untraced_ops_s": untraced_thr,
        "traced_ops_s": traced_thr,
    }


def record_cache_shares(ctx: Any) -> dict[str, float]:
    """Per-run L1/L2 hit counts and evictions, with their base."""
    delta = ctx.registry_delta
    shares = {
        "requests": delta.get("scenario.cache.hits", 0) + delta.get("scenario.cache.misses", 0),
        "l1_hits": delta.get("scenario.cache.hits.l1", 0),
        "l2_hits": delta.get("scenario.cache.hits.l2", 0),
        "misses": delta.get("scenario.cache.misses", 0),
        "evictions": delta.get("scenario.cache.evictions", 0),
    }
    ctx.info["cache_shares"] = shares
    return shares


def store_footprint(ctx: Any, root: os.PathLike, entries: int) -> None:
    """Bytes on disk (blobs + index) per stored scenario; an exact count."""
    total = 0
    for folder, _dirs, files in os.walk(root):
        for fname in files:
            total += os.path.getsize(os.path.join(folder, fname))
    ctx.layer["store.kb_per_scenario"] = total / 1024.0 / max(1, entries)
    ctx.info["store_footprint"] = {"bytes": total, "scenarios": entries}


def filesystem_of(path: os.PathLike) -> str:
    """Filesystem type of the mount holding *path* (longest-prefix match)."""
    target = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) >= 3 and target.startswith(parts[1]) and len(parts[1]) > len(best):
                    best, fstype = parts[1], parts[2]
    except OSError:
        pass
    return fstype


def _same_build(served: Any, built: Any) -> bool:
    return served == built and served.meta == built.meta


# ---------------------------------------------------------------------- #
# classroom_play
# ---------------------------------------------------------------------- #


class ClassroomPlay:
    """One student plays a zip bundle: keypress, then a full screen render.

    Why: this is the paper's user.  It runs the game stack (modules, game,
    engine, gdscript, voxel, render) and touches no service, store or large
    kernel, so it is the bypass for those layers.

    The bundle holds the built-in catalogue plus ``MODULES`` modules of a
    seeded ``make_corpus`` (n up to 24).  A module's play cost grows with its
    grid cells and its packets (a least-squares fit over 120 modules gave
    14 + 0.29 n^2 + 0.23 packets ms per four keys, R^2 0.96), and the
    sampler's packet counts are heavy-tailed, so a plain draw of 200 would
    change the op mix from seed to seed.  Instead the generator draws
    ``DRAW`` specs, sorts them by n^2 + packets and takes the one at each of
    ``MODULES`` evenly spaced quantiles: a stratified sample, so the mix is
    the sampler's own.  Over six seeds the sample's mean modelled cost moved
    1.3% and its largest packet count 6% (sorting by (n, packets) instead
    gave 4.5% and 35%).  A spec whose module the loader rejects is skipped
    (and counted) for the next one in the sorted order.

    Play cycles a lap: the first built-in module (so set-up renders the
    same screen for every seed), then ``LAP_CELLS`` of the cells at evenly
    spaced quantiles, so a lap is a stratified sample of the bundle.  Every
    lap does the same work, so each is one window of the figures (see
    ``child.window_figures``): lap-to-lap differences are the host's, not a
    change of op mix.  The bundle holds the lap's modules first, then the
    other built-in modules and cells; all of them are loaded at set-up.
    """

    name = "classroom_play"
    MODULES = 200
    DRAW = 8000
    LAP_CELLS = 20

    def prepare(self, ctx: Any) -> None:
        from repro.errors import ReproError
        from repro.modules.builder import scenario_module
        from repro.modules.library import builtin_catalog
        from repro.modules.loader import loads_module, save_bundle
        from repro.verify.corpus import make_corpus

        specs = make_corpus(self.DRAW, ctx.seed)
        matrices = [spec.build() for spec in specs]
        order = sorted(
            range(len(specs)), key=lambda i: (specs[i].n ** 2 + matrices[i].total_packets(), i)
        )
        skipped: Counter[str] = Counter()
        cells: list[Any] = []
        for cell in range(self.MODULES):
            k = (2 * cell + 1) * len(order) // (2 * self.MODULES)
            while True:
                spec, matrix = specs[order[k]], matrices[order[k]]
                module = scenario_module(spec, matrix=matrix)
                try:
                    loads_module(module.to_json())
                    break
                except ReproError:
                    skipped[spec.base] += 1  # e.g. a question with repeated answers
                    k += 1
            cells.append(module)
        builtins = list(builtin_catalog().values())
        picks = [(2 * j + 1) * self.MODULES // (2 * self.LAP_CELLS) for j in range(self.LAP_CELLS)]
        lap = [builtins[0]] + [cells[k] for k in picks]
        rest = builtins[1:] + [cells[k] for k in range(self.MODULES) if k not in picks]
        bundle = lap + rest
        save_bundle(bundle, ctx.work / "bundle.zip")
        ctx.info.update(
            bundle_modules=len(bundle),
            lap_modules=len(lap),
            corpus_modules=len(cells),
            builtin_modules=len(builtins),
            specs_drawn=self.DRAW,
            skipped=sum(skipped.values()),
            skipped_by_base=dict(skipped),
        )

    def main(self, ctx: Any) -> None:
        import repro  # noqa: F401 - the CLI's own first import
        from repro.engine.input import Key
        from repro.game.app import TrafficWarehouse
        from repro.game.players import PerfectPlayer

        ctx.begin_setup()
        game = TrafficWarehouse.from_path(ctx.work / "bundle.zip")
        game.render_screen(ansi=True)
        ctx.ready()
        if ctx.setup_only:
            return

        bundle_modules = len(game.session.modules)
        modules = game.session.modules[: 1 + self.LAP_CELLS]
        ctx.lap_ops = sum(5 + m.has_question for m in modules)  # one lap
        player = PerfectPlayer()
        answer_keys = (Key.ONE, Key.TWO, Key.THREE)
        script: list[Any] = []
        step = 0
        lap = 0
        played = 0
        visited = [0]
        while ctx.running():
            if step == 0:
                script = [Key.SPACE, Key.E, Key.Q, Key.SPACE]
                session = game.session
                if session.has_question() and not session.already_answered():
                    choice = player.choose(game.current, session.presentation())
                    script.append(answer_keys[choice])
                script.append(Key.N)
            key = script[step]
            with ctx.op():
                if key is Key.N and game.session.index == len(modules) - 1:
                    lap += 1  # the next lap: a fresh session from its first module
                    game = TrafficWarehouse(modules, seed=lap)
                else:
                    game.handle_key(key)
                game.render_screen(ansi=True)
            played += 1
            if key is Key.N and game.session.index == 0:
                ctx.check("lap_is_one_window", played == lap * ctx.lap_ops)
            if key in answer_keys:
                result = game.last_answer
                ctx.check("perfect_player_correct", result is not None and result.correct)
            if key is Key.N:
                visited.append(game.session.index)
            step = (step + 1) % len(script)
        ctx.finish()
        ctx.info.update(
            modules=bundle_modules,
            lap_modules=len(modules),
            lap_ops=ctx.lap_ops,
            laps=lap,
        )

        if ctx.traced:
            common_layers(ctx)
            ctx.layer["engine.nodes_per_level"] = self._nodes_per_level(modules, visited)

    @staticmethod
    def _nodes_per_level(modules: list[Any], visited: list[int]) -> float:
        """Exact scene-tree node count of a loaded level, averaged over the
        levels this run played (rebuilt after the timed phase)."""
        from repro.game.warehouse import WarehouseLevel

        def count(node: Any) -> int:
            return 1 + sum(count(child) for child in node.get_children())

        counts = []
        for index in sorted(set(visited)):
            level = WarehouseLevel(modules[index])
            level.place_all_packets()
            counts.append(count(level.root))
        return float(statistics.fmean(counts))


# ---------------------------------------------------------------------- #
# scenario_cold / scenario_warm
# ---------------------------------------------------------------------- #


class _SpecFeed:
    """An endless seeded corpus: the prefix is generated up front, and a
    program fast enough to use it all gets more from the same sampler, on a
    paused clock (``refills`` counts how often)."""

    def __init__(self, ctx: Any, count: int) -> None:
        from repro.verify.corpus import random_spec

        self._ctx = ctx
        self._random_spec = random_spec
        self._rng = np.random.default_rng(ctx.seed)
        self._seen: set[str] = set()
        self._queue: deque[Any] = deque()
        self.refills = 0
        self._extend(count)

    def _extend(self, count: int) -> None:
        while count > 0:
            spec = self._random_spec(self._rng)
            key = spec.cache_key()
            if key not in self._seen:  # every request is a new spec
                self._seen.add(key)
                self._queue.append(spec)
                count -= 1

    def next(self) -> Any:
        if not self._queue:
            self.refills += 1
            with self._ctx.paused():
                self._extend(1000)
        return self._queue.popleft()


class ScenarioCold:
    """Two clients on one event loop send one-spec ``submit`` requests to a
    ``ScenarioService`` over an empty durable store; every spec is new.

    Why: builds (scenarios, graphs, core) and store writes dominate it, with
    zero cache hits.  Service overhead (queue, thread hop, write-through) is
    several times the bare build, so it gets a number of its own.

    Like every workload it runs pinned to one CPU (``cpu.py``).  The event
    loop and the build thread share the GIL, so a second CPU buys nothing,
    while on a 2-vCPU VM every cross-CPU hand-off waits on a vCPU wake-up:
    unpinned, throughput swung between two levels from run to run
    (IQR/median 0.32 over ten seeds); pinned, it doubled.
    """

    name = "scenario_cold"
    CLIENTS = 2
    SPECS_PER_SECOND = 900  # up front; the fastest runs served about 600/s
    SAMPLE_EVERY = 32

    def prepare(self, ctx: Any) -> None:
        ctx.info["store_root"] = "created empty by each workload process"

    def main(self, ctx: Any) -> None:
        import asyncio

        import repro.scenarios  # noqa: F401 - set-up time covers the imports
        import repro.store  # noqa: F401

        feed = None
        if not ctx.setup_only:
            with ctx.inputs():
                feed = _SpecFeed(ctx, int(self.SPECS_PER_SECOND * ctx.seconds))
        root = ctx.store_base / f"store-{os.getpid()}"
        try:
            asyncio.run(self._serve(ctx, feed, root))
        finally:
            shutil.rmtree(root, ignore_errors=True)

    async def _serve(self, ctx: Any, feed: Any, root: Any) -> None:
        import asyncio

        from repro.scenarios import ScenarioService
        from repro.store import ScenarioStore

        ctx.begin_setup()
        store = ScenarioStore(root)
        service = ScenarioService(store=store)
        await service.start()
        ctx.ready()
        samples: list[tuple[Any, Any]] = []
        submit_ops: list[int] = []
        try:

            async def client() -> None:
                while await ctx.running_async():
                    spec = feed.next()
                    with ctx.op(bind=spec) as op_id:
                        handle = await service.submit([spec])
                        (matrix,) = await handle.results()
                        if ctx.traced:
                            submit_ops.append(op_id)
                        if op_id % self.SAMPLE_EVERY == 0 and len(samples) < MAX_SAMPLES:
                            samples.append((spec, matrix))

            if not ctx.setup_only:
                await asyncio.gather(*(client() for _ in range(self.CLIENTS)))
                ctx.finish()
        finally:
            await service.stop()
        if ctx.setup_only:
            store.close()
            return
        for spec, matrix in samples:
            ctx.check("served_equals_build", _same_build(matrix, spec.build()), spec.base)
        _check_store(ctx, store)
        entries = store.stats()["entries"]
        store.close()
        record_cache_shares(ctx)
        ctx.info["store_filesystem"] = filesystem_of(ctx.store_base)
        ctx.info["feed_refills"] = feed.refills
        if ctx.traced:
            common_layers(ctx)
            _service_overhead(ctx, submit_ops)
            store_footprint(ctx, root, entries)


def _check_store(ctx: Any, store: Any) -> None:
    problems = store.verify()
    bad = {k: len(v) for k, v in problems.items() if v}
    ctx.check("store_verify_clean", not bad, str(bad))


def _service_overhead(ctx: Any, submit_ops: list[int]) -> None:
    """Median request latency minus the build or cache-get time inside it."""
    inside = ctx.spans.op_durations({"scenarios.build", "scenarios.cache_get"})
    latency = ctx.traced_latencies()
    gaps = [latency[op] - inside.get(op, 0.0) for op in submit_ops if op in latency]
    if gaps:
        ctx.layer["scenarios.service_overhead_ms"] = 1e3 * statistics.median(gaps)


class ScenarioWarm:
    """The cold clients after a restart over a store filled (untimed) with a
    seeded corpus six times the default L1 (``max_entries=256``).  Requests
    follow Zipf popularity over ranks that deal the sizes round-robin; one
    in ``DELTA_EVERY`` is an ``apply_delta``.

    Why: it reads where ``scenario_cold`` writes: L1 hits, L2 reads with
    promotions, and delta rebuilds.  Delta bases carry no noise stage, so
    their pre-noise composition is in the store and nothing is built from
    scratch: this is the bypass for build optimisations, and the place a
    read-path gain that costs writes shows up.
    """

    name = "scenario_warm"
    CLIENTS = 2
    CORPUS = 1536
    HOT = 256
    ZIPF_S = 1.0
    DELTA_EVERY = 50
    SAMPLE_EVERY = 16
    REQUESTS_PER_SECOND = 1500

    def prepare(self, ctx: Any) -> None:
        from repro.store import ScenarioStore
        from repro.verify.corpus import make_corpus

        specs = make_corpus(self.CORPUS, ctx.seed)
        # The fill is untimed set-dressing: durability is not under test here.
        with ScenarioStore(ctx.store_base / "store", fsync=False) as store:
            for spec in specs:
                store.put(spec, spec.build())
            ctx.info["store_entries"] = store.stats()["entries"]

    def _plan(self, ctx: Any, specs: list[Any]) -> tuple[list[Any], Any]:
        """(hot set, endless request plan) from the seed."""
        from repro.scenarios import OverlaySpec

        rng = np.random.default_rng(ctx.seed + 1)
        # Popularity ranks deal the sizes round-robin (a fixed size order,
        # seeded order within a size), so the Zipf head, which takes most of
        # the traffic, holds the same mix of sizes whatever the seed.
        by_size: dict[int, list[Any]] = {}
        for i in rng.permutation(len(specs)):
            by_size.setdefault(specs[i].n, []).append(specs[i])
        lanes = [by_size[n] for n in sorted(by_size, key=lambda n: (n * 8) % 21)]
        by_rank = [
            lane[depth]
            for depth in range(max(map(len, lanes)))
            for lane in lanes
            if depth < len(lane)
        ]
        weights = 1.0 / np.arange(1, len(by_rank) + 1) ** self.ZIPF_S
        cdf = np.cumsum(weights) / weights.sum()
        hot = by_rank[: self.HOT]
        overlays_by_n: dict[int, list[Any]] = {}
        for spec in specs:
            for ov in spec.overlays:
                overlays_by_n.setdefault(spec.n, []).append(ov)
        plain = [s for s in by_rank if s.noise is None and s.n in overlays_by_n]
        plain_w = 1.0 / np.arange(1, len(plain) + 1) ** self.ZIPF_S
        plain_cdf = np.cumsum(plain_w) / plain_w.sum()

        def requests() -> Any:
            k = 0
            while True:
                k += 1
                if k % self.DELTA_EVERY == 0:
                    base = plain[int(np.searchsorted(plain_cdf, rng.random()))]
                    pool = overlays_by_n[base.n]
                    ov = pool[int(rng.integers(len(pool)))]
                    yield "delta", base, OverlaySpec(ov.name, dict(ov.params))
                else:
                    yield "get", by_rank[int(np.searchsorted(cdf, rng.random()))], None

        return hot, requests()

    def main(self, ctx: Any) -> None:
        import asyncio

        import repro.scenarios  # noqa: F401 - set-up time covers the imports
        import repro.store  # noqa: F401

        with ctx.inputs():
            from repro.verify.corpus import make_corpus

            hot, plan = self._plan(ctx, make_corpus(self.CORPUS, ctx.seed))
        asyncio.run(self._serve(ctx, hot, plan))

    async def _serve(self, ctx: Any, hot: list[Any], plan: Any) -> None:
        import asyncio

        from repro.scenarios import ScenarioService, extend_spec
        from repro.store import ScenarioStore

        ctx.begin_setup()
        store = ScenarioStore(ctx.store_base / "store")
        service = ScenarioService(store=store)
        await service.start()
        await service.generate(list(reversed(hot)))  # one pass fills L1
        ctx.ready()
        samples: list[tuple[Any, Any]] = []
        delta_samples: list[tuple[Any, Any, Any]] = []
        deltas: list[int] = []
        submit_ops: list[int] = []
        try:

            async def client() -> None:
                while await ctx.running_async():
                    kind, spec, delta = next(plan)
                    if kind == "get":
                        with ctx.op(bind=spec) as op_id:
                            handle = await service.submit([spec])
                            (matrix,) = await handle.results()
                            if ctx.traced:
                                submit_ops.append(op_id)
                            if op_id % self.SAMPLE_EVERY == 0 and len(samples) < MAX_SAMPLES:
                                samples.append((spec, matrix))
                    else:
                        with ctx.op():
                            result = await service.apply_delta(spec, delta)
                        deltas.append(1)
                        if len(deltas) % 8 == 1 and len(delta_samples) < MAX_SAMPLES:
                            delta_samples.append((spec, delta, result.matrix))

            if not ctx.setup_only:
                await asyncio.gather(*(client() for _ in range(self.CLIENTS)))
                ctx.finish()
        finally:
            await service.stop()
        if ctx.setup_only:
            store.close()
            return
        for spec, matrix in samples:
            ctx.check("served_equals_build", _same_build(matrix, spec.build()), spec.base)
        for spec, delta, matrix in delta_samples:
            full = extend_spec(spec, delta).build()
            ctx.check("delta_equals_rebuild", _same_build(matrix, full), spec.base)
        _check_store(ctx, store)
        entries = store.stats()["entries"]
        store.close()
        record_cache_shares(ctx)
        ctx.info["store_filesystem"] = filesystem_of(ctx.store_base)
        ctx.info["deltas"] = {"ops": len(deltas), "checked": len(delta_samples)}
        if ctx.traced:
            common_layers(ctx)
            _service_overhead(ctx, submit_ops)
            store_footprint(ctx, ctx.store_base / "store", entries)


# ---------------------------------------------------------------------- #
# traffic_analytics
# ---------------------------------------------------------------------- #


class TrafficAnalytics:
    """One analyst over a heavy-tailed packet stream.  One op ingests a
    window, merges the last ``K`` windows, and runs an int64 ``plus.times``
    square, a float64 square of the row-normalised aggregate, a
    firewall-masked square and an ``mxv`` degree pass; products hold about
    10^5 nnz.

    Why: it covers assoc, runtime and analysis and bypasses scenarios, store
    and game.  int64 runs beside float64, so a native-integer gain must
    leave the float numbers alone.  It runs on the default serial runtime:
    on a 2-worker process pool (``shm_min_bytes`` at 64 KiB, which sent the
    merges through pickled blocks and the products through shared memory)
    the tail latency's IQR/median over ten seeds was 0.30 on a 2-vCPU host,
    above any bound this benchmark can hold.  Each call still records the
    route the runtime's gates chose.
    """

    name = "traffic_analytics"
    ENDPOINTS = 4096
    WINDOW = 1024
    K = 4
    POOL = 128  # distinct windows; the stream cycles through them
    ZONES = 16
    ZONE_SERVICES = 64
    HUBS = 16
    SAMPLE_EVERY = 8
    FLOAT_RTOL = 1e-12

    def prepare(self, ctx: Any) -> None:
        ctx.info["inputs"] = "generated in memory by each workload process"

    def _inputs(self, ctx: Any) -> tuple[list[Any], tuple[str, ...], Any, Any]:
        from repro.analysis import synthetic_traffic

        events = synthetic_traffic(
            n_events=self.WINDOW * self.POOL, n_endpoints=self.ENDPOINTS, seed=ctx.seed
        )
        windows = [events[i * self.WINDOW : (i + 1) * self.WINDOW] for i in range(self.POOL)]
        axis = tuple(sorted(f"N{i}" for i in range(self.ENDPOINTS)))
        # Firewall policy: every source zone may reach its own service
        # endpoints plus the shared hubs (the heaviest endpoints of the
        # stream).  Indices follow ``axis`` order.
        rng = np.random.default_rng(ctx.seed + 7)
        position = {label: i for i, label in enumerate(axis)}
        zone = rng.integers(0, self.ZONES, size=self.ENDPOINTS)
        hubs = np.array([position[f"N{i}"] for i in range(self.HUBS)])
        services = [
            np.union1d(rng.choice(self.ENDPOINTS, self.ZONE_SERVICES, replace=False), hubs)
            for _ in range(self.ZONES)
        ]
        rows = np.concatenate([np.full(services[z].size, i) for i, z in enumerate(zone)])
        cols = np.concatenate([services[z] for z in zone])
        return windows, axis, rows, cols

    def main(self, ctx: Any) -> None:
        import repro  # noqa: F401
        from repro.analysis import merge_windows, window_stream
        from repro.assoc.expr import lazy
        from repro.assoc.semiring import PLUS_PAIR, PLUS_TIMES
        from repro.assoc.sparse import CSRMatrix
        from repro.obs import get_registry

        with ctx.inputs():
            windows, axis, mask_rows, mask_cols = self._inputs(ctx)
        n = self.ENDPOINTS
        registry = get_registry()
        maps = registry.counter("runtime.maps")
        shm_bytes = registry.counter("shm.bytes_exported")
        routes = Counter()

        def call(name: str, fn: Any, *args: Any) -> Any:
            """One layer call: a span when traced, and its dispatch route."""
            m0, s0 = maps.value, shm_bytes.value
            with _span(ctx, name):
                out = fn(*args)
            route = "serial" if maps.value == m0 else "shm" if shm_bytes.value > s0 else "pickle"
            routes[route] += 1
            return out

        def ingest(events: list[Any]) -> tuple[Any, int]:
            (array, stats), = window_stream(events, window_size=self.WINDOW)
            return array, int(array.csr.data.sum())

        ctx.begin_setup()
        mask = CSRMatrix.from_triples(
            mask_rows, mask_cols, np.ones(mask_rows.size, dtype=bool), (n, n)
        )
        recent: deque[tuple[Any, int]] = deque(maxlen=self.K)
        for i in range(self.K):
            recent.append(ingest(windows[i]))
        merge_windows([a for a, _ in recent])  # the first dispatch
        ctx.ready()
        if ctx.setup_only:
            return

        ones = np.ones(n, dtype=np.int64)
        flops = nnz_out = 0
        step = self.K
        while ctx.running():
            events = windows[step % self.POOL]
            step += 1
            with ctx.op() as op_id:
                recent.append(call("analysis.window", ingest, events))
                merged = call("analysis.merge", merge_windows, [a for a, _ in recent])
                a = merged.reindex(axis, axis).csr
                c_int = call("assoc.mxm_int64", a.mxm, a, PLUS_TIMES)
                totals = np.asarray(a.reduce_rows(), dtype=np.float64)
                totals[totals == 0] = 1.0
                p = CSRMatrix(
                    a.shape, a.indptr, a.indices, a.data / np.repeat(totals, np.diff(a.indptr))
                )
                c_float = call("assoc.mxm_float64", p.mxm, p, PLUS_TIMES)
                c_masked = call(
                    "assoc.masked_mxm", lambda: lazy(a).mxm(a, PLUS_TIMES).new(mask=mask)
                )
                degree = call("assoc.mxv", a.mxv, ones, PLUS_PAIR)
            ctx.check(
                "merge_conserves_packets",
                int(a.data.sum()) == sum(total for _, total in recent),
            )
            if ctx.spans.installed:
                flops += int(np.diff(a.indptr)[a.indices].sum()) * 2
                nnz_out += c_int.nnz + c_float.nnz + c_masked.nnz
            if op_id % self.SAMPLE_EVERY == 0:
                with ctx.paused():
                    self._check(ctx, mask, a, p, c_int, c_float, c_masked, degree)
        ctx.finish()
        self._check_shm(ctx)
        total_routes = sum(routes.values())
        ctx.info["routes"] = dict(routes, calls=total_routes)
        if ctx.traced:
            common_layers(ctx)
            traced = max(1, len(ctx.traced_ops()))
            ops = max(1, len(ctx.latency))
            ctx.layer["assoc.mxm_flops"] = flops / traced
            ctx.layer["assoc.nnz_out"] = nnz_out / traced
            for route in ("serial", "pickle", "shm"):
                ctx.layer[f"runtime.route_{route}"] = routes[route] / ops
            ctx.layer["runtime.shm_bytes"] = ctx.registry_delta.get("shm.bytes_exported", 0) / ops

    def _check(self, ctx: Any, mask: Any, a: Any, p: Any, c_int: Any, c_float: Any,
               c_masked: Any, degree: Any) -> None:
        """Products against scipy: int64 exactly, float64 within FLOAT_RTOL."""
        sa, sp_ = a.to_scipy(), p.to_scipy()
        ref_int = (sa @ sa).tocsr()
        ref_int.eliminate_zeros()
        got_int = c_int.to_scipy()
        ctx.check(
            "mxm_int64_exact",
            got_int.dtype == np.int64 and ref_int.nnz == got_int.nnz and (got_int != ref_int).nnz == 0,
        )
        ref_float = (sp_ @ sp_).tocsr()
        diff = abs(c_float.to_scipy() - ref_float)
        bound = self.FLOAT_RTOL * abs(ref_float).max() if ref_float.nnz else 0.0
        ctx.check("mxm_float64_close", diff.nnz == 0 or diff.max() <= bound)
        ref_masked = ref_int.multiply(mask.to_scipy().astype(np.int64)).tocsr()
        ref_masked.eliminate_zeros()
        ctx.check("masked_mxm_exact", (c_masked.to_scipy() != ref_masked).nnz == 0)
        ctx.check("mxv_degree_exact", np.array_equal(degree, np.diff(a.indptr)))

    @staticmethod
    def _check_shm(ctx: Any) -> None:
        from repro.obs import get_registry
        from repro.runtime import live_segment_names

        live = get_registry().gauge("shm.live_segments").value
        prefix = f"repro-shm-{os.getpid()}-"
        left = [f for f in os.listdir("/dev/shm") if f.startswith(prefix)] if os.path.isdir(
            "/dev/shm"
        ) else []
        ctx.check("shm_no_leak", live == 0 and not live_segment_names() and not left,
                  f"gauge={live} files={len(left)}")


WORKLOADS: dict[str, Any] = {
    w.name: w for w in (ClassroomPlay(), ScenarioCold(), ScenarioWarm(), TrafficAnalytics())
}
