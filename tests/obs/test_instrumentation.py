"""End-to-end instrumentation: kernels, shm, service, verify, Perfetto export."""

import asyncio
import json
import os

import numpy as np
import pytest

from repro import runtime
from repro.assoc import blocked
from repro.assoc.semiring import PLUS_MONOID, PLUS_TIMES
from repro.assoc.sparse import CSRMatrix
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.scenarios import ScenarioCache, ScenarioService, ScenarioSpec, generate_batch
from repro.verify import KernelEqualityOracle, run_corpus
from tests.verify.fault_fixtures import PERTURBED_SEMIRING


def _rand_csr(rng, n, nnz):
    rows = rng.integers(0, n, nnz)
    cols = rng.integers(0, n, nnz)
    vals = rng.standard_normal(nnz)
    return CSRMatrix.from_triples(rows, cols, vals, (n, n))


def _validate_trace_events(events):
    """Schema check for Chrome/Perfetto ``trace_event`` complete events."""
    assert events, "empty traceEvents"
    for ev in events:
        assert set(ev) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"}
        assert ev["ph"] == "X"
        assert isinstance(ev["name"], str) and ev["name"]
        assert isinstance(ev["ts"], (int, float)) and ev["ts"] >= 0
        assert isinstance(ev["dur"], (int, float)) and ev["dur"] >= 0
        assert isinstance(ev["pid"], int) and isinstance(ev["tid"], int)
        assert isinstance(ev["args"], dict)


class TestKernelSpans:
    def test_traced_parallel_mxm_records_kernel_span(self):
        runtime.configure(
            workers=2, backend="thread", min_parallel_work=1, block_rows=32,
            tracing=True,
        )
        rng = np.random.default_rng(5)
        a, b = _rand_csr(rng, 120, 2000), _rand_csr(rng, 120, 2000)
        out = a.mxm(b, PLUS_TIMES)
        tracer = obs_trace.get_tracer()
        by_name = {}
        for rec in tracer.spans():
            by_name.setdefault(rec.name, rec)
        assert "kernel.parallel_mxm" in by_name
        attrs = dict(by_name["kernel.parallel_mxm"].attrs)
        assert attrs["backend"] == "thread"
        assert attrs["nnz_in"] == a.nnz + b.nnz
        assert attrs["nnz_out"] == out.nnz
        assert attrs["blocks"] >= 2
        # the kernel counter and wall-time histogram moved too
        assert obs_metrics.counter("kernels.parallel_mxm").value >= 1
        assert obs_metrics.histogram("kernels.wall_ms").count >= 1

    def test_untraced_kernels_still_count(self):
        runtime.configure(workers=2, backend="thread", min_parallel_work=1, block_rows=32)
        rng = np.random.default_rng(6)
        a, b = _rand_csr(rng, 100, 1500), _rand_csr(rng, 100, 1500)
        a.mxm(b, PLUS_TIMES)
        assert obs_metrics.counter("kernels.parallel_mxm").value >= 1
        assert obs_trace.get_tracer() is obs_trace.NULL_TRACER


class TestBlockedEntryPointObs:
    """Every blocked entry point records one ``kernels.<name>`` count, one
    ``kernels.wall_ms`` observation and one ``kernel.<name>`` span carrying
    ``route``, ``blocks`` and ``nnz_out``, on either transport route."""

    NAMES = sorted(name for name in blocked.__all__ if name.startswith("parallel_"))

    @staticmethod
    def _args(name):
        """Operands for *name*, built before the runtime goes parallel."""
        rng = np.random.default_rng(8)
        a, b, mask = _rand_csr(rng, 64, 600), _rand_csr(rng, 64, 600), _rand_csr(rng, 64, 200)
        x = rng.standard_normal(64)
        allow = rng.integers(0, 2, 64).astype(bool)
        rows, cols, vals = a.triples()
        return {
            "parallel_mxm": (a, b, PLUS_TIMES),
            "parallel_mxv": (a, x, PLUS_TIMES),
            "parallel_ewise_union": (a, b, PLUS_MONOID),
            "parallel_ewise_intersect": (a, b, np.multiply),
            "parallel_coalesce": (rows, cols, vals, a.shape, PLUS_MONOID),
            "parallel_masked_mxm": (a, b, PLUS_TIMES, mask),
            "parallel_masked_mxv": (a, x, PLUS_TIMES, allow),
            "parallel_masked_intersect": (a, b, np.multiply, mask, False),
            "parallel_union_all": ([a, b, mask], PLUS_MONOID, mask, True),
        }[name]

    @staticmethod
    def _assert_recorded_once(name, route):
        assert obs_metrics.counter(f"kernels.{name}").value == 1
        assert obs_metrics.histogram("kernels.wall_ms").count == 1
        spans = [r for r in obs_trace.get_tracer().spans() if r.name.startswith("kernel.")]
        assert [r.name for r in spans] == [f"kernel.{name}"]
        attrs = dict(spans[0].attrs)
        assert attrs["route"] == route
        assert attrs["blocks"] == 4
        assert attrs["nnz_out"] >= 0

    @pytest.mark.parametrize("name", NAMES)
    def test_pickle_route(self, name):
        args = self._args(name)
        cfg = runtime.configure(
            workers=2, backend="thread", min_parallel_work=1, block_rows=16, tracing=True
        )
        getattr(blocked, name)(*args, cfg)
        self._assert_recorded_once(name, "pickle")

    def test_shm_route(self):
        args = self._args("parallel_mxm")
        cfg = runtime.configure(
            workers=2, backend="process", min_parallel_work=1, shm_min_bytes=0,
            block_rows=16, tracing=True,
        )
        blocked.parallel_mxm(*args, cfg)
        self._assert_recorded_once("parallel_mxm", "shm")


class TestWorkerSpanStitching:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_task_spans_parent_under_the_map_span(self, backend):
        runtime.configure(workers=2, backend=backend, min_parallel_work=1, tracing=True)
        runtime.parallel_map(len, [[1], [2, 2], [3, 3, 3]], label="stitch probe")
        tracer = obs_trace.get_tracer()
        maps = [r for r in tracer.spans() if r.name == "runtime.map"]
        tasks = [r for r in tracer.spans() if r.name == "runtime.task"]
        assert len(maps) == 1 and len(tasks) == 3
        map_span = maps[0]
        assert all(t.parent_id == map_span.span_id for t in tasks)
        assert sorted(dict(t.attrs)["index"] for t in tasks) == [0, 1, 2]
        if backend == "process":
            assert all(t.pid != os.getpid() for t in tasks), (
                "process-backend task spans must come from worker processes"
            )


class TestShmGauges:
    def test_segment_lifecycle_metrics_and_zero_leak_gauge(self):
        cfg = runtime.configure(
            workers=2, backend="process", min_parallel_work=1,
            shm_min_bytes=0, block_rows=32,
        )
        rng = np.random.default_rng(7)
        a, b = _rand_csr(rng, 100, 1500), _rand_csr(rng, 100, 1500)
        blocked.parallel_mxm(a, b, PLUS_TIMES, cfg)
        created = obs_metrics.counter("shm.segments_created").value
        unlinked = obs_metrics.counter("shm.segments_unlinked").value
        assert created >= 6  # two CSR operands x three arrays each
        assert unlinked == created
        assert obs_metrics.gauge("shm.live_segments").value == 0.0
        assert obs_metrics.counter("shm.bytes_exported").value > 0
        assert obs_metrics.histogram("shm.lease_ms").count >= 1

    def test_attach_cache_hit_and_miss_counters(self):
        # attach counters move in the attaching process; probe them in-process
        from repro.runtime import shm

        arr = np.arange(16, dtype=np.float64)
        with shm.OperandLease() as lease:
            ref = lease.export_array(arr)
            misses0 = obs_metrics.counter("shm.attach_misses").value
            hits0 = obs_metrics.counter("shm.attach_hits").value
            shm.attach_array(ref)  # first attach: miss
            shm.attach_array(ref)  # cached: hit
            assert obs_metrics.counter("shm.attach_misses").value == misses0 + 1
            assert obs_metrics.counter("shm.attach_hits").value == hits0 + 1
            shm.detach_all()


class TestServiceMetrics:
    def _specs(self, count, base="ring", n=12):
        return [ScenarioSpec(base=base, n=n, seed=k) for k in range(count)]

    def test_service_folds_into_the_registry(self):
        async def main():
            async with ScenarioService(concurrency=2, max_entries=16) as service:
                handle = await service.submit(self._specs(4))
                await handle.results()
                # resubmit: pure cache hits
                await (await service.submit(self._specs(4))).results()

        asyncio.run(main())
        assert obs_metrics.counter("scenario.batches_submitted").value == 2
        assert obs_metrics.counter("scenario.specs_submitted").value == 8
        assert obs_metrics.counter("scenario.specs_completed").value == 8
        assert obs_metrics.histogram("scenario.queue_wait_ms").count == 8
        assert obs_metrics.histogram("scenario.build_ms").count == 4
        assert obs_metrics.counter("scenario.cache.misses").value == 4
        assert obs_metrics.counter("scenario.cache.hits").value == 4
        assert obs_metrics.counter("scenario.cache.puts").value == 4
        assert obs_metrics.gauge("scenario.queue_depth").value == 0.0

    def test_cache_family_counters_and_residency_gauges(self):
        cache = ScenarioCache(max_entries=2)
        specs = self._specs(3)
        generate_batch(specs, cache=cache)
        assert obs_metrics.counter("scenario.batches").value == 1
        family_misses = obs_metrics.counter("scenario.cache.misses.pattern").value
        assert family_misses == 3
        assert obs_metrics.counter("scenario.cache.evictions").value == 1  # LRU bound
        assert obs_metrics.gauge("scenario.cache.entries").value == 2.0
        assert obs_metrics.gauge("scenario.cache.bytes").value == cache.resident_bytes
        cache.clear()
        assert obs_metrics.gauge("scenario.cache.entries").value == 0.0
        assert obs_metrics.gauge("scenario.cache.bytes").value == 0.0


class TestVerifyTraceArtifact:
    def test_failing_traced_corpus_leaves_a_perfetto_file(self, tmp_path):
        runtime.configure(tracing=True)
        report = run_corpus(
            [ScenarioSpec(base="clique", n=16, seed=77)],
            oracles=(KernelEqualityOracle(semiring=PERTURBED_SEMIRING),),
            repro_dir=tmp_path,
        )
        assert not report.ok
        assert report.trace_path is not None and report.trace_path.exists()
        assert report.trace_path.name == "trace_run_corpus.json"
        document = json.loads(report.trace_path.read_text())
        _validate_trace_events(document["traceEvents"])
        assert any(ev["name"] == "verify.run_corpus" for ev in document["traceEvents"])
        assert str(report.trace_path) in report.summary()

    def test_passing_or_untraced_runs_leave_no_artifact(self, tmp_path):
        report = run_corpus(
            [ScenarioSpec(base="ring", n=10, seed=1)],
            oracles=(KernelEqualityOracle(),),
            repro_dir=tmp_path,
        )
        assert report.ok and report.trace_path is None


class TestPerfettoExportOfServiceBatch:
    def test_real_service_batch_export_is_schema_valid(self, tmp_path):
        """Acceptance criterion: a traced service batch exports loadable JSON."""
        runtime.configure(tracing=True)

        async def main():
            async with ScenarioService(concurrency=2) as service:
                await (await service.submit(
                    [ScenarioSpec(base="ring", n=12, seed=k) for k in range(3)]
                )).results()

        asyncio.run(main())
        tracer = obs_trace.get_tracer()
        assert len(tracer) > 0
        path = obs_trace.write_trace_json(tracer.spans(), tmp_path / "service.json")
        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ms"
        _validate_trace_events(document["traceEvents"])
        names = {ev["name"] for ev in document["traceEvents"]}
        assert "runtime.async_submit" in names
