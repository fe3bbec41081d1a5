"""Runtime configuration, executors, heuristics, and host detection."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro import runtime
from repro.errors import RuntimeConfigError, WorkerCrashError
from repro.runtime import config as runtime_config
from repro.runtime.config import blocked_config, runs_inline
from repro.runtime.executor import MIN_NNZ_PER_BLOCK, SerialExecutor


@pytest.fixture(autouse=True)
def _pristine_runtime():
    runtime.reset()
    yield
    runtime.reset()
    runtime.shutdown_executors()


class TestConfig:
    def test_default_is_serial(self):
        cfg = runtime.get_config()
        assert cfg.workers == 1
        assert not cfg.parallel
        assert cfg.resolved_backend() == "serial"

    def test_configure_merges_fields(self):
        runtime.configure(workers=3)
        runtime.configure(backend="thread")
        cfg = runtime.get_config()
        assert cfg.workers == 3 and cfg.backend == "thread"

    def test_configure_block_rows_none_means_heuristic(self):
        runtime.configure(block_rows=64)
        assert runtime.get_config().block_rows == 64
        runtime.configure(block_rows=None)
        assert runtime.get_config().block_rows is None

    def test_configured_restores_previous(self):
        runtime.configure(workers=2)
        with runtime.configured(workers=5, backend="process"):
            assert runtime.get_config().workers == 5
        cfg = runtime.get_config()
        assert cfg.workers == 2 and cfg.backend == "auto"

    def test_reset(self):
        runtime.configure(workers=9, backend="thread")
        runtime.reset()
        assert runtime.get_config() == runtime.RuntimeConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"workers": -2},
            {"block_rows": 0},
            {"backend": "gpu"},
            {"min_parallel_work": -1},
            {"shm_min_bytes": -1},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(RuntimeConfigError):
            runtime.RuntimeConfig(**kwargs)

    def test_use_shm_gate(self):
        """shm needs a multi-worker process backend and heavy enough operands."""
        cfg = runtime.RuntimeConfig(workers=2, backend="process", shm_min_bytes=1000)
        assert cfg.use_shm(1000)
        assert not cfg.use_shm(999)
        assert not runtime.RuntimeConfig(workers=2, backend="thread", shm_min_bytes=0).use_shm(10**9)
        assert not runtime.RuntimeConfig(workers=1, backend="process", shm_min_bytes=0).use_shm(10**9)
        disabled = runtime.RuntimeConfig(workers=2, backend="process", shm_min_bytes=None)
        assert not disabled.use_shm(10**9)

    def test_configure_shm_min_bytes(self):
        runtime.configure(shm_min_bytes=123)
        assert runtime.get_config().shm_min_bytes == 123
        runtime.configure(shm_min_bytes=None)
        assert runtime.get_config().shm_min_bytes is None
        runtime.configure(workers=2)  # unrelated update keeps the sentinel
        assert runtime.get_config().shm_min_bytes is None

    def test_auto_backend_resolution(self):
        assert runtime.RuntimeConfig(workers=1).resolved_backend() == "serial"
        assert runtime.RuntimeConfig(workers=2).resolved_backend() == "thread"
        assert runtime.RuntimeConfig(workers=2, backend="process").resolved_backend() == "process"

    def test_blocked_config_gate(self):
        assert blocked_config(10**9, 100) is None  # serial default
        runtime.configure(workers=4, min_parallel_work=10)
        assert blocked_config(10, 2) is runtime.get_config()
        assert blocked_config(9, 2) is None  # below the work floor
        assert blocked_config(10**9, 1) is None  # one row cannot be split
        runtime.configure(backend="serial")
        assert blocked_config(10**9, 100) is None

    def test_serial_region_blocks_dispatch(self):
        runtime.configure(workers=4, min_parallel_work=1)
        assert blocked_config(100, 2) is not None
        with runtime.serial_region():
            assert runtime.in_serial_region()
            assert blocked_config(100, 2) is None
        assert not runtime.in_serial_region()


class TestExecutors:
    def test_serial_map_preserves_order(self):
        assert SerialExecutor().map(lambda x: x * 2, [3, 1, 2]) == [6, 2, 4]

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_pool_map_preserves_order(self, backend):
        cfg = runtime.RuntimeConfig(workers=2, backend=backend)
        ex = runtime.get_executor(cfg)
        assert ex.map(abs, [-5, 3, -1, 0]) == [5, 3, 1, 0]

    def test_get_executor_serial_for_one_worker(self):
        cfg = runtime.RuntimeConfig(workers=1, backend="thread")
        assert runtime.get_executor(cfg) is runtime.get_executor(cfg)
        assert runtime.get_executor(cfg).name == "serial"

    def test_get_executor_caches_pools(self):
        cfg = runtime.RuntimeConfig(workers=2, backend="thread")
        assert runtime.get_executor(cfg) is runtime.get_executor(cfg)

    def test_parallel_map_single_item_stays_inline(self):
        calls = runtime.parallel_map(lambda x: x + 1, [41])
        assert calls == [42]

    def test_parallel_map_uses_active_config(self):
        runtime.configure(workers=2, backend="thread")
        assert runtime.parallel_map(str, [1, 2, 3]) == ["1", "2", "3"]

    def test_tasks_run_in_serial_region(self):
        runtime.configure(workers=2, backend="thread")
        flags = runtime.parallel_map(lambda _: runtime.in_serial_region(), [0, 1, 2])
        assert flags == [True, True, True]

    def test_nested_parallel_map_stays_serial(self):
        """parallel_map from inside a worker must not re-enter the pool."""
        runtime.configure(workers=2, backend="thread")

        def outer(_):
            return runtime.parallel_map(lambda x: x + 1, [1, 2, 3])

        assert runtime.parallel_map(outer, [0, 1, 2, 3]) == [[2, 3, 4]] * 4

    def test_async_submit_serial_hop_keeps_contextvars(self):
        """The serial hop copies the caller's context into the task, which is
        how a benchmark's per-request id reaches the build it caused."""
        import asyncio
        import contextvars

        probe: contextvars.ContextVar[str | None] = contextvars.ContextVar(
            "probe", default=None
        )

        async def main():
            probe.set("op-7")
            return await runtime.async_submit(lambda _: probe.get(), None)

        assert runtime.get_executor().name == "serial"
        assert asyncio.run(main()) == "op-7"


def _loop_thread_and_task_thread(**submit_kwargs):
    """``(loop thread id, task thread id)`` for one ``async_submit`` call."""
    import asyncio
    import threading

    async def main():
        task_thread = await runtime.async_submit(
            lambda _: threading.get_ident(), None, **submit_kwargs
        )
        return threading.get_ident(), task_thread

    return asyncio.run(main())


class TestInlineGate:
    """``async_submit`` runs a small serial task on the loop thread; the gate
    (``runs_inline``) sends everything else through the hop."""

    def test_gate_says_inline_only_for_declared_small_serial_work(self):
        limit = runtime_config.INLINE_MAX_WORK
        assert runs_inline(1) and runs_inline(limit)
        assert not runs_inline(limit + 1)
        assert not runs_inline(None)
        pool = runtime.RuntimeConfig(workers=2, backend="thread")
        assert not runs_inline(1, pool)
        runtime.configure(workers=2, backend="thread")
        assert not runs_inline(1)
        assert runs_inline(1, runtime.RuntimeConfig())

    def test_small_task_runs_on_the_loop_thread(self):
        loop_thread, task_thread = _loop_thread_and_task_thread(work=1)
        assert task_thread == loop_thread

    def test_task_above_the_gate_hops(self):
        limit = runtime_config.INLINE_MAX_WORK
        loop_thread, task_thread = _loop_thread_and_task_thread(work=limit + 1)
        assert task_thread != loop_thread

    def test_undeclared_work_hops(self):
        loop_thread, task_thread = _loop_thread_and_task_thread()
        assert task_thread != loop_thread

    def test_pool_config_hops(self):
        runtime.configure(workers=2, backend="thread")
        loop_thread, task_thread = _loop_thread_and_task_thread(work=1)
        assert task_thread != loop_thread

    @pytest.mark.parametrize("work", [1, None], ids=["inline", "hop"])
    def test_task_sees_caller_contextvars_and_cannot_leak_into_them(self, work):
        import asyncio
        import contextvars

        probe: contextvars.ContextVar[str | None] = contextvars.ContextVar(
            "probe", default=None
        )

        def task(_):
            seen = probe.get()
            probe.set("written by the task")
            return seen

        async def main():
            probe.set("op-7")
            seen = await runtime.async_submit(task, None, work=work)
            return seen, probe.get()

        assert asyncio.run(main()) == ("op-7", "op-7")

    @pytest.mark.parametrize("work", [1, None], ids=["inline", "hop"])
    def test_both_routes_count_and_nest_task_spans(self, work):
        import asyncio

        from repro.obs import metrics as obs_metrics
        from repro.obs import trace as obs_trace

        def task(x):
            with obs_trace.get_tracer().span("probe.build"):
                return x + 1

        before = obs_metrics.counter("runtime.async_submits").value
        runtime.configure(tracing=True)
        obs_trace.get_tracer().drain()
        assert asyncio.run(runtime.async_submit(task, 1, label="probe", work=work)) == 2
        records = {rec.name: rec for rec in obs_trace.get_tracer().drain()}
        assert obs_metrics.counter("runtime.async_submits").value == before + 1
        submit = records["runtime.async_submit"]
        assert records["runtime.task"].parent_id == submit.span_id
        assert records["probe.build"].parent_id == records["runtime.task"].span_id

    @pytest.mark.parametrize("work", [1, None], ids=["inline", "hop"])
    def test_task_error_propagates_and_task_runs_in_serial_region(self, work):
        import asyncio

        def task(_):
            assert runtime.in_serial_region()
            raise ValueError("build failed")

        with pytest.raises(ValueError, match="build failed"):
            asyncio.run(runtime.async_submit(task, None, work=work))
        assert not runtime.in_serial_region()


class TestPoolInvalidation:
    """configure() must never leave a stale cached pool behind (ISSUE 8)."""

    def test_reconfigure_drains_and_rebuilds_pool(self):
        runtime.configure(workers=2, backend="thread")
        old = runtime.get_executor()
        assert old.workers == 2
        runtime.configure(workers=3)
        new = runtime.get_executor()
        assert new is not old
        assert new.workers == 3
        assert old._pool._shutdown, "superseded pool must be drained, not leaked"
        assert new.map(abs, [-1, -2]) == [1, 2]

    def test_reconfigure_same_shape_keeps_pool_warm(self):
        runtime.configure(workers=2, backend="thread")
        old = runtime.get_executor()
        runtime.configure(min_parallel_work=1)  # no (backend, workers) change
        assert runtime.get_executor() is old

    def test_other_backend_pools_stay_warm(self):
        runtime.configure(workers=2, backend="thread")
        thread_pool = runtime.get_executor()
        runtime.configure(backend="process")
        runtime.get_executor()
        runtime.configure(workers=3)  # drains only the stale ("process", 2) pool
        runtime.configure(backend="thread", workers=2)
        assert runtime.get_executor() is thread_pool
        assert not thread_pool._pool._shutdown

    def test_configured_exit_drains_the_scoped_pool(self):
        """Leaving a scoped config is a full transition: the pool it built
        for the restored backend does not linger beside the restored one."""
        from repro.runtime import executor

        runtime.configure(workers=2, backend="thread")
        with runtime.configured(workers=3):
            assert runtime.parallel_map(abs, [-1, -2, -3]) == [1, 2, 3]
            scoped = runtime.get_executor()
        assert runtime.parallel_map(abs, [-1, -2]) == [1, 2]
        assert sorted(executor._pools) == [("thread", 2)]
        assert scoped._pool._shutdown


class TestWorkerCrash:
    """A dying worker must surface as a named error and never poison the
    executor cache (ISSUE 8)."""

    def test_process_crash_raises_named_error(self):
        runtime.configure(workers=2, backend="process", min_parallel_work=1)
        with pytest.raises(WorkerCrashError) as err:
            runtime.parallel_map(os._exit, [13, 13], label="crash probe (block 0-2)")
        assert "crash probe (block 0-2)" in str(err.value)
        assert err.value.label == "crash probe (block 0-2)"

    def test_pool_rebuilt_and_usable_after_crash_on_all_backends(self):
        runtime.configure(workers=2, backend="process", min_parallel_work=1)
        broken = runtime.get_executor()
        with pytest.raises(WorkerCrashError):
            runtime.parallel_map(os._exit, [13, 13])
        rebuilt = runtime.get_executor()
        assert rebuilt is not broken, "broken pool must be evicted from the cache"
        assert runtime.parallel_map(abs, [-1, -2, -3]) == [1, 2, 3]
        for backend in ("serial", "thread", "process"):
            runtime.configure(backend=backend)
            assert runtime.parallel_map(abs, [-4, -5]) == [4, 5]

    def test_async_submit_crash_raises_named_error_then_recovers(self):
        import asyncio

        runtime.configure(workers=2, backend="process")

        async def main():
            with pytest.raises(WorkerCrashError) as err:
                await runtime.async_submit(os._exit, 13, label="spec 3 ('ddos')")
            assert err.value.label == "spec 3 ('ddos')"
            assert await runtime.async_submit(abs, -7) == 7  # fresh pool

        asyncio.run(main())


class TestProgressUnderCrash:
    """Progress accounting must not drift when rebuild retries are in flight
    (ISSUE 9 satellite): ``done == total`` may only be reported once every
    task genuinely completed — a crashed task is a retry, not progress."""

    def test_crashed_tasks_never_report_full_progress(self):
        from repro.obs import metrics as obs_metrics

        runtime.configure(workers=2, backend="process", min_parallel_work=1)
        crashed_before = obs_metrics.counter("runtime.tasks_crashed").value
        calls: list[tuple[int, int]] = []
        with pytest.raises(WorkerCrashError):
            runtime.parallel_map(
                os._exit, [13, 13], on_progress=lambda d, t: calls.append((d, t))
            )
        assert all(done < total for done, total in calls), (
            f"progress reported completion for crashed tasks: {calls}"
        )
        assert obs_metrics.counter("runtime.tasks_crashed").value > crashed_before

    def test_progress_still_reaches_total_on_success(self):
        runtime.configure(workers=2, backend="thread", min_parallel_work=1)
        calls: list[tuple[int, int]] = []
        runtime.parallel_map(abs, [-1, -2, -3], on_progress=lambda d, t: calls.append((d, t)))
        assert calls[-1] == (3, 3)
        assert [d for d, _ in calls] == [1, 2, 3]


class TestShutdownFlushesTrace:
    """shutdown_executors() must export-close the trace ring, not drop it."""

    def test_buffered_spans_land_in_the_sink(self, tmp_path):
        import json

        from repro.obs import trace as obs_trace

        sink = tmp_path / "teardown_trace.json"
        obs_trace.enable(sink=sink)
        try:
            runtime.configure(
                workers=2, backend="thread", min_parallel_work=1, tracing=True
            )
            runtime.parallel_map(abs, [-1, -2])
            assert len(obs_trace.get_tracer()) > 0
            runtime.shutdown_executors()
            assert sink.exists(), "shutdown dropped the buffered spans"
            document = json.loads(sink.read_text())
            names = {ev["name"] for ev in document["traceEvents"]}
            assert "runtime.map" in names
        finally:
            obs_trace.disable(flush=False)
            obs_trace._sink = None


class TestHeuristics:
    def test_explicit_request_wins(self):
        assert runtime.choose_block_rows(1000, 10**6, workers=4, requested=17) == 17

    def test_request_clamped_to_matrix(self):
        assert runtime.choose_block_rows(10, 100, workers=4, requested=500) == 10

    def test_zero_rows(self):
        assert runtime.choose_block_rows(0, 0, workers=4) == 1

    def test_dense_matrix_splits_into_blocks(self):
        block = runtime.choose_block_rows(1024, 10**6, workers=4)
        assert 1 <= block < 1024
        n_blocks = -(-1024 // block)
        assert n_blocks > 1

    def test_sparse_matrix_keeps_meaty_blocks(self):
        """Very sparse rows widen blocks to keep nnz per block above the floor."""
        n_rows, nnz = 10_000, 2_000
        block = runtime.choose_block_rows(n_rows, nnz, workers=4)
        assert block * nnz / n_rows >= MIN_NNZ_PER_BLOCK * 0.5


class TestBackends:
    def test_cpu_count_positive(self):
        assert runtime.cpu_count() >= 1

    def test_recommended_workers_bounded(self):
        assert 1 <= runtime.recommended_workers() <= 8

    def test_detect_summary(self):
        info = runtime.detect()
        assert info.cpu_count == runtime.cpu_count()
        assert isinstance(info.scipy_available, bool)
        assert "CPU" in info.describe()

    def test_has_scipy_imports_nothing(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        code = (
            "import sys\n"
            "from repro.runtime import backends\n"
            "backends.has_scipy()\n"
            "print('scipy' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True, timeout=60,
        )
        assert out.stdout.strip() == "False"

    def test_has_scipy_probes_once(self, monkeypatch):
        from repro.runtime import backends

        real = importlib.util.find_spec
        probes = []

        def counting(name, *args):
            probes.append(name)
            return real(name, *args)

        backends.has_scipy.cache_clear()
        monkeypatch.setattr(importlib.util, "find_spec", counting)
        try:
            first, second = backends.has_scipy(), backends.has_scipy()
        finally:
            backends.has_scipy.cache_clear()
        assert first == second == (real("scipy") is not None)
        assert probes == ["scipy"]
