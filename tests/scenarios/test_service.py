"""The asyncio scenario service: queueing, caching, progress, cancellation.

No pytest-asyncio in the toolchain — each test drives its own event loop with
``asyncio.run``, which also mirrors how synchronous callers embed the service.
"""

import asyncio
import threading

import pytest

from repro import runtime
from repro.errors import ScenarioError, ScenarioServiceError
from repro.scenarios import (
    ScenarioCache,
    ScenarioService,
    ScenarioSpec,
    extend_spec,
    generate_batch,
)
from repro.scenarios import service as service_mod


def specs_of(count: int, base: str = "ring", n: int = 12) -> list[ScenarioSpec]:
    return [ScenarioSpec(base=base, n=n, seed=k) for k in range(count)]


class TestLifecycle:
    def test_requires_start(self):
        service = ScenarioService()

        async def main():
            with pytest.raises(ScenarioServiceError, match="not running"):
                await service.submit(specs_of(1))

        asyncio.run(main())

    def test_double_start_rejected(self):
        async def main():
            async with ScenarioService() as service:
                with pytest.raises(ScenarioServiceError, match="already running"):
                    await service.start()

        asyncio.run(main())

    def test_stop_is_idempotent_and_context_manager_cleans_up(self):
        async def main():
            service = ScenarioService(concurrency=2)
            async with service:
                assert service.running
                await service.generate(specs_of(2))
            assert not service.running
            await service.stop()  # second stop: no-op

        asyncio.run(main())

    def test_bad_configuration_rejected(self):
        with pytest.raises(ScenarioServiceError, match="concurrency"):
            ScenarioService(concurrency=0)
        with pytest.raises(ScenarioServiceError, match="queue_size"):
            ScenarioService(queue_size=0)


class TestResults:
    def test_ordered_results_match_generate_batch(self):
        specs = specs_of(8) + specs_of(4, base="star")
        reference = generate_batch(specs, workers=1, backend="serial")

        async def main():
            async with ScenarioService(concurrency=3) as service:
                return await service.generate(specs)

        results = asyncio.run(main())
        assert len(results) == len(reference)
        for got, ref in zip(results, reference):
            assert got == ref
            assert got.meta == ref.meta

    def test_thread_backend_bit_identity(self, monkeypatch):
        specs = specs_of(6, base="mesh", n=16)
        reference = generate_batch(specs, workers=1, backend="serial")
        build_threads: list[str] = []
        build = service_mod._build_indexed

        def recording_build(item):
            build_threads.append(threading.current_thread().name)
            return build(item)

        monkeypatch.setattr(service_mod, "_build_indexed", recording_build)

        async def main():
            async with ScenarioService(concurrency=2) as service:
                return await service.generate(specs)

        with runtime.configured(workers=3, backend="thread"):
            results = asyncio.run(main())
        for got, ref in zip(results, reference):
            assert got == ref and got.meta == ref.meta
        assert len(build_threads) == len(specs)
        assert all(name.startswith("repro-runtime") for name in build_threads), (
            f"builds must run on the runtime's thread pool: {build_threads}"
        )

    def test_handle_await_is_results_shorthand(self):
        specs = specs_of(3)

        async def main():
            async with ScenarioService() as service:
                handle = await service.submit(specs)
                return await handle

        assert asyncio.run(main()) == generate_batch(specs)

    def test_build_failure_surfaces_with_index_and_name(self):
        # passes registry validation; the generator body rejects it
        bad = ScenarioSpec(base="mesh", n=6, params={"dims": [2, 2]}, seed=2)
        batch = specs_of(2) + [bad]

        async def main():
            async with ScenarioService() as service:
                handle = await service.submit(batch)
                with pytest.raises(ScenarioError, match=r"spec 2 \('mesh'\) failed to build"):
                    await handle.results()
                mixed = await handle.results(return_exceptions=True)
                assert isinstance(mixed[2], ScenarioError)
                assert mixed[:2] == generate_batch(specs_of(2))
                assert service.stats()["specs_failed"] == 1

        asyncio.run(main())

    def test_submit_validates_like_generate_batch(self):
        async def main():
            async with ScenarioService() as service:
                with pytest.raises(ScenarioError, match="index 1"):
                    await service.submit([ScenarioSpec(base="ring"), "ring"])
                with pytest.raises(ScenarioError, match=r"spec 0 \('nope'\)"):
                    await service.submit([ScenarioSpec(base="nope")])

        asyncio.run(main())


class TestCaching:
    def test_repeat_batches_hit_the_cache(self):
        specs = specs_of(5)

        async def main():
            async with ScenarioService(concurrency=2) as service:
                first = await service.generate(specs)
                second = await service.generate(specs)
                assert first == second
                analytics = service.cache.analytics()
                assert analytics.misses == 5 and analytics.hits == 5
                return service.stats()

        stats = asyncio.run(main())
        assert stats["specs_completed"] == 10
        assert stats["cache"]["hit_rate"] == pytest.approx(0.5)

    def test_warm_is_idempotent_and_makes_batches_pure_hits(self):
        specs = specs_of(4)

        async def main():
            async with ScenarioService() as service:
                built = await service.warm(specs + specs)  # dupes build once
                again = await service.warm(specs)
                results = await service.generate(specs)
                return built, again, results, service.cache.analytics()

        built, again, results, analytics = asyncio.run(main())
        assert (built, again) == (4, 0)
        assert results == generate_batch(specs)
        assert analytics.hits == 4  # the generate() — warming itself missed

    def test_shared_cache_with_sync_batch_path(self):
        specs = specs_of(3)
        cache = ScenarioCache()
        generate_batch(specs, cache=cache)

        async def main():
            async with ScenarioService(cache=cache) as service:
                await service.generate(specs)
                return service.cache.analytics()

        analytics = asyncio.run(main())
        assert analytics.hits == 3 and analytics.misses == 3


class TestProgress:
    def test_progress_is_monotonic_and_reaches_total(self):
        specs = specs_of(7)
        seen: list[tuple[int, int]] = []

        async def main():
            async with ScenarioService(concurrency=3) as service:
                handle = await service.submit(
                    specs, on_progress=lambda d, t: seen.append((d, t))
                )
                await handle.results()
                assert handle.done == handle.total == 7

        asyncio.run(main())
        assert seen == [(k, 7) for k in range(1, 8)]


class _GatedBuild:
    """A build that parks until released — deterministic in-flight control."""

    def __init__(self):
        self.release = threading.Event()
        self.started = threading.Event()
        self.calls: list[int] = []

    def __call__(self, item):
        index, spec = item
        self.calls.append(index)
        self.started.set()
        assert self.release.wait(timeout=30)
        return spec.build()


class TestBackpressure:
    def test_queue_full_nowait_raises_and_wait_waits(self, monkeypatch):
        from repro.scenarios import service as service_mod

        gate = _GatedBuild()
        monkeypatch.setattr(service_mod, "_build_indexed", gate)
        specs = specs_of(4)

        async def main():
            async with ScenarioService(concurrency=1, queue_size=1) as service:
                # worker takes spec 0 and parks; spec 1 fills the queue
                first = await service.submit(specs[:2])
                await asyncio.to_thread(gate.started.wait, 30)
                with pytest.raises(ScenarioServiceError, match="queue is full"):
                    await service.submit(specs[2:], wait=False)
                # the failed submit cancelled its own futures, nothing else:
                stats = service.stats()
                assert stats["queue_depth"] == 1
                # wait=True parks instead of raising; release lets it through
                waiter = asyncio.create_task(service.submit(specs[2:3]))
                await asyncio.sleep(0.05)
                assert not waiter.done()  # backpressured, not failed
                gate.release.set()
                second = await waiter
                results = await first.results() + await second.results()
                assert results == generate_batch(specs[:3])

        asyncio.run(main())


class TestCancellation:
    def test_cancel_skips_queued_builds(self, monkeypatch):
        from repro.scenarios import service as service_mod

        gate = _GatedBuild()
        monkeypatch.setattr(service_mod, "_build_indexed", gate)
        specs = specs_of(5)

        async def main():
            async with ScenarioService(concurrency=1, queue_size=8) as service:
                handle = await service.submit(specs)
                await asyncio.to_thread(gate.started.wait, 30)
                cancelled = handle.cancel()
                gate.release.set()
                results = await handle.results(return_exceptions=True)
                await service.stop()  # drain so counters settle
                return cancelled, results, service.stats(), list(gate.calls)

        cancelled, results, stats, calls = asyncio.run(main())
        assert cancelled == 5  # in-flight spec 0 included: result discarded
        assert all(isinstance(r, asyncio.CancelledError) for r in results)
        assert calls == [0]  # queued specs 1..4 never reached a build
        assert stats["specs_cancelled"] == 5
        assert stats["specs_completed"] == 0

    def test_no_progress_after_cancel_observed(self, monkeypatch):
        """on_progress must never fire for tasks completing after cancel()."""
        from repro.scenarios import service as service_mod

        gate = _GatedBuild()
        monkeypatch.setattr(service_mod, "_build_indexed", gate)
        progress: list[tuple[int, int]] = []

        async def main():
            async with ScenarioService(concurrency=1, queue_size=8) as service:
                handle = await service.submit(specs_of(3), on_progress=progress.append)
                await asyncio.to_thread(gate.started.wait, 30)
                handle.cancel()  # observed while spec 0 is still in flight
                assert handle.cancelled
                gate.release.set()
                await handle.results(return_exceptions=True)
                await service.stop()  # drain: every job is marked done
                return handle.done

        done = asyncio.run(main())
        assert progress == [], "hook fired for a post-cancel completion"
        assert done == 3  # completions are still counted, just not reported

    def test_cancel_during_final_task_does_not_deadlock_await(self, monkeypatch):
        """cancel() while the last task is in flight — with a hook that would
        raise if it fired — must still let ``await handle`` resolve."""
        from repro.scenarios import service as service_mod

        gate = _GatedBuild()
        monkeypatch.setattr(service_mod, "_build_indexed", gate)

        def hostile_hook(done, total):
            raise RuntimeError("hook fired after cancellation")

        async def main():
            async with ScenarioService(concurrency=1, queue_size=8) as service:
                handle = await service.submit(specs_of(1), on_progress=hostile_hook)
                await asyncio.to_thread(gate.started.wait, 30)
                assert handle.cancel() == 1  # the final (only) task, in flight
                gate.release.set()
                results = await asyncio.wait_for(
                    handle.results(return_exceptions=True), timeout=10
                )
                assert all(isinstance(r, asyncio.CancelledError) for r in results)
                # the worker survived; the service serves the next batch
                follow_up = await asyncio.wait_for(service.generate(specs_of(1)), 30)
                assert follow_up == generate_batch(specs_of(1))

        asyncio.run(main())

    def test_raising_progress_hook_does_not_strand_the_queue(self):
        """A hook that raises on every call must not kill the worker task —
        a dead worker would leave queued futures unresolved forever."""

        def hostile_hook(done, total):
            raise RuntimeError("boom")

        async def main():
            async with ScenarioService(concurrency=1, queue_size=8) as service:
                handle = await service.submit(specs_of(3), on_progress=hostile_hook)
                results = await asyncio.wait_for(handle.results(), timeout=30)
                assert results == generate_batch(specs_of(3))
                assert service.stats()["specs_completed"] == 3

        asyncio.run(main())

    def test_cancelled_results_raise_without_return_exceptions(self):
        async def main():
            async with ScenarioService() as service:
                handle = await service.submit(specs_of(2))
                handle.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await handle.results()
                # the service itself survives for the next batch
                assert await service.generate(specs_of(1)) == generate_batch(
                    specs_of(1)
                )

        asyncio.run(main())


class TestDelta:
    def test_apply_delta_matches_full_rebuild_and_caches_target(self):
        base = ScenarioSpec("star", n=20, seed=3)
        delta = {"name": "ddos_attack"}
        target = extend_spec(base, delta)
        full = target.build()

        async def main():
            async with ScenarioService() as service:
                result = await service.apply_delta(base, delta)
                follow_up = await service.generate([target])
                return result, follow_up, service.stats()

        result, follow_up, stats = asyncio.run(main())
        assert result.matrix == full and result.matrix.meta == full.meta
        assert follow_up[0] == full  # served from cache, not rebuilt
        assert stats["delta_rebuilds"] == 1
        assert (
            stats["delta_rows_recomputed"] + stats["delta_rows_reused"]
            == result.stats.rows
        )


class TestStats:
    def test_stats_shape(self):
        async def main():
            async with ScenarioService(concurrency=2, queue_size=16) as service:
                await service.generate(specs_of(3))
                return service.stats()

        stats = asyncio.run(main())
        assert stats["running"] is True
        assert stats["concurrency"] == 2 and stats["queue_size"] == 16
        assert stats["batches_submitted"] == 1
        assert stats["specs_submitted"] == stats["specs_completed"] == 3
        assert stats["cache"]["misses"] == 3
