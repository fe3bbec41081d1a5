"""Write-behind: the store's writer thread, its barriers, and its crash story.

The cache hands each write to :meth:`ScenarioStore.put_behind`; one writer
thread group-commits them through :meth:`ScenarioStore.put_many`.  These
tests hold that path to the same rules as a direct ``put``: a crash at any
point leaves only orphans, the barriers (``flush``/``close``/``stop``) make
every served result durable, failures surface instead of vanishing, and the
in-memory key view never hides a key from the store's own readers.
"""

import asyncio
import os
import select
import signal
import sqlite3
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.errors import StoreBusyError
from repro.obs import metrics as obs_metrics
from repro.scenarios import ScenarioCache, ScenarioService, ScenarioSpec
from repro.store import ScenarioStore
from repro.store import store as store_mod

SRC = str(Path(__file__).resolve().parents[2] / "src")

CLEAN = {
    "missing_blob": [],
    "corrupt_blob": [],
    "digest_mismatch": [],
    "rebuild_mismatch": [],
}


def specs_of(count, first_seed=1):
    return [
        ScenarioSpec(base="ring", params={}, n=10, seed=first_seed + k)
        for k in range(count)
    ]


class _Boom(BaseException):
    """Deliberately not Exception: nothing downstream may swallow the crash."""


def _hook_raising_at(stage):
    def hook(s):
        if s == stage:
            raise _Boom(stage)

    return hook


def _lock_index(root):
    """Hold the index's write lock from a second connection."""
    conn = sqlite3.connect(Path(root) / "index.sqlite", isolation_level=None)
    conn.execute("BEGIN IMMEDIATE")
    return conn


class TestBatchFaults:
    @pytest.mark.parametrize("stage", ["blob_written", "index_pre_commit"])
    def test_fault_in_a_batch_leaves_no_row_only_orphans(self, tmp_path, stage):
        specs = specs_of(4)
        items = [(s.cache_key(), s, s.build()) for s in specs]
        store = ScenarioStore(tmp_path, fsync=False, fault_hook=_hook_raising_at(stage))
        with pytest.raises(_Boom):
            store.put_many(items)
        assert not any(store.knows(key) for key, _, _ in items)
        store.close()

        with ScenarioStore(tmp_path, fsync=False) as reopened:
            assert reopened.index.count() == 0  # not one row of the batch
            report = reopened.gc()
            assert report["orphan_blobs"] == sorted(key for key, _, _ in items)
            assert report["dangling_rows"] == []
            assert list(reopened.blobs.keys()) == []
            assert reopened.verify() == CLEAN

    @pytest.mark.parametrize("stage", ["blob_written", "index_pre_commit"])
    def test_writer_fault_is_reraised_by_flush(self, tmp_path, stage):
        specs = specs_of(3)
        store = ScenarioStore(tmp_path, fsync=False, fault_hook=_hook_raising_at(stage))
        for spec in specs:
            store.put_behind(spec.cache_key(), spec, spec.build())
        with pytest.raises(_Boom):
            store.flush()
        store.flush()  # reported once; the failed group is gone, not retried
        assert store.stats()["pending_writes"] == 0
        assert store.index.count() == 0
        assert all(store.get(spec) is None for spec in specs)
        store.close()
        with ScenarioStore(tmp_path, fsync=False) as reopened:
            assert reopened.gc()["dangling_rows"] == []


_KILLED_SERVICE = """
import asyncio, sys, threading
sys.path.insert(0, {src!r})
from repro.scenarios import ScenarioService, ScenarioSpec
from repro.store import ScenarioStore

stalled = threading.Event()

def stall(stage):
    if stage == {stage!r}:
        stalled.set()
        threading.Event().wait()  # the writer stops here; writes queue behind it

async def main():
    store = ScenarioStore({root!r}, fsync=False, fault_hook=stall)
    service = ScenarioService(store=store)
    await service.start()
    specs = [ScenarioSpec(base="ring", params={{}}, n=10, seed=s) for s in range(1, 9)]
    await service.generate(specs)
    await asyncio.to_thread(stalled.wait)
    print("served", len(specs), flush=True)
    await asyncio.Event().wait()  # serve forever; the parent kills us

asyncio.run(main())
"""


class TestKilledService:
    @pytest.mark.parametrize("stage", ["blob_written", "index_in_txn", "index_pre_commit"])
    def test_sigkill_with_writes_queued_leaves_orphans_only(self, tmp_path, stage):
        script = _KILLED_SERVICE.format(src=SRC, root=str(tmp_path), stage=stage)
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 60)
            assert ready, "the service never reported"
            line = proc.stdout.readline()
            assert line.strip() == "served 8", proc.stderr.read()
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
            proc.stdout.close()
            proc.stderr.close()
        assert proc.returncode == -signal.SIGKILL

        with ScenarioStore(tmp_path, fsync=False) as store:
            assert store.verify(rebuild=True) == CLEAN
            report = store.gc()
            assert report["dangling_rows"] == []  # never a row without its blob
            # the stalled group's blobs landed; its rows never committed
            served = {spec.cache_key() for spec in specs_of(8)}
            assert report["orphan_blobs"]
            assert set(report["orphan_blobs"]) <= served
            assert store.index.count() == 0
            # every spec is still writable and readable afterwards
            for spec in specs_of(8):
                store.put(spec, spec.build())
                assert store.get(spec) == spec.build()


class TestBarriers:
    def test_stop_makes_every_served_key_durable(self, tmp_path):
        specs = specs_of(12)

        async def serve():
            store = ScenarioStore(tmp_path, fsync=False)
            service = ScenarioService(store=store, max_entries=2)
            await service.start()
            served = await service.generate(specs)
            await service.stop()
            return store, served

        store, served = asyncio.run(serve())
        assert store.stats()["pending_writes"] == 0
        with ScenarioStore(tmp_path, fsync=False) as fresh:
            for spec, matrix in zip(specs, served):
                loaded = fresh.get(spec)
                assert loaded == matrix and loaded.meta == matrix.meta
            assert fresh.verify() == CLEAN
        store.close()

    def test_own_reads_wait_for_queued_writes(self, tmp_path):
        spec = specs_of(1)[0]
        with ScenarioStore(tmp_path, fsync=False) as store:
            store.put_behind(spec.cache_key(), spec, spec.build())
            assert store.knows(spec.cache_key())
            assert store.get(spec) == spec.build()  # read-your-writes
            assert store.entry(spec).writes == 1

    def test_idle_writer_exits_and_the_next_write_restarts_it(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_mod, "WRITER_IDLE_S", 0.2)
        first, second = specs_of(2)
        with ScenarioStore(tmp_path, fsync=False) as store:
            store.put_behind(first.cache_key(), first, first.build())
            writer = store._writer
            writer.join(timeout=10)
            assert not writer.is_alive()  # nothing queued: the thread is gone
            assert store.index.count() == 1
            store.put_behind(second.cache_key(), second, second.build())
            store.flush()
            assert store.get(second) == second.build()

    def test_close_flushes(self, tmp_path):
        specs = specs_of(5)
        store = ScenarioStore(tmp_path, fsync=False)
        for spec in specs:
            store.put_behind(spec.cache_key(), spec, spec.build())
        store.close()
        with ScenarioStore(tmp_path, fsync=False) as fresh:
            assert fresh.index.count() == len(specs)


class TestConcurrentWriters:
    def test_many_threads_queue_and_flush_without_losing_a_write(self, tmp_path):
        """Producers, flushers and the writer share the queue and counters."""
        specs = specs_of(6)
        items = [(s.cache_key(), s, s.build()) for s in specs]
        threads_n, rounds = 8, 12
        store = ScenarioStore(tmp_path, fsync=False)
        errors = []

        def produce(k):
            try:
                for r in range(rounds):
                    store.put_behind(*items[(k + r) % len(items)])
                    if r % 4 == 3:
                        store.flush()
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=produce, args=(k,)) for k in range(threads_n)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
            assert not any(w.is_alive() for w in workers)
        finally:
            sys.setswitchinterval(interval)
        store.flush()
        assert errors == []
        assert store.stats()["pending_writes"] == 0
        # every upsert landed: a lost update would break the writes counters
        assert store.index.count() == len(specs)
        assert sum(store.entry(s).writes for s in specs) == threads_n * rounds
        assert store.verify() == CLEAN
        store.close()


class TestWriterFailures:
    def test_busy_index_is_counted_and_reraised_by_flush(self, tmp_path):
        spec = specs_of(1)[0]
        store = ScenarioStore(tmp_path, fsync=False, retries=0)
        before = obs_metrics.counter("store.writer_errors").value
        blocker = _lock_index(tmp_path)
        try:
            store.put_behind(spec.cache_key(), spec, spec.build())
            with pytest.raises(StoreBusyError):
                store.flush()
        finally:
            blocker.execute("ROLLBACK")
            blocker.close()
        assert obs_metrics.counter("store.writer_errors").value == before + 1
        store.put(spec, spec.build())  # the store recovers once the lock is gone
        store.close()

    def test_busy_index_is_reraised_by_service_stop(self, tmp_path):
        spec = specs_of(1)[0]
        store = ScenarioStore(tmp_path, fsync=False, retries=0)

        async def serve():
            service = ScenarioService(store=store)
            await service.start()
            await service.generate([spec])
            await service.stop()

        blocker = _lock_index(tmp_path)
        try:
            with pytest.raises(StoreBusyError):
                asyncio.run(serve())
        finally:
            blocker.execute("ROLLBACK")
            blocker.close()
        store.close()


_OTHER_WRITER = """
import sys
sys.path.insert(0, {src!r})
from repro.scenarios import ScenarioSpec
from repro.store import ScenarioStore

spec = ScenarioSpec(base="ring", params={{}}, n=10, seed=1)
with ScenarioStore({root!r}, fsync=False) as store:
    store.put(spec, spec.build())
"""


class TestKeyView:
    def test_key_written_elsewhere_after_open_rebuilds_once(self, tmp_path):
        spec = specs_of(1)[0]
        key = spec.cache_key()
        with ScenarioStore(tmp_path, fsync=False) as store:
            script = _OTHER_WRITER.format(src=SRC, root=str(tmp_path))
            subprocess.run([sys.executable, "-c", script], check=True)
            assert not store.knows(key)  # the view was loaded before the write
            assert store.contains(spec)  # direct reads stay authoritative

            cache = ScenarioCache(store=store)
            matrix, tier = cache.fetch_tiered(spec)
            assert tier == "build"  # one redundant, bit-identical build
            assert matrix == spec.build() and matrix.meta == spec.build().meta
            cache.flush()
            assert store.index.count() == 1
            assert store.entry(spec).writes == 2  # an idempotent upsert
            assert store.knows(key)
            assert cache.fetch_tiered(spec)[1] == "l1"

    def test_view_loaded_at_open(self, tmp_path):
        specs = specs_of(3)
        with ScenarioStore(tmp_path, fsync=False) as store:
            for spec in specs:
                store.put(spec, spec.build())
            store.put_spec(specs[0], kind="repro")  # no payload any more
        with ScenarioStore(tmp_path, fsync=False) as reopened:
            assert not reopened.knows(specs[0].cache_key())
            assert all(reopened.knows(s.cache_key()) for s in specs[1:])
            reopened.delete(specs[1])
            assert not reopened.knows(specs[1].cache_key())
