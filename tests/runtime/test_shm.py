"""Shared-memory operand plane: refs, leases, lifecycle, and kernel identity.

The lifecycle tests assert the ISSUE 8 contract directly: every segment the
plane creates is unlinked after normal completion, after a raising task,
after a worker crash, and after pool teardown — observed through the
``/dev/shm`` directory (the segments carry a recognisable ``repro-shm-``
prefix) with a reattach-failure fallback for hosts without it.
"""

import os
import pathlib

import numpy as np
import pytest

from repro import runtime
from repro.assoc import blocked
from repro.assoc import sparse as _sparse
from repro.assoc.semiring import LOR_LAND, MIN_PLUS, PLUS_MONOID, PLUS_TIMES
from repro.assoc.sparse import CSRMatrix
from repro.errors import SharedMemoryError, WorkerCrashError
from repro.runtime import shm
from repro.runtime.executor import PoolExecutor

_DEV_SHM = pathlib.Path("/dev/shm")


@pytest.fixture(autouse=True)
def _pristine_runtime():
    runtime.reset()
    yield
    runtime.reset()
    runtime.shutdown_executors()
    shm.detach_all()


def _segment_files() -> "set[str] | None":
    """Names under /dev/shm with our prefix, or None when unobservable."""
    if not _DEV_SHM.is_dir():
        return None
    return {p.name for p in _DEV_SHM.glob(f"{shm.SEGMENT_PREFIX}-*")}


def _assert_unlinked(names: "list[str]") -> None:
    """Every segment in *names* is gone: /dev/shm check plus reattach failure."""
    files = _segment_files()
    if files is not None:
        leaked = files.intersection(names)
        assert not leaked, f"segments left in /dev/shm: {sorted(leaked)}"
    from multiprocessing import shared_memory

    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name, create=False)


def _rand_csr(rng, n, m, nnz):
    rows = rng.integers(0, n, nnz)
    cols = rng.integers(0, m, nnz)
    vals = rng.standard_normal(nnz)
    return CSRMatrix.from_triples(rows, cols, vals, (n, m))


def _eq_csr(u: CSRMatrix, v: CSRMatrix) -> bool:
    return (
        u.shape == v.shape
        and u.data.dtype == v.data.dtype
        and np.array_equal(u.indptr, v.indptr)
        and np.array_equal(u.indices, v.indices)
        and np.array_equal(u.data, v.data)
    )


def _killer_mult(x, y):  # pragma: no cover - runs (briefly) in a pool worker
    os._exit(17)


class TestRefsAndLease:
    def test_export_attach_array_roundtrip(self):
        arr = np.arange(12, dtype=np.float32).reshape(3, 4)
        with shm.OperandLease() as lease:
            ref = lease.export_array(arr)
            assert ref.shape == (3, 4) and ref.nbytes == arr.nbytes
            view = shm.attach_array(ref)
            assert np.array_equal(view, arr)
            assert view.dtype == arr.dtype
            assert not view.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                view[0, 0] = 99.0
        shm.detach_all()

    def test_export_attach_csr_roundtrip(self):
        rng = np.random.default_rng(7)
        a = _rand_csr(rng, 40, 30, 200)
        with shm.OperandLease() as lease:
            ref = lease.export_csr(a)
            back = shm.attach_csr(ref)
            assert _eq_csr(a, back)
            assert ref.nbytes == shm.csr_nbytes(a)
        shm.detach_all()

    def test_empty_array_exports(self):
        with shm.OperandLease() as lease:
            ref = lease.export_array(np.empty(0, dtype=np.int64))
            assert shm.attach_array(ref).size == 0
        shm.detach_all()

    def test_release_is_idempotent_and_final(self):
        lease = shm.OperandLease()
        ref = lease.export_array(np.ones(8))
        assert not lease.released
        lease.release()
        lease.release()  # second call is a no-op
        assert lease.released
        with pytest.raises(SharedMemoryError):
            lease.export_array(np.ones(8))
        _assert_unlinked([ref.name])

    def test_attach_after_release_names_the_segment(self):
        lease = shm.OperandLease()
        ref = lease.export_array(np.ones(4))
        lease.release()
        with pytest.raises(SharedMemoryError, match=ref.name):
            shm.attach_array(ref)

    def test_live_segment_names_and_release_all(self):
        lease = shm.OperandLease()
        ref = lease.export_array(np.ones(16))
        assert ref.name in shm.live_segment_names()
        freed = shm.release_all()
        assert freed >= 1
        assert shm.live_segment_names() == []
        _assert_unlinked([ref.name])

    def test_lease_releases_on_exception(self):
        names = []
        with pytest.raises(RuntimeError):
            with shm.OperandLease() as lease:
                names.append(lease.export_array(np.ones(32)).name)
                raise RuntimeError("mid-export failure")
        assert shm.live_segment_names() == []
        _assert_unlinked(names)

    def test_attachments_are_cached_per_process(self):
        with shm.OperandLease() as lease:
            ref = lease.export_array(np.arange(6))
            seg1 = shm._attach_segment(ref.name)
            seg2 = shm._attach_segment(ref.name)
            assert seg1 is seg2
        assert shm.detach_all() >= 1


class TestKernelLifecycle:
    """Segments never outlive the kernel call that exported them."""

    def _shm_cfg(self):
        return runtime.configure(
            workers=2, backend="process", min_parallel_work=1, shm_min_bytes=0, block_rows=32
        )

    def test_unlinked_after_normal_completion(self):
        cfg = self._shm_cfg()
        rng = np.random.default_rng(11)
        a = _rand_csr(rng, 100, 100, 1500)
        b = _rand_csr(rng, 100, 100, 1500)
        before = _segment_files()
        expected = a._mxm_serial(b, PLUS_TIMES)
        got = blocked.parallel_mxm(a, b, PLUS_TIMES, cfg)
        assert _eq_csr(expected, got)
        assert shm.live_segment_names() == []
        after = _segment_files()
        if before is not None:
            assert after == before, "kernel left segments behind in /dev/shm"

    def test_unlinked_after_raising_task(self, monkeypatch):
        cfg = self._shm_cfg()
        rng = np.random.default_rng(12)
        a = _rand_csr(rng, 100, 100, 1500)
        b = _rand_csr(rng, 100, 100, 1500)

        def boom(self, fn, items, on_progress=None, label=""):
            raise RuntimeError("task exploded before completion")

        monkeypatch.setattr(PoolExecutor, "map", boom)
        before = _segment_files()
        with pytest.raises(RuntimeError, match="exploded"):
            blocked.parallel_mxm(a, b, PLUS_TIMES, cfg)
        assert shm.live_segment_names() == []
        after = _segment_files()
        if before is not None:
            assert after == before

    def test_unlinked_after_worker_crash(self):
        cfg = self._shm_cfg()
        rng = np.random.default_rng(13)
        a = _rand_csr(rng, 100, 100, 1500)
        b = _rand_csr(rng, 100, 100, 1500)
        before = _segment_files()
        with pytest.raises(WorkerCrashError, match="parallel_ewise_intersect"):
            blocked.parallel_ewise_intersect(a, b, _killer_mult, cfg)
        assert shm.live_segment_names() == []
        after = _segment_files()
        if before is not None:
            assert after == before
        # the evicted pool was rebuilt: the same dispatch now succeeds
        expected = a._ewise_intersect_serial(b, np.multiply)
        assert _eq_csr(expected, blocked.parallel_ewise_intersect(a, b, np.multiply, cfg))

    def test_unlinked_after_pool_teardown(self):
        self._shm_cfg()
        lease = shm.OperandLease()  # abandoned on purpose (no with-block)
        ref = lease.export_array(np.ones(1024))
        assert shm.live_segment_names() == [ref.name]
        runtime.shutdown_executors()
        assert shm.live_segment_names() == []
        _assert_unlinked([ref.name])


class TestDispatchGating:
    def test_small_operands_keep_pickle_path(self, monkeypatch):
        exports = []
        real = shm.OperandLease.export_array

        def spy(self, arr):
            exports.append(int(arr.nbytes))
            return real(self, arr)

        monkeypatch.setattr(shm.OperandLease, "export_array", spy)
        rng = np.random.default_rng(21)
        a = _rand_csr(rng, 100, 100, 1500)
        b = _rand_csr(rng, 100, 100, 1500)
        expected = a._mxm_serial(b, PLUS_TIMES)
        with runtime.configured(
            workers=2, backend="process", min_parallel_work=1, shm_min_bytes=1 << 40
        ) as cfg:
            below = blocked.parallel_mxm(a, b, PLUS_TIMES, cfg)
        assert exports == [], "operands below the threshold must not be exported"
        with runtime.configured(
            workers=2, backend="process", min_parallel_work=1, shm_min_bytes=0
        ) as cfg:
            above = blocked.parallel_mxm(a, b, PLUS_TIMES, cfg)
        assert exports, "operands above the threshold must go through segments"
        assert _eq_csr(expected, below)
        assert _eq_csr(expected, above)

    def test_thread_backend_never_uses_shm(self, monkeypatch):
        exports = []
        monkeypatch.setattr(
            shm.OperandLease,
            "export_array",
            lambda self, arr: exports.append(1),
        )
        rng = np.random.default_rng(22)
        a = _rand_csr(rng, 100, 100, 1500)
        b = _rand_csr(rng, 100, 100, 1500)
        with runtime.configured(
            workers=2, backend="thread", min_parallel_work=1, shm_min_bytes=0
        ) as cfg:
            blocked.parallel_mxm(a, b, PLUS_TIMES, cfg)
        assert exports == []


class TestKernelIdentity:
    """Every kernel is bit-identical over the shared-memory path."""

    @pytest.fixture()
    def shm_cfg(self):
        return runtime.configure(
            workers=2, backend="process", min_parallel_work=1, shm_min_bytes=0, block_rows=48
        )

    @pytest.fixture()
    def operands(self):
        rng = np.random.default_rng(33)
        return {
            "a": _rand_csr(rng, 150, 150, 2500),
            "b": _rand_csr(rng, 150, 150, 2500),
            "mask": _rand_csr(rng, 150, 150, 900),
            "x": rng.standard_normal(150),
            "allow": rng.integers(0, 2, 150).astype(bool),
        }

    def test_mxm_and_mxv(self, shm_cfg, operands):
        a, b, x = operands["a"], operands["b"], operands["x"]
        for semiring in (PLUS_TIMES, MIN_PLUS):
            assert _eq_csr(
                a._mxm_serial(b, semiring), blocked.parallel_mxm(a, b, semiring, shm_cfg)
            )
            serial_v = a._mxv_serial(x, semiring)
            shm_v = blocked.parallel_mxv(a, x, semiring, shm_cfg)
            assert np.array_equal(serial_v, shm_v) and serial_v.dtype == shm_v.dtype

    def test_mxm_dtype_with_empty_expansion(self):
        """No A column meets a non-empty B row: the serial dtype, not ``land``'s bool."""
        a = CSRMatrix.from_triples(
            np.arange(4), np.ones(4, dtype=np.int64), np.arange(1, 5), (4, 4)
        )
        b = CSRMatrix.from_triples(
            np.array([0, 2, 3]), np.array([0, 1, 2]), np.array([5, 6, 7]), (4, 4)
        )
        cfg = runtime.configure(
            workers=2, backend="process", min_parallel_work=1, shm_min_bytes=0, block_rows=1
        )
        assert _eq_csr(a._mxm_serial(b, LOR_LAND), blocked.parallel_mxm(a, b, LOR_LAND, cfg))

    def test_ewise_and_union_all(self, shm_cfg, operands):
        a, b, mask = operands["a"], operands["b"], operands["mask"]
        assert _eq_csr(
            a._ewise_union_serial(b, PLUS_MONOID),
            blocked.parallel_ewise_union(a, b, PLUS_MONOID, shm_cfg),
        )
        assert _eq_csr(
            a._ewise_intersect_serial(b, np.multiply),
            blocked.parallel_ewise_intersect(a, b, np.multiply, shm_cfg),
        )
        assert _eq_csr(
            _sparse._union_all_serial([a, b, mask], PLUS_MONOID, mask, True),
            blocked.parallel_union_all([a, b, mask], PLUS_MONOID, mask, True, shm_cfg),
        )

    def test_masked_kernels(self, shm_cfg, operands):
        a, b, mask = operands["a"], operands["b"], operands["mask"]
        x, allow = operands["x"], operands["allow"]
        out_dtype = _sparse._mxm_out_dtype(a, b, PLUS_TIMES.mult)
        assert _eq_csr(
            _sparse._masked_mxm_serial(a, b, PLUS_TIMES, mask, out_dtype),
            blocked.parallel_masked_mxm(a, b, PLUS_TIMES, mask, shm_cfg),
        )
        serial_v = _sparse._masked_mxv_serial(a, x, PLUS_TIMES, allow)
        shm_v = blocked.parallel_masked_mxv(a, x, PLUS_TIMES, allow, shm_cfg)
        assert np.array_equal(serial_v, shm_v) and serial_v.dtype == shm_v.dtype
        assert _eq_csr(
            _sparse._masked_intersect_serial(a, b, np.multiply, mask, False),
            blocked.parallel_masked_intersect(a, b, np.multiply, mask, False, shm_cfg),
        )

    def test_coalesce(self, shm_cfg):
        rng = np.random.default_rng(34)
        rows = rng.integers(0, 150, 6000)
        cols = rng.integers(0, 150, 6000)
        vals = rng.standard_normal(6000)
        serial = _sparse._coalesce_core(rows, cols, vals, (150, 150), PLUS_MONOID)
        parallel = blocked.parallel_coalesce(rows, cols, vals, (150, 150), PLUS_MONOID, shm_cfg)
        for s_arr, p_arr in zip(serial, parallel):
            assert np.array_equal(s_arr, p_arr) and s_arr.dtype == p_arr.dtype

    def test_no_segments_leak_across_the_battery(self, shm_cfg, operands):
        a, b = operands["a"], operands["b"]
        for _ in range(3):
            blocked.parallel_mxm(a, b, PLUS_TIMES, shm_cfg)
            blocked.parallel_ewise_union(a, b, PLUS_MONOID, shm_cfg)
        assert shm.live_segment_names() == []
        files = _segment_files()
        if files is not None:
            mine = {n for n in files if f"-{os.getpid()}-" in n}
            assert mine == set(), f"leaked: {sorted(mine)}"
