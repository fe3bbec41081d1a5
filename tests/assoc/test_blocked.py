"""Blocked kernel table: serial-executor kernel equality and picklability."""

import pickle

import numpy as np
import pytest

from repro import runtime
from repro.assoc import sparse as sparse_mod
from repro.assoc.blocked import KERNELS, _block_task, parallel_mxm, parallel_mxv
from repro.assoc.expr import lazy
from repro.assoc.semiring import LOR_LAND, MIN_PLUS, PLUS_TIMES
from repro.assoc.sparse import CSRMatrix
from repro.errors import SparseFormatError
from repro.runtime.config import RuntimeConfig


def random_csr(n_rows: int, n_cols: int, density: float, seed: int) -> CSRMatrix:
    rng = np.random.default_rng(seed)
    dense = np.zeros((n_rows, n_cols), dtype=np.int64)
    nnz = max(1, int(n_rows * n_cols * density))
    dense[rng.integers(0, n_rows, nnz), rng.integers(0, n_cols, nnz)] = rng.integers(1, 9, nnz)
    return CSRMatrix.from_dense(dense)


def blocks_of(block_rows: int) -> RuntimeConfig:
    return RuntimeConfig(workers=1, backend="serial", block_rows=block_rows)


class TestBlockedKernels:
    @pytest.mark.parametrize("semiring", [PLUS_TIMES, MIN_PLUS, LOR_LAND])
    @pytest.mark.parametrize("block_rows", [1, 4, 13, 64])
    def test_mxm_matches_serial(self, semiring, block_rows):
        a = random_csr(30, 24, 0.15, seed=8)
        b = random_csr(24, 19, 0.15, seed=9)
        serial = a.mxm(b, semiring)
        blocked = parallel_mxm(a, b, semiring, blocks_of(block_rows))
        assert blocked == serial
        assert blocked.dtype == serial.dtype

    def test_mxm_empty_operand(self):
        a = random_csr(6, 6, 0.4, seed=10)
        empty = CSRMatrix.empty((6, 6))
        blocked = parallel_mxm(a, empty, PLUS_TIMES, blocks_of(2))
        assert blocked == a.mxm(empty)

    @pytest.mark.parametrize("block_rows", [1, 5, 50])
    def test_mxv_matches_serial(self, block_rows):
        a = random_csr(25, 25, 0.2, seed=13)
        x = np.random.default_rng(14).random(25)
        serial = a.mxv(x, MIN_PLUS)
        blocked = parallel_mxv(a, x, MIN_PLUS, blocks_of(block_rows))
        assert np.array_equal(serial, blocked)


class TestPlannerGateChecksShapes:
    """Shapes are checked once, at the planner gate, before a call goes blocked."""

    def test_mxm_inner_dimension_mismatch(self):
        a = random_csr(6, 6, 0.4, seed=11)
        with runtime.configured(workers=2, backend="thread", min_parallel_work=1):
            with pytest.raises(SparseFormatError):
                a.mxm(random_csr(5, 5, 0.4, seed=12))

    def test_mxv_length_mismatch(self):
        a = random_csr(6, 6, 0.4, seed=15)
        with runtime.configured(workers=2, backend="thread", min_parallel_work=1):
            with pytest.raises(SparseFormatError):
                a.mxv(np.zeros(5))


class TestPlannerGateCountsExpansionOnce:
    """A gated blocked product reuses the gate's expansion count for its dtype."""

    @pytest.fixture
    def dtype_totals(self, monkeypatch):
        seen = []
        true_rule = sparse_mod._mxm_out_dtype

        def spy(a, b, mult, total=None):
            seen.append((a.shape[0], total))
            return true_rule(a, b, mult, total)

        monkeypatch.setattr(sparse_mod, "_mxm_out_dtype", spy)
        return seen

    @pytest.mark.parametrize("masked", [False, True])
    def test_blocked_route_counts_once(self, dtype_totals, masked):
        a = random_csr(40, 30, 0.15, seed=21)
        b = random_csr(30, 40, 0.15, seed=22)
        mask = random_csr(40, 40, 0.3, seed=23) if masked else None
        expansion = int(b.row_nnz()[a.indices].sum())

        def product():
            expr = lazy(a).mxm(b)
            return expr.new(mask=mask) if masked else expr.new()

        serial = product()
        with runtime.configured(workers=2, backend="thread", min_parallel_work=1):
            blocked = product()
        assert blocked == serial and blocked.dtype == serial.dtype
        # the dtype rule ran on the gate's count, once for the whole product,
        # and no row block counted its expansion for it again
        assert dtype_totals == [(a.shape[0], expansion)]

    def test_direct_call_still_counts_for_itself(self, dtype_totals):
        a = random_csr(12, 12, 0.3, seed=24)
        assert parallel_mxm(a, a, PLUS_TIMES, blocks_of(3)) == a.mxm(a)
        assert dtype_totals == [(12, None)]


class TestKernelTable:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_row_survives_pickle(self, name):
        """The process backend ships every row (and its functions) by name."""
        assert pickle.loads(pickle.dumps(KERNELS[name])) == KERNELS[name]

    def test_task_function_survives_pickle(self):
        assert pickle.loads(pickle.dumps(_block_task)) is _block_task
