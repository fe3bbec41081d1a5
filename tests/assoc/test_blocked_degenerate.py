"""Blocked kernels on corpus-shaped degenerate inputs: parallel ≡ serial for all.

The spec-space fuzzer routinely draws matrices that stress the tiling's edge
cases — empty matrices (an ``isolated_links`` spec at ``n=1``), rows of
zeros (any supernode pattern), sizes smaller than a block.  Each case here
asserts the blocked evaluation is *bit-identical* to the serial kernel, the
same property the kernel-equality oracle enforces on random corpora.
"""

import numpy as np
import pytest

from repro.assoc.blocked import (
    parallel_coalesce,
    parallel_ewise_union,
    parallel_mxm,
    parallel_mxv,
)
from repro.assoc.semiring import LOR_LAND, PLUS_MONOID, PLUS_TIMES
from repro.assoc.sparse import CSRMatrix, _coalesce_core
from repro.runtime.config import RuntimeConfig

SERIAL_BLOCKED = RuntimeConfig(workers=1, backend="serial", block_rows=1)
THREAD_BLOCKED = RuntimeConfig(workers=2, backend="thread", block_rows=1)
CONFIGS = [SERIAL_BLOCKED, THREAD_BLOCKED]


def assert_identical(a: CSRMatrix, b: CSRMatrix) -> None:
    assert a.shape == b.shape
    assert a.dtype == b.dtype
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


def all_zero_row_matrix(n: int = 9) -> CSRMatrix:
    """Traffic only in rows 0 and n-1; everything between is an empty row."""
    dense = np.zeros((n, n), dtype=np.int64)
    dense[0, :] = 3
    dense[n - 1, 0] = 7
    return CSRMatrix.from_dense(dense)


class TestEmptyMatrix:
    @pytest.mark.parametrize("config", CONFIGS, ids=["serial", "thread"])
    def test_mxm_on_empty(self, config):
        e = CSRMatrix.empty((6, 6))
        assert_identical(parallel_mxm(e, e, PLUS_TIMES, config), e._mxm_serial(e, PLUS_TIMES))

    @pytest.mark.parametrize("config", CONFIGS, ids=["serial", "thread"])
    def test_mxv_on_empty(self, config):
        e = CSRMatrix.empty((6, 6))
        x = np.arange(6, dtype=np.int64)
        assert np.array_equal(
            parallel_mxv(e, x, PLUS_TIMES, config), e._mxv_serial(x, PLUS_TIMES)
        )

    @pytest.mark.parametrize("config", CONFIGS, ids=["serial", "thread"])
    def test_union_of_empties(self, config):
        e = CSRMatrix.empty((5, 5))
        assert_identical(
            parallel_ewise_union(e, e, PLUS_MONOID, config),
            e._ewise_union_serial(e, PLUS_MONOID),
        )

    @pytest.mark.parametrize("config", CONFIGS, ids=["serial", "thread"])
    def test_mxm_on_zero_row_matrix(self, config):
        e = CSRMatrix.empty((0, 0))
        assert_identical(parallel_mxm(e, e, PLUS_TIMES, config), e._mxm_serial(e, PLUS_TIMES))

    @pytest.mark.parametrize("config", CONFIGS, ids=["serial", "thread"])
    def test_coalesce_no_triples(self, config):
        empty = np.empty(0, dtype=np.int64)
        s = _coalesce_core(empty, empty, empty, (4, 4), PLUS_MONOID)
        p = parallel_coalesce(empty, empty, empty, (4, 4), PLUS_MONOID, config)
        for a, b in zip(s, p):
            assert np.array_equal(a, b)


class TestSingleRowBlocks:
    """block_rows=1: every row is its own block — the finest legal tiling."""

    def test_mxm_single_row_blocks(self):
        m = all_zero_row_matrix(8)
        assert_identical(
            parallel_mxm(m, m, PLUS_TIMES, SERIAL_BLOCKED),
            m._mxm_serial(m, PLUS_TIMES),
        )

    def test_mxv_single_row_blocks(self):
        m = all_zero_row_matrix(8)
        x = np.arange(8, dtype=np.int64)
        assert np.array_equal(
            parallel_mxv(m, x, PLUS_TIMES, SERIAL_BLOCKED),
            m._mxv_serial(x, PLUS_TIMES),
        )


class TestBlockRowsLargerThanMatrix:
    @pytest.mark.parametrize("backend_workers", [(1, "serial"), (3, "thread")])
    def test_kernels_with_oversized_blocks(self, backend_workers):
        workers, backend = backend_workers
        cfg = RuntimeConfig(workers=workers, backend=backend, block_rows=500)
        m = all_zero_row_matrix(6)
        assert_identical(parallel_mxm(m, m, PLUS_TIMES, cfg), m._mxm_serial(m, PLUS_TIMES))
        assert_identical(
            parallel_ewise_union(m, m.transpose(), PLUS_MONOID, cfg),
            m._ewise_union_serial(m.transpose(), PLUS_MONOID),
        )


class TestAllZeroRows:
    @pytest.mark.parametrize("config", CONFIGS, ids=["serial", "thread"])
    def test_mxm_with_zero_rows(self, config):
        m = all_zero_row_matrix(9)
        assert_identical(parallel_mxm(m, m, PLUS_TIMES, config), m._mxm_serial(m, PLUS_TIMES))

    @pytest.mark.parametrize("config", CONFIGS, ids=["serial", "thread"])
    def test_mxv_with_zero_rows(self, config):
        m = all_zero_row_matrix(9)
        x = np.ones(9, dtype=np.int64)
        assert np.array_equal(
            parallel_mxv(m, x, PLUS_TIMES, config), m._mxv_serial(x, PLUS_TIMES)
        )

    @pytest.mark.parametrize("config", CONFIGS, ids=["serial", "thread"])
    def test_union_with_zero_rows(self, config):
        m = all_zero_row_matrix(9)
        t = m.transpose()
        assert_identical(
            parallel_ewise_union(m, t, PLUS_MONOID, config),
            m._ewise_union_serial(t, PLUS_MONOID),
        )

    @pytest.mark.parametrize("config", CONFIGS, ids=["serial", "thread"])
    def test_coalesce_rows_concentrated_in_one_block(self, config):
        """Duplicated triples that all live in the first row block."""
        rows = np.array([0, 0, 0, 8, 0], dtype=np.int64)
        cols = np.array([1, 1, 2, 0, 1], dtype=np.int64)
        vals = np.array([5, 2, 1, 9, 3], dtype=np.int64)
        s = _coalesce_core(rows, cols, vals, (9, 9), PLUS_MONOID)
        p = parallel_coalesce(rows, cols, vals, (9, 9), PLUS_MONOID, config)
        for a, b in zip(s, p):
            assert np.array_equal(a, b)


class TestEmptyExpansion:
    @pytest.mark.parametrize("config", CONFIGS, ids=["serial", "thread"])
    def test_mxm_dtype_when_no_product_term_exists(self, config):
        """Both operands store entries, yet no A column meets a non-empty B
        row: the result keeps the serial kernel's ``result_type`` dtype
        instead of the multiplicative operator's (bool for ``land``)."""
        a = CSRMatrix.from_triples(
            np.arange(4), np.ones(4, dtype=np.int64), np.arange(1, 5), (4, 4)
        )
        b = CSRMatrix.from_triples(
            np.array([0, 2, 3]), np.array([0, 1, 2]), np.array([5, 6, 7]), (4, 4)
        )
        assert_identical(parallel_mxm(a, b, LOR_LAND, config), a._mxm_serial(b, LOR_LAND))
