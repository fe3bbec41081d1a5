"""Plan.execute() profiling: step alignment, measured costs, explain rendering."""

import numpy as np
import pytest

from repro import runtime
from repro.assoc import expr as E
from repro.assoc import planner
from repro.assoc.planner import evaluate
from repro.assoc.semiring import PLUS_MONOID
from repro.assoc.sparse import CSRMatrix
from repro.errors import ExpressionError
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace


def _random_csr(n_rows, n_cols, density, seed):
    rng = np.random.default_rng(seed)
    dense = np.zeros((n_rows, n_cols), dtype=np.int64)
    nnz = max(1, int(n_rows * n_cols * density))
    dense[rng.integers(0, n_rows, nnz), rng.integers(0, n_cols, nnz)] = rng.integers(1, 9, nnz)
    return CSRMatrix.from_dense(dense)


@pytest.fixture
def a():
    return _random_csr(20, 20, 0.15, seed=1)


@pytest.fixture
def b():
    return _random_csr(20, 20, 0.15, seed=2)


@pytest.fixture
def mask():
    rng = np.random.default_rng(3)
    return CSRMatrix.from_dense(rng.random((20, 20)) < 0.2)


def _assert_profiled(plan):
    """The invariant: profile aligns 1:1 with steps, costs are sane."""
    assert plan.profile is not None
    assert len(plan.profile) == len(plan.steps)
    for step, prof in zip(plan.steps, plan.profile):
        assert step.kernel == prof.kernel
        assert prof.wall_ns >= 0
        assert prof.nnz is None or prof.nnz >= 0
        assert prof.wall_ms == prof.wall_ns / 1e6


class TestStepAlignment:
    """Every plan shape executes with a profile aligned to its steps,
    bit-identical to the plain evaluate() walk."""

    def _check_mat(self, expr, mask=None, complement=False):
        plan = expr.plan(mask=mask, complement=complement)
        result = plan.execute()
        _assert_profiled(plan)
        assert result == expr.new(mask=mask, complement=complement)
        return plan

    def test_mxm(self, a, b):
        plan = self._check_mat(E.lazy(a).mxm(b))
        assert plan.kernels == ("leaf", "leaf", "mxm")

    def test_masked_mxm(self, a, b, mask):
        plan = self._check_mat(E.lazy(a).mxm(b), mask=mask)
        assert plan.kernels[-1] == "masked_mxm"

    def test_complement_mxm_profiles_the_filter_step(self, a, b, mask):
        plan = self._check_mat(E.lazy(a).mxm(b), mask=mask, complement=True)
        assert plan.kernels == ("leaf", "leaf", "mxm", "mask_filter")

    def test_union_chain_collapse(self, a, b):
        self._check_mat(E.union_all([a, b, a]))

    def test_pairwise_union(self, a, b):
        plan = self._check_mat(E.lazy(a) + b)
        assert plan.kernels[-1] == "ewise_union"

    def test_masked_union(self, a, b, mask):
        self._check_mat(E.union_all([a, b, a]), mask=mask)

    def test_ewise_intersect(self, a, b):
        plan = self._check_mat(E.lazy(a) * b)
        assert plan.kernels[-1] == "ewise_intersect"

    def test_masked_intersect(self, a, b, mask):
        self._check_mat(E.lazy(a) * b, mask=mask)

    def test_transpose_above_compound(self, a, b):
        plan = self._check_mat(E.lazy(a).mxm(b).transpose())
        assert "transpose" in plan.kernels

    def test_single_part_union_all_direct_node(self, a):
        # the builder collapses 1-item unions; only direct construction
        # exercises the pass-through and masked_select single-part paths
        u = E.UnionAll(parts=(E.as_expr(a),), add=PLUS_MONOID)
        plan = self._check_mat(u)
        assert plan.kernels == ("leaf", "union_all")

    def test_single_part_union_all_masked(self, a, mask):
        u = E.UnionAll(parts=(E.as_expr(a),), add=PLUS_MONOID)
        plan = self._check_mat(u, mask=mask)
        assert plan.kernels == ("leaf", "masked_union")

    def test_mxv(self, a):
        x = np.arange(20, dtype=np.float64)
        expr = E.lazy(a).mxv(x)
        plan = expr.plan()
        result = plan.execute()
        _assert_profiled(plan)
        assert plan.kernels == ("leaf", "mxv")
        assert np.array_equal(result, expr.new())
        # ndarray results report nnz as the nonzero count
        assert plan.profile[-1].nnz == int(np.count_nonzero(result))

    def test_masked_mxv(self, a):
        x = np.arange(20, dtype=np.float64)
        allow = np.zeros(20, dtype=bool)
        allow[::2] = True
        expr = E.lazy(a).mxv(x)
        plan = expr.plan(mask=allow)
        result = plan.execute()
        _assert_profiled(plan)
        assert plan.kernels == ("leaf", "masked_mxv")
        assert np.array_equal(result, expr.new(mask=allow))

    def test_reduce_rows(self, a):
        expr = E.lazy(a).reduce_rows()
        plan = expr.plan()
        result = plan.execute()
        _assert_profiled(plan)
        assert plan.kernels == ("leaf", "reduce_rows")
        assert np.array_equal(result, expr.new())


class TestProfileSemantics:
    def test_execute_matches_plain_evaluate_bit_identically(self, a, b, mask):
        expr = E.lazy(a).mxm(b).ewise(a)
        plan = expr.plan(mask=mask)
        assert plan.execute() == evaluate(plan.expr, mask=plan.mask)

    def test_execute_increments_planner_counter(self, a, b):
        before = obs_metrics.counter("planner.executions").value
        E.lazy(a).mxm(b).plan().execute()
        assert obs_metrics.counter("planner.executions").value == before + 1

    def test_profile_records_result_nnz(self, a, b):
        plan = E.lazy(a).mxm(b).plan()
        result = plan.execute()
        assert plan.profile[-1].nnz == result.nnz
        leaf_nnzs = [p.nnz for p in plan.profile[:2]]
        assert leaf_nnzs == [a.nnz, b.nnz]

    def test_reexecute_replaces_the_profile(self, a, b):
        plan = E.lazy(a).mxm(b).plan()
        plan.execute()
        first = plan.profile
        plan.execute()
        assert plan.profile is not first
        assert len(plan.profile) == len(first)

    def test_evaluate_alone_records_nothing(self, a, b):
        plan = E.lazy(a).mxm(b).plan()
        evaluate(plan.expr)
        assert plan.profile is None

    def test_plain_evaluate_builds_no_step_and_reads_no_clock(self, a, b, mask, monkeypatch):
        """Without a walk, ``_step`` is a bare call: on the serial runtime no
        Step or StepProfile is built and the clock is never read."""

        def boom(*args, **kwargs):
            raise AssertionError("the plain evaluate path touched the profiler")

        monkeypatch.setattr(obs_metrics, "monotonic_ns", boom)
        monkeypatch.setattr(planner, "Step", boom)
        monkeypatch.setattr(planner, "StepProfile", boom)
        x = np.arange(20, dtype=np.int64)
        allow = np.arange(20) % 2 == 0
        for m, complement in ((None, False), (mask, False), (mask, True)):
            evaluate((E.lazy(a) @ b + a).T * b, E.as_mask(m, complement))
            evaluate(E.union_all([a, b, a]), E.as_mask(m, complement))
        planner.evaluate_vec(E.lazy(a).mxm(b).mxv(x))
        planner.evaluate_vec(E.lazy(a).reduce_rows(), allow)
        planner.evaluate_vec(E.lazy(a).mxv(x), allow)

    def test_traced_execute_opens_plan_spans(self, a, b):
        runtime.configure(tracing=True)
        E.lazy(a).mxm(b).plan().execute()
        names = [r.name for r in obs_trace.get_tracer().spans()]
        assert "plan.mxm" in names and names.count("plan.leaf") == 2


class TestExplainProfile:
    def test_explain_before_execute_raises(self, a, b):
        plan = E.lazy(a).mxm(b).plan()
        with pytest.raises(ExpressionError, match="no recorded profile"):
            plan.explain(profile=True)

    def test_explain_renders_wall_time_and_nnz(self, a, b, mask):
        plan = E.lazy(a).mxm(b).plan(mask=mask)
        result = plan.execute()
        text = plan.explain(profile=True)
        lines = text.splitlines()
        assert lines[0].startswith("plan: ")
        assert "profile:" in lines
        assert any("masked_mxm" in ln and "ms" in ln for ln in lines)
        assert f"nnz={result.nnz}" in text
        assert any("total" in ln for ln in lines)

    def test_plain_explain_is_unchanged_by_profiling(self, a, b):
        plan = E.lazy(a).mxm(b).plan()
        before = plan.explain()
        plan.execute()
        assert plan.explain() == before
