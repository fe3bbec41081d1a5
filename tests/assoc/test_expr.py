"""The lazy expression layer: deferred surface, planner fusion, assignment."""

import numpy as np
import pytest

from repro.assoc.expr import (
    EWiseMult,
    Mask,
    Mat,
    MatExpr,
    MatLeaf,
    MxM,
    MxV,
    ReduceRows,
    TransposeExpr,
    UnionAll,
    Vec,
    VecExpr,
    apply_assign,
    as_expr,
    as_mask,
    lazy,
    union_all,
)
from repro.assoc.semiring import (
    MIN_PLUS,
    PAIR,
    PLUS,
    PLUS_MONOID,
    PLUS_TIMES,
)
from repro.assoc.planner import Step
from repro.assoc.sparse import CSRMatrix, masked_select
from repro.errors import ExpressionError, SparseFormatError


def random_csr(n_rows: int, n_cols: int, density: float, seed: int) -> CSRMatrix:
    rng = np.random.default_rng(seed)
    dense = np.zeros((n_rows, n_cols), dtype=np.int64)
    nnz = max(1, int(n_rows * n_cols * density))
    dense[rng.integers(0, n_rows, nnz), rng.integers(0, n_cols, nnz)] = rng.integers(1, 9, nnz)
    return CSRMatrix.from_dense(dense)


def random_mask(n_rows: int, n_cols: int, density: float, seed: int) -> CSRMatrix:
    rng = np.random.default_rng(seed)
    return CSRMatrix.from_dense(rng.random((n_rows, n_cols)) < density)


@pytest.fixture
def a():
    return random_csr(20, 20, 0.15, seed=1)


@pytest.fixture
def b():
    return random_csr(20, 20, 0.15, seed=2)


@pytest.fixture
def mask():
    return random_mask(20, 20, 0.2, seed=3)


class TestLazySurface:
    def test_operations_return_expressions_not_results(self, a, b):
        expr = lazy(a).mxm(b)
        assert isinstance(expr, MatExpr)
        assert not isinstance(expr, CSRMatrix)
        assert expr.shape == (20, 20)

    def test_new_evaluates_like_eager(self, a, b):
        assert lazy(a).mxm(b).new() == a.mxm(b)
        assert lazy(a).ewise(b, PLUS_MONOID).new() == a.ewise_union(b)
        assert (
            lazy(a).ewise(b, PLUS_TIMES.mult, how="intersect").new()
            == a.ewise_intersect(b, PLUS_TIMES.mult)
        )

    def test_expressions_compose(self, a, b):
        expr = lazy(a).mxm(b).ewise(a, PLUS_MONOID)
        assert expr.new() == a.mxm(b).ewise_union(a)

    def test_semiring_threading(self, a, b):
        af = CSRMatrix(a.shape, a.indptr, a.indices, a.data.astype(float), _trusted=True)
        bf = CSRMatrix(b.shape, b.indptr, b.indices, b.data.astype(float), _trusted=True)
        assert lazy(af).mxm(bf, MIN_PLUS).new() == af.mxm(bf, MIN_PLUS)

    def test_mxv_and_reduce(self, a):
        x = np.arange(20, dtype=np.int64)
        assert isinstance(lazy(a).mxv(x), VecExpr)
        assert np.array_equal(lazy(a).mxv(x).new(), a.mxv(x))
        assert np.array_equal(lazy(a).reduce_rows().new(), a.reduce_rows())
        assert np.array_equal(lazy(a).reduce_cols().new(), a.reduce_cols())

    def test_shape_validation_matches_eager(self, a):
        with pytest.raises(SparseFormatError):
            lazy(a).mxm(CSRMatrix.empty((7, 7)))
        with pytest.raises(SparseFormatError):
            lazy(a).ewise(CSRMatrix.empty((7, 7)))

    def test_as_expr_rejects_junk(self):
        with pytest.raises(ExpressionError):
            as_expr("not a matrix")

    def test_dunders_build_expressions(self, a, b):
        assert (lazy(a) @ b).new() == a.mxm(b)
        assert (lazy(a) + b).new() == a.ewise_union(b)
        assert (lazy(a) * b).new() == a.ewise_intersect(b, PLUS_TIMES.mult)


class TestTransposeFolding:
    def test_leaf_transpose_folds_to_descriptor(self, a):
        expr = lazy(a).T
        assert isinstance(expr, MatLeaf)
        assert expr.transposed
        assert expr.new() == a.transpose()

    def test_double_transpose_cancels(self, a):
        expr = lazy(a).T.T
        assert isinstance(expr, MatLeaf)
        assert not expr.transposed

    def test_transpose_is_cached_on_the_operand(self, a):
        assert a.transpose() is a.transpose()
        assert a.T.T == a  # equal, not identical: the memo is one-way (no cycle)

    def test_vxm_uses_cached_transpose(self, a):
        x = np.arange(20, dtype=np.int64)
        y1 = a.vxm(x)
        assert a._t_cache is not None
        assert np.array_equal(y1, a.transpose().mxv(x))

    def test_transpose_of_compound_pushes_mask(self, a, b, mask):
        expr = lazy(a).mxm(b).T
        ref = masked_select(a.mxm(b).transpose(), mask)
        assert expr.new(mask=mask) == ref
        plan = expr.plan(mask=mask)
        assert not plan.materializes_unmasked
        assert "masked_mxm" in plan.kernels


class TestUnionChainFusion:
    def test_chain_collapses_to_union_all(self, a, b):
        expr = lazy(a) + b + a + b
        assert isinstance(expr, UnionAll)
        assert len(expr.parts) == 4

    def test_fused_union_matches_pairwise_left_fold(self, a, b):
        c = random_csr(20, 20, 0.1, seed=9)
        fused = (lazy(a) + b + c).new()
        assert fused == a.ewise_union(b).ewise_union(c)

    def test_fused_union_float_bit_identity(self):
        parts = []
        for seed in (4, 5, 6):
            m = random_csr(12, 12, 0.3, seed=seed)
            parts.append(
                CSRMatrix(m.shape, m.indptr, m.indices, m.data * 0.1, _trusted=True)
            )
        fused = union_all(parts).new()
        ref = parts[0].ewise_union(parts[1]).ewise_union(parts[2])
        assert fused == ref  # includes float rounding: same reduce order

    def test_union_all_single_item_passthrough(self, a):
        assert union_all([a]).new() == a

    def test_union_all_empty_rejected(self):
        with pytest.raises(ExpressionError):
            union_all([])

    def test_different_monoids_do_not_fuse(self, a, b):
        from repro.assoc.semiring import MAX_MONOID

        expr = lazy(a).ewise(b, PLUS_MONOID).ewise(a, MAX_MONOID)
        assert isinstance(expr, UnionAll)
        assert len(expr.parts) == 2  # outer pair, not a 3-way chain


class TestPlanIntrospection:
    def test_masked_mxm_plan_is_fused(self, a, b, mask):
        plan = lazy(a).mxm(b).plan(mask=mask)
        assert "masked_mxm" in plan.kernels
        assert plan.uses_fused_mask
        assert not plan.materializes_unmasked

    def test_complement_mxm_plan_materializes(self, a, b, mask):
        plan = lazy(a).mxm(b).plan(mask=mask, complement=True)
        assert plan.materializes_unmasked
        assert "mxm" in plan.kernels

    def test_unmasked_plans_name_eager_kernels(self, a, b):
        assert lazy(a).mxm(b).plan().kernels[-1] == "mxm"
        assert (lazy(a) + b).plan().kernels[-1] == "ewise_union"
        assert (lazy(a) + b + a).plan().kernels[-1] == "union_all"

    def test_describe_is_readable(self, a, b, mask):
        text = lazy(a).mxm(b).plan(mask=mask).describe()
        assert "masked_mxm" in text and "fused" in text

    def test_vector_plans(self, a):
        x = np.arange(20, dtype=np.int64)
        allow = np.zeros(20, dtype=bool)
        assert lazy(a).mxv(x).plan().kernels[-1] == "mxv"
        assert lazy(a).mxv(x).plan(mask=allow).kernels[-1] == "masked_mxv"
        assert lazy(a).reduce_rows().plan(mask=allow).kernels[-1] == "masked_reduce_rows"


# --------------------------------------------------------------------------- #
# the full plan of every node kind under every valid mask kind
# --------------------------------------------------------------------------- #

_T_LEAF = "transposed (cached descriptor)"
_NEVER_EXPANDED = "masked rows never expanded"
_FULL_THEN_FILTER = "complement mask: full product then filter"
_PUSHED_LEFT = "mask pushed to left operand"
_PUSHED_T = "mask pushed through transpose"
_ROWS_SKIPPED = "masked rows skipped"


def _plan_tree(kind: str, a: CSRMatrix, b: CSRMatrix, c: CSRMatrix) -> MatExpr | VecExpr:
    """Raw nodes, so shapes the builders would fold away (a 1-way union) stay."""
    x = np.arange(20, dtype=np.int64)
    ab = MxM(MatLeaf(a), MatLeaf(b), PLUS_TIMES)
    return {
        "leaf": MatLeaf(a),
        "leaf_T": MatLeaf(a, transposed=True),
        "mxm": ab,
        "union2": UnionAll((MatLeaf(a), MatLeaf(b)), PLUS_MONOID),
        "union3": UnionAll((MatLeaf(a), MatLeaf(b), MatLeaf(c)), PLUS_MONOID),
        "union1_raw": UnionAll((MatLeaf(a),), PLUS_MONOID),
        "union_compound": UnionAll((ab, MatLeaf(c)), PLUS_MONOID),
        "ewise_mult": EWiseMult(MatLeaf(a), MatLeaf(b), PLUS_TIMES.mult),
        "ewise_mult_compound": EWiseMult(ab, MatLeaf(c), PLUS_TIMES.mult),
        "transpose_expr": TransposeExpr(ab),
        "mxv": MxV(MatLeaf(a), x, PLUS_TIMES),
        "mxv_compound": MxV(ab, x, PLUS_TIMES),
        "reduce_rows": ReduceRows(MatLeaf(a), PLUS_MONOID),
    }[kind]


# (tree, mask kind, describe(), steps as Step(kernel, fused_mask, note) args)
_PLAN_TABLE = [
    ("leaf", "none", "leaf",
     [("leaf",)]),
    ("leaf", "mask", "leaf -> masked_select[fused mask]",
     [("leaf",), ("masked_select", True)]),
    ("leaf", "complement", "leaf -> masked_select[fused mask]",
     [("leaf",), ("masked_select", True)]),
    ("leaf_T", "none", "leaf",
     [("leaf", False, _T_LEAF)]),
    ("leaf_T", "mask", "leaf -> masked_select[fused mask]",
     [("leaf", False, _T_LEAF), ("masked_select", True)]),
    ("leaf_T", "complement", "leaf -> masked_select[fused mask]",
     [("leaf", False, _T_LEAF), ("masked_select", True)]),
    ("mxm", "none", "leaf -> leaf -> mxm",
     [("leaf",), ("leaf",), ("mxm",)]),
    ("mxm", "mask", "leaf -> leaf -> masked_mxm[fused mask]",
     [("leaf",), ("leaf",), ("masked_mxm", True, _NEVER_EXPANDED)]),
    ("mxm", "complement", "leaf -> leaf -> mxm -> mask_filter",
     [("leaf",), ("leaf",), ("mxm",), ("mask_filter", False, _FULL_THEN_FILTER)]),
    ("union2", "none", "leaf -> leaf -> ewise_union",
     [("leaf",), ("leaf",), ("ewise_union",)]),
    ("union2", "mask", "leaf -> leaf -> masked_union[fused mask]",
     [("leaf",), ("leaf",), ("masked_union", True, "2-way fused, triples filtered pre-sort")]),
    ("union2", "complement", "leaf -> leaf -> masked_union[fused mask]",
     [("leaf",), ("leaf",), ("masked_union", True, "2-way fused, triples filtered pre-sort")]),
    ("union3", "none", "leaf -> leaf -> leaf -> union_all",
     [("leaf",), ("leaf",), ("leaf",), ("union_all", False, "3-way fused")]),
    ("union3", "mask", "leaf -> leaf -> leaf -> masked_union[fused mask]",
     [
         ("leaf",),
         ("leaf",),
         ("leaf",),
         ("masked_union", True, "3-way fused, triples filtered pre-sort"),
     ]),
    ("union3", "complement", "leaf -> leaf -> leaf -> masked_union[fused mask]",
     [
         ("leaf",),
         ("leaf",),
         ("leaf",),
         ("masked_union", True, "3-way fused, triples filtered pre-sort"),
     ]),
    ("union1_raw", "none", "leaf -> union_all",
     [("leaf",), ("union_all", False, "1-way fused")]),
    ("union1_raw", "mask", "leaf -> masked_union[fused mask]",
     [("leaf",), ("masked_union", True, "1-way fused, triples filtered pre-sort")]),
    ("union1_raw", "complement", "leaf -> masked_union[fused mask]",
     [("leaf",), ("masked_union", True, "1-way fused, triples filtered pre-sort")]),
    ("union_compound", "none", "leaf -> leaf -> mxm -> leaf -> ewise_union",
     [("leaf",), ("leaf",), ("mxm",), ("leaf",), ("ewise_union",)]),
    ("union_compound", "mask", "leaf -> leaf -> masked_mxm[fused mask] -> leaf -> masked_union[fused mask]",
     [
         ("leaf",),
         ("leaf",),
         ("masked_mxm", True, _NEVER_EXPANDED),
         ("leaf",),
         ("masked_union", True, "2-way fused, triples filtered pre-sort"),
     ]),
    ("union_compound", "complement", "leaf -> leaf -> mxm -> mask_filter -> leaf -> masked_union[fused mask]",
     [
         ("leaf",),
         ("leaf",),
         ("mxm",),
         ("mask_filter", False, _FULL_THEN_FILTER),
         ("leaf",),
         ("masked_union", True, "2-way fused, triples filtered pre-sort"),
     ]),
    ("ewise_mult", "none", "leaf -> leaf -> ewise_intersect",
     [("leaf",), ("leaf",), ("ewise_intersect",)]),
    ("ewise_mult", "mask", "leaf -> leaf -> masked_intersect[fused mask]",
     [("leaf",), ("leaf",), ("masked_intersect", True, _PUSHED_LEFT)]),
    ("ewise_mult", "complement", "leaf -> leaf -> masked_intersect[fused mask]",
     [("leaf",), ("leaf",), ("masked_intersect", True, _PUSHED_LEFT)]),
    ("ewise_mult_compound", "none", "leaf -> leaf -> mxm -> leaf -> ewise_intersect",
     [("leaf",), ("leaf",), ("mxm",), ("leaf",), ("ewise_intersect",)]),
    ("ewise_mult_compound", "mask", "leaf -> leaf -> masked_mxm[fused mask] -> leaf -> masked_intersect[fused mask]",
     [
         ("leaf",),
         ("leaf",),
         ("masked_mxm", True, _NEVER_EXPANDED),
         ("leaf",),
         ("masked_intersect", True, _PUSHED_LEFT),
     ]),
    ("ewise_mult_compound", "complement", "leaf -> leaf -> mxm -> mask_filter -> leaf -> masked_intersect[fused mask]",
     [
         ("leaf",),
         ("leaf",),
         ("mxm",),
         ("mask_filter", False, _FULL_THEN_FILTER),
         ("leaf",),
         ("masked_intersect", True, _PUSHED_LEFT),
     ]),
    ("transpose_expr", "none", "leaf -> leaf -> mxm -> transpose",
     [("leaf",), ("leaf",), ("mxm",), ("transpose",)]),
    ("transpose_expr", "mask", "leaf -> leaf -> masked_mxm[fused mask] -> transpose",
     [
         ("leaf",),
         ("leaf",),
         ("masked_mxm", True, _NEVER_EXPANDED),
         ("transpose", False, _PUSHED_T),
     ]),
    ("transpose_expr", "complement", "leaf -> leaf -> mxm -> mask_filter -> transpose",
     [
         ("leaf",),
         ("leaf",),
         ("mxm",),
         ("mask_filter", False, _FULL_THEN_FILTER),
         ("transpose", False, _PUSHED_T),
     ]),
    ("mxv", "none", "leaf -> mxv",
     [("leaf",), ("mxv",)]),
    ("mxv", "mask", "leaf -> masked_mxv[fused mask]",
     [("leaf",), ("masked_mxv", True, _ROWS_SKIPPED)]),
    ("mxv", "complement", "leaf -> masked_mxv[fused mask]",
     [("leaf",), ("masked_mxv", True, _ROWS_SKIPPED)]),
    ("mxv_compound", "none", "leaf -> leaf -> mxm -> mxv",
     [("leaf",), ("leaf",), ("mxm",), ("mxv",)]),
    ("mxv_compound", "mask", "leaf -> leaf -> mxm -> masked_mxv[fused mask]",
     [("leaf",), ("leaf",), ("mxm",), ("masked_mxv", True, _ROWS_SKIPPED)]),
    ("mxv_compound", "complement", "leaf -> leaf -> mxm -> masked_mxv[fused mask]",
     [("leaf",), ("leaf",), ("mxm",), ("masked_mxv", True, _ROWS_SKIPPED)]),
    ("reduce_rows", "none", "leaf -> reduce_rows",
     [("leaf",), ("reduce_rows",)]),
    ("reduce_rows", "mask", "leaf -> masked_reduce_rows[fused mask]",
     [("leaf",), ("masked_reduce_rows", True)]),
    ("reduce_rows", "complement", "leaf -> masked_reduce_rows[fused mask]",
     [("leaf",), ("masked_reduce_rows", True)]),
]


@pytest.mark.parametrize(
    "kind, mask_kind, describe, steps",
    _PLAN_TABLE,
    ids=[f"{row[0]}-{row[1]}" for row in _PLAN_TABLE],
)
def test_plan_table(a, b, mask, kind, mask_kind, describe, steps):
    """Pins every step's kernel, fused-mask flag and note, and that
    ``execute()`` profiles exactly the planned steps and result."""
    tree = _plan_tree(kind, a, b, random_csr(20, 20, 0.1, seed=9))
    m = np.arange(20) % 3 == 0 if isinstance(tree, VecExpr) else mask
    kw = {} if mask_kind == "none" else {"mask": m, "complement": mask_kind == "complement"}
    plan = tree.plan(**kw)
    assert plan.describe() == describe
    assert plan.steps == tuple(Step(*args) for args in steps)
    result = plan.execute()
    assert tuple(p.kernel for p in plan.profile) == plan.kernels
    expected = tree.new(**kw)
    if isinstance(tree, VecExpr):
        assert np.array_equal(result, expected)
    else:
        assert result == expected


class TestMaskCoercion:
    def test_none_with_complement_rejected(self):
        with pytest.raises(ExpressionError):
            as_mask(None, complement=True)

    def test_mask_object_complement_flips(self, mask):
        m = as_mask(Mask(mask, complement=True), complement=True)
        assert not m.complement

    def test_dense_bool_array(self, a):
        allow = np.zeros((20, 20), dtype=bool)
        allow[3, :] = True
        out = lazy(a).select(allow)
        assert out == masked_select(a, CSRMatrix.from_dense(allow))

    @pytest.mark.parametrize("masked", [False, True])
    def test_raw_inner_dimension_mismatch_is_a_format_error(self, a, mask, masked):
        """Raw nodes skip the builder's check; the kernel raises the same
        error type with or without a mask."""
        expr = MxM(MatLeaf(a), MatLeaf(random_csr(7, 20, 0.3, seed=4)), PLUS_TIMES)
        with pytest.raises(SparseFormatError, match="inner dimension mismatch"):
            expr.new(mask=mask if masked else None)

    def test_mask_shape_mismatch_rejected(self, a):
        with pytest.raises(ExpressionError):
            lazy(a).mxm(a).new(mask=CSRMatrix.empty((3, 3)))


class TestMatAssignment:
    def test_plain_lshift_replaces(self, a, b):
        c = Mat.from_csr(a)
        c << lazy(a).mxm(b)
        assert c.csr == a.mxm(b)

    def test_masked_assignment_keeps_disallowed_old(self, a, b, mask):
        c = Mat.from_csr(a.copy())
        c(mask=mask) << lazy(b)
        # allowed region: b's masked entries; disallowed region: a untouched
        expected = apply_assign(a, masked_select(b, mask), Mask(mask), None, False)
        assert c.csr == expected
        old = a.to_dense(0)
        allow = mask.to_dense(False).astype(bool)
        got = c.csr.to_dense(0)
        assert np.array_equal(got[~allow], old[~allow])
        assert np.array_equal(got[allow], np.where(allow, b.to_dense(0), 0)[allow])

    def test_replace_clears_disallowed(self, a, b, mask):
        c = Mat.from_csr(a.copy())
        c(mask=mask, replace=True) << lazy(b)
        allow = mask.to_dense(False).astype(bool)
        got = c.csr.to_dense(0)
        assert not got[~allow].any()

    def test_accum_adds_into_allowed(self, a, b, mask):
        c = Mat.from_csr(a.copy())
        c(mask=mask, accum=PLUS) << lazy(b)
        allow = mask.to_dense(False).astype(bool)
        expected = a.to_dense(0) + np.where(allow, b.to_dense(0), 0)
        assert np.array_equal(c.csr.to_dense(0), expected)

    def test_issue_spelling_works(self, a, b, mask):
        """The headline API: C(mask=M, accum=PLUS, complement=True, replace=False) << expr."""
        c = Mat.from_csr(a.copy())
        c(mask=mask, accum=PLUS, complement=True, replace=False) << lazy(a).mxm(b)
        allow = ~mask.to_dense(False).astype(bool)
        expected = a.to_dense(0) + np.where(allow, a.mxm(b).to_dense(0), 0)
        assert np.array_equal(c.csr.to_dense(0), expected)

    def test_assignment_shape_mismatch(self, a):
        c = Mat.from_csr(a)
        with pytest.raises(ExpressionError):
            c << lazy(CSRMatrix.empty((3, 3)))

    def test_eager_operand_assignment(self, a, b):
        c = Mat.from_csr(a)
        c << b  # a bare CSR on the right-hand side coerces to a leaf
        assert c.csr == b

    def test_bad_accum_rejected(self, a, mask):
        c = Mat.from_csr(a)
        with pytest.raises(ExpressionError):
            c(mask=mask, accum="nope") << lazy(a)


class TestVecAssignment:
    def test_masked_vector_assignment(self, a):
        x = np.arange(20, dtype=np.int64)
        allow = np.zeros(20, dtype=bool)
        allow[::2] = True
        w = Vec(np.full(20, 100, dtype=np.int64))
        w(mask=allow) << lazy(a).mxv(x)
        ref = a.mxv(x)
        assert np.array_equal(w.values[allow], ref[allow])
        assert (w.values[~allow] == 100).all()

    def test_replace_writes_fill(self, a):
        x = np.arange(20, dtype=np.int64)
        allow = np.zeros(20, dtype=bool)
        allow[:5] = True
        w = Vec(np.full(20, 7, dtype=np.int64), fill=-1)
        w(mask=allow, replace=True) << lazy(a).mxv(x)
        assert (w.values[~allow] == -1).all()

    def test_accum(self, a):
        x = np.ones(20, dtype=np.int64)
        w = Vec(np.arange(20, dtype=np.int64))
        w(accum=PLUS) << lazy(a).mxv(x)
        assert np.array_equal(w.values, np.arange(20) + a.mxv(x))


class TestEagerCompatibility:
    """Eager methods are one-node expressions evaluated immediately."""

    def test_eager_mxm_is_expression_evaluation(self, a, b):
        assert as_expr(a).mxm(b).new() == a.mxm(b)

    def test_csr_dunders(self, a, b):
        assert (a @ b) == a.mxm(b)
        assert (a + b) == a.ewise_union(b)
        assert (a * b) == a.ewise_intersect(b, PLUS_TIMES.mult)
        scaled = a * 3
        assert np.array_equal(scaled.data, a.data * 3)
        assert (3 * a) == scaled
        assert a.__matmul__(42) is NotImplemented

    def test_pickle_drops_transpose_cache(self, a):
        import pickle

        _ = a.transpose()
        clone = pickle.loads(pickle.dumps(a))
        assert clone == a
        assert clone._t_cache is None

    def test_pair_intersection_counts(self, a):
        inter = lazy(a).ewise(a.transpose(), PAIR, how="intersect").new()
        assert inter == a.ewise_intersect(a.transpose(), PAIR)
