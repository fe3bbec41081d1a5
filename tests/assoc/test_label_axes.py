"""Label-axis validation: checked where labels enter, reused where derived."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.streaming import merge_windows
from repro.assoc import array as array_module
from repro.assoc.array import AssociativeArray, _as_labels
from repro.assoc.semiring import MIN_PLUS
from repro.assoc.sparse import CSRMatrix
from repro.errors import AssocArrayError

KEYS = ["ADV1", "EXT1", "SRV1", "WS1", "WS2"]


def _sorted_set_rule(keys):
    """The ``sorted(set())`` rule the linear validation replaced."""
    labels = tuple(str(k) for k in keys)
    if any(not k for k in labels):
        raise AssocArrayError("associative-array keys may not be empty strings")
    if list(labels) != sorted(set(labels)):
        raise AssocArrayError("label axes must be sorted and duplicate-free")
    return labels


def _outcome(rule, keys):
    try:
        return "ok", rule(keys)
    except AssocArrayError as exc:
        return "error", str(exc)


key = st.one_of(
    st.text(max_size=3),
    st.sampled_from(["", "a", "b", "WS1", "WS10", "WS2"]),
    st.integers(-3, 12),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
)


@st.composite
def axes(draw):
    """Arbitrary key lists, half of them pushed through sorted(set()) first."""
    keys = draw(st.lists(key, max_size=8))
    if draw(st.booleans()):
        keys = sorted(set(map(str, keys)))
    return keys


def triples(keys=KEYS):
    entry = st.tuples(st.sampled_from(keys), st.sampled_from(keys), st.integers(1, 9))
    return st.lists(entry, min_size=1, max_size=12)


def build(entries):
    rows, cols, vals = zip(*entries)
    return AssociativeArray.from_triples(list(rows), list(cols), np.asarray(vals))


class TestValidationRule:
    @given(axes())
    @example(["b", "a"])  # unsorted
    @example(["a", "a"])  # duplicate
    @example(["", "a"])  # empty string
    @example([10, 9])  # non-str keys, sorted as strings
    @example([9, 10])  # non-str keys, unsorted as strings
    @example([])
    @settings(max_examples=400, deadline=None)
    def test_linear_check_matches_sorted_set_rule(self, keys):
        assert _outcome(_as_labels, keys) == _outcome(_sorted_set_rule, keys)

    @pytest.mark.parametrize(
        "keys, message",
        [
            (["b", "a"], "sorted and duplicate-free"),
            (["a", "a"], "sorted and duplicate-free"),
            (["a", ""], "empty strings"),
            (["", "b", "a"], "empty strings"),
            ([9, 10], "sorted and duplicate-free"),  # "9" > "10" as strings
        ],
    )
    def test_rejections_keep_their_messages(self, keys, message):
        with pytest.raises(AssocArrayError, match=message):
            _as_labels(keys)
        with pytest.raises(AssocArrayError, match=message):
            AssociativeArray(keys, (), CSRMatrix.empty((len(keys), 0)))

    def test_non_str_keys_are_stringified(self):
        assert _as_labels([10, 9]) == ("10", "9")

    def test_constructor_still_validates(self):
        csr = AssociativeArray.from_dense(np.eye(2), ["a", "b"], ["x", "y"]).csr
        with pytest.raises(AssocArrayError, match="sorted and duplicate-free"):
            AssociativeArray(["b", "a"], ["x", "y"], csr)


class TestReindexBoundary:
    @given(triples(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_non_superset_raises_current_message(self, entries, data):
        a = build(entries)
        dropped = data.draw(st.sampled_from(a.row_labels))
        rows = [k for k in KEYS if k != dropped]
        with pytest.raises(AssocArrayError, match="reindex axes must be supersets"):
            a.reindex(rows, KEYS)
        with pytest.raises(AssocArrayError, match="reindex axes must be supersets"):
            a.reindex(KEYS, [k for k in KEYS if k not in a.col_labels[:1]])

    def test_unsorted_axes_passed_to_reindex_are_rejected(self):
        a = AssociativeArray.from_triples(["a"], ["x"], [1])
        with pytest.raises(AssocArrayError, match="sorted and duplicate-free"):
            a.reindex(["b", "a"], ["x"])
        with pytest.raises(AssocArrayError, match="empty strings"):
            a.reindex(["a"], ["", "x"])

    @given(triples(), st.sets(st.sampled_from(["A0", "SRV0", "WS15", "ZZ"])))
    @settings(max_examples=100, deadline=None)
    def test_reindex_equals_a_rebuild_from_triples(self, entries, extra):
        # reindexing relabels the CSR arrays without a sort; the result must
        # be the canonical matrix a rebuild from relabelled triples gives
        a = build(entries)
        rows = tuple(sorted(set(a.row_labels) | extra))
        cols = tuple(sorted(set(a.col_labels) | extra | {"a"}))
        got = a.reindex(rows, cols)
        r, c, v = a.csr.triples()
        ref = CSRMatrix.from_triples(
            np.searchsorted(rows, np.asarray(a.row_labels))[r],
            np.searchsorted(cols, np.asarray(a.col_labels))[c],
            v,
            (len(rows), len(cols)),
        )
        assert got.csr == ref and got.csr.dtype == ref.dtype
        CSRMatrix(ref.shape, got.csr.indptr, got.csr.indices, got.csr.data)  # validates

    def test_superset_reindex_keeps_entries(self):
        a = AssociativeArray.from_triples(["b"], ["y"], [4])
        r = a.reindex(["a", "b", "c"], ["x", "y"])
        assert r.shape == (3, 2) and r["b", "y"] == 4 and r.nnz == 1


def _is_valid(array):
    return (
        _as_labels(array.row_labels) == array.row_labels
        and _as_labels(array.col_labels) == array.col_labels
        and type(array.row_labels) is tuple
        and type(array.col_labels) is tuple
    )


class TestTrustedDerivations:
    @given(triples(), triples(KEYS[1:] + ["ZZ1"]))
    @settings(max_examples=100, deadline=None)
    def test_derived_axes_pass_validation(self, e1, e2):
        a, b = build(e1), build(e2)
        union_rows = sorted(set(a.row_labels) | set(b.row_labels))
        union_cols = sorted(set(a.col_labels) | set(b.col_labels))
        derived = [
            a.reindex(union_rows, union_cols),
            a.ewise_add(b),
            a.ewise_mult(b),
            a.ewise_add(b, mask=a),
            a.mxm(b),
            a.mxm(b, MIN_PLUS, mask=a.mxm(b)),
            a.transpose(),
            a.select(a),
            a * 3,
            a.apply(lambda v: v + 1),
            a.extract(list(a.row_labels[:2]), ":"),
            merge_windows([a, b]),
            merge_windows([a, b, a]),
        ]
        for array in derived:
            assert _is_valid(array)

    def test_merge_axes_are_the_label_union(self):
        a = AssociativeArray.from_triples(["b"], ["y"], [1])
        b = AssociativeArray.from_triples(["a", "c"], ["x", "z"], [2, 3])
        merged = merge_windows([a, b])
        assert merged.row_labels == ("a", "b", "c")
        assert merged.col_labels == ("x", "y", "z")
        assert merged.to_dict() == {("a", "x"): 2, ("b", "y"): 1, ("c", "z"): 3}


class TestAxisMemo:
    """Tuples of strings are validated once and their position maps built
    once; every other input keeps the uncached path, and errors are never
    memoised."""

    @pytest.mark.parametrize("order", [(1, 1.0, True), (True, 1.0, 1), (1.0, True, 1)])
    def test_hash_equal_non_str_tuples_each_convert(self, order):
        # (1,) == (1.0,) == (True,) and all three hash equal
        for _ in range(2):
            for key in order:
                assert _as_labels((key,)) == (str(key),)

    @pytest.mark.parametrize(
        "keys, message",
        [(("b", "a"), "sorted and duplicate-free"), (("", "a"), "empty strings")],
    )
    def test_an_invalid_axis_raises_on_every_call(self, keys, message):
        for _ in range(3):
            with pytest.raises(AssocArrayError, match=message):
                _as_labels(keys)

    def test_non_superset_reindex_raises_after_a_cached_map(self):
        target = ("a", "b", "c")
        inside = AssociativeArray.from_triples(["a"], ["a"], [1])
        outside = AssociativeArray.from_triples(["z"], ["a"], [1])
        for _ in range(2):
            assert inside.reindex(target, target).nnz == 1
            with pytest.raises(AssocArrayError, match="reindex axes must be supersets"):
                outside.reindex(target, target)

    def test_str_subclass_labels_come_back_as_str(self):
        labels = _as_labels((np.str_("a"), np.str_("b")))
        assert labels == ("a", "b") and all(type(k) is str for k in labels)
        assert all(type(k) is str for k in _as_labels(("a", "b")))

    def test_the_memos_stay_small(self):
        for memo in (array_module._str_axis, array_module._positions):
            assert 0 < memo.cache_info().maxsize <= 16

    @given(triples(), triples(KEYS[1:] + ["ZZ1"]))
    @settings(max_examples=100, deadline=None)
    def test_cached_and_uncached_paths_build_equal_arrays(self, e1, e2):
        a, b = build(e1), build(e2)
        rows = sorted(set(a.row_labels) | set(b.row_labels) | {"AAA"})
        cols = sorted(set(a.col_labels) | set(b.col_labels))

        def derived():
            return [
                a.reindex(tuple(rows), tuple(cols)),
                AssociativeArray(tuple(rows), tuple(cols), a.reindex(rows, cols).csr),
                a.ewise_add(b),
                a.mxm(b),
                merge_windows([a, b, a]),
            ]

        array_module._str_axis.cache_clear()
        array_module._positions.cache_clear()
        first = derived()  # fills the memos
        again = derived()  # served from them
        uncached = [
            a.reindex(rows, cols),  # lists take the uncached path
            AssociativeArray(rows, cols, a.reindex(rows, cols).csr),
        ]
        assert first == again
        assert first[:2] == uncached
        assert all(_is_valid(x) for x in again)


class TestKeyLookup:
    N = 4096

    @pytest.fixture(scope="class")
    def wide(self):
        rng = np.random.default_rng(5)
        labels = sorted(f"N{i}" for i in range(self.N))
        rows = rng.choice(labels, 20000)
        cols = rng.choice(labels, 20000)
        return AssociativeArray.from_triples(
            rows, cols, rng.integers(1, 9, 20000), row_labels=labels, col_labels=labels
        )

    def test_extract_1k_keys_matches_dense_slice(self, wide):
        rng = np.random.default_rng(6)
        labels = wide.row_labels
        r_idx = np.sort(rng.choice(self.N, 1000, replace=False))
        c_idx = np.sort(rng.choice(self.N, 1000, replace=False))
        sub = wide.extract([labels[i] for i in r_idx], [labels[j] for j in c_idx])
        assert sub.row_labels == tuple(labels[i] for i in r_idx)
        assert sub.col_labels == tuple(labels[j] for j in c_idx)
        np.testing.assert_array_equal(sub.to_dense(), wide.to_dense()[np.ix_(r_idx, c_idx)])
        assert _is_valid(sub)

    def test_scalar_lookup_matches_dense(self, wide):
        dense = wide.to_dense()
        labels = wide.row_labels
        for i, j in [(0, 0), (0, self.N - 1), (self.N - 1, 17), (2048, 1023)]:
            assert wide[labels[i], labels[j]] == dense[i, j]

    @pytest.mark.parametrize("missing", ["", "A", "N", "N40960", "zzz"])
    def test_unknown_keys_raise(self, wide, missing):
        with pytest.raises(AssocArrayError, match="unknown row key"):
            wide[missing, "N0"]
        with pytest.raises(AssocArrayError, match="unknown column key"):
            wide["N0", missing]

    def test_non_str_keys_are_unknown(self, wide):
        with pytest.raises(AssocArrayError, match="unknown row key 5"):
            wide.extract([5], ":")
        with pytest.raises(AssocArrayError, match="unknown column key 5"):
            wide.extract(":", [5])
