"""D4M-style associative arrays: sparse matrices with string row/column keys.

The paper notes that real networks label endpoints with strings (IPs, host
names), "which can be handled with the more general associative array
abstraction" (Kepner & Jananthan, *Mathematics of Big Data*).  An
:class:`AssociativeArray` is a sparse matrix whose axes are **sorted tuples of
string keys**; binary operations align operands by key (set union), so arrays
built over different endpoint populations compose without manual index
bookkeeping — the property that makes streaming traffic-matrix accumulation
(refs [16]-[19]) one-line code.
"""

from __future__ import annotations

import bisect
import functools
import operator
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.assoc.semiring import BinaryOp, Monoid, PLUS_MONOID, PLUS_TIMES, Semiring, TIMES
from repro.assoc.sparse import CSRMatrix
from repro.errors import AssocArrayError

__all__ = ["AssociativeArray"]


#: How many label axes the validation memo and the position-map memo each
#: hold.  A few axes recur (a fixed endpoint axis, the current merge union),
#: and a position map over 4096 labels takes ~0.2 MB, so both stay small.
_AXIS_MEMO = 8


def _as_labels(keys: Iterable[str]) -> tuple[str, ...]:
    """Validate one label axis where it enters: non-empty strings, strictly increasing.

    A tuple of strings is validated once and then served from a small memo.
    Anything else takes the uncached path: ``(1,)``, ``(1.0,)`` and
    ``(True,)`` are equal and hash equal, yet label as ``"1"``, ``"1.0"``
    and ``"True"``, so one must never be served another's result.
    """
    if type(keys) is tuple and all(map(str.__instancecheck__, keys)):
        return _str_axis(keys)
    return _checked(tuple(map(str, keys)))


@functools.lru_cache(maxsize=_AXIS_MEMO)
def _str_axis(keys: tuple[str, ...]) -> tuple[str, ...]:
    """:func:`_checked` over a tuple of ``str``, memoised (errors never are)."""
    return _checked(tuple(map(str, keys)))


def _checked(labels: tuple[str, ...]) -> tuple[str, ...]:
    if "" in labels:
        raise AssocArrayError("associative-array keys may not be empty strings")
    if not all(map(operator.lt, labels, labels[1:])):
        raise AssocArrayError("label axes must be sorted and duplicate-free")
    return labels


def _union_labels(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[str, ...]:
    if a == b:
        return a
    return tuple(sorted(set(a) | set(b)))


def _find(labels: tuple[str, ...], key: object) -> int:
    """Position of *key* on the sorted *labels* axis, or -1 when it is absent."""
    if isinstance(key, str):
        i = bisect.bisect_left(labels, key)
        if i < len(labels) and labels[i] == key:
            return i
    return -1


def _remap(labels: tuple[str, ...], target: tuple[str, ...]) -> np.ndarray:
    """Index of each of *labels* inside the (sorted) *target* axis.

    Raises when a label is missing from *target*, so the lookup itself is
    the superset check of :meth:`AssociativeArray.reindex`.
    """
    if labels == target:
        return np.arange(len(labels), dtype=np.int64)
    position = _positions(target)
    try:
        return np.fromiter(map(position.__getitem__, labels), dtype=np.int64, count=len(labels))
    except KeyError:
        raise AssocArrayError("reindex axes must be supersets of the current axes") from None


@functools.lru_cache(maxsize=_AXIS_MEMO)
def _positions(axis: tuple[str, ...]) -> dict[str, int]:
    """Label → position on a validated *axis*, built once per axis (read-only)."""
    return dict(zip(axis, range(len(axis))))


class AssociativeArray:
    """A sparse matrix keyed by sorted string labels on both axes.

    Construction normalises keys to sorted order; all arithmetic aligns
    operands by key union, mirroring D4M semantics.  The underlying storage is
    a canonical :class:`~repro.assoc.sparse.CSRMatrix`.

    Label axes are validated where they enter — the constructors,
    :meth:`from_triples` and the axes passed to :meth:`reindex`.  Arrays
    derived from validated ones (``_trusted=True``) reuse their axes as is.
    """

    __slots__ = ("row_labels", "col_labels", "csr")

    def __init__(
        self,
        row_labels: Sequence[str],
        col_labels: Sequence[str],
        csr: CSRMatrix,
        *,
        _trusted: bool = False,
    ) -> None:
        if _trusted:
            self.row_labels = tuple(row_labels)
            self.col_labels = tuple(col_labels)
        else:
            self.row_labels = _as_labels(row_labels)
            self.col_labels = _as_labels(col_labels)
        if csr.shape != (len(self.row_labels), len(self.col_labels)):
            raise AssocArrayError(
                f"storage shape {csr.shape} does not match label axes "
                f"({len(self.row_labels)}, {len(self.col_labels)})"
            )
        self.csr = csr

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_triples(
        cls,
        rows: Sequence[str],
        cols: Sequence[str],
        vals: Sequence[float] | np.ndarray,
        *,
        row_labels: Sequence[str] | None = None,
        col_labels: Sequence[str] | None = None,
        add: Monoid = PLUS_MONOID,
    ) -> "AssociativeArray":
        """Build from ``(row key, col key, value)`` triples.

        Duplicate coordinates combine with *add* (default: sum — packet
        accumulation).  When explicit axis label sets are given they must
        cover every key used; otherwise axes are the sorted distinct keys.
        """
        rows = [str(r) for r in rows]
        cols = [str(c) for c in cols]
        vals = np.asarray(vals)
        if not (len(rows) == len(cols) == vals.shape[0] if vals.ndim else len(rows) == len(cols) == 0):
            raise AssocArrayError("rows, cols, vals must be equal length")
        r_axis = tuple(sorted(set(rows))) if row_labels is None else tuple(sorted(set(row_labels)))
        c_axis = tuple(sorted(set(cols))) if col_labels is None else tuple(sorted(set(col_labels)))
        r_lookup = {k: i for i, k in enumerate(r_axis)}
        c_lookup = {k: i for i, k in enumerate(c_axis)}
        try:
            r_idx = np.fromiter((r_lookup[r] for r in rows), dtype=np.int64, count=len(rows))
            c_idx = np.fromiter((c_lookup[c] for c in cols), dtype=np.int64, count=len(cols))
        except KeyError as exc:
            raise AssocArrayError(f"key {exc.args[0]!r} not present in the given label axis") from None
        csr = CSRMatrix.from_triples(r_idx, c_idx, vals, (len(r_axis), len(c_axis)), add)
        return cls(r_axis, c_axis, csr)

    @classmethod
    def from_dict(cls, entries: Mapping[tuple[str, str], float]) -> "AssociativeArray":
        """Build from a ``{(row, col): value}`` mapping."""
        if not entries:
            return cls.empty((), ())
        rows, cols = zip(*entries.keys())
        return cls.from_triples(list(rows), list(cols), np.asarray(list(entries.values())))

    @classmethod
    def from_dense(
        cls,
        dense: np.ndarray,
        row_labels: Sequence[str],
        col_labels: Sequence[str],
    ) -> "AssociativeArray":
        """Build from a dense array whose axes are *already sorted* label lists."""
        return cls(row_labels, col_labels, CSRMatrix.from_dense(np.asarray(dense)))

    @classmethod
    def empty(cls, row_labels: Sequence[str] = (), col_labels: Sequence[str] = ()) -> "AssociativeArray":
        r = tuple(sorted(set(row_labels)))
        c = tuple(sorted(set(col_labels)))
        return cls(r, c, CSRMatrix.empty((len(r), len(c))))

    # ------------------------------------------------------------------ #
    # basics
    # ------------------------------------------------------------------ #

    @property
    def shape(self) -> tuple[int, int]:
        return self.csr.shape

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    def triples(self) -> list[tuple[str, str, object]]:
        """All entries as ``(row key, col key, value)`` in row-major key order."""
        r, c, v = self.csr.triples()
        return [
            (self.row_labels[i], self.col_labels[j], v[k].item())
            for k, (i, j) in enumerate(zip(r.tolist(), c.tolist()))
        ]

    def to_dense(self) -> np.ndarray:
        return self.csr.to_dense()

    def to_dict(self) -> dict[tuple[str, str], object]:
        return {(r, c): v for r, c, v in self.triples()}

    def __getitem__(self, key: tuple[str | Sequence[str] | slice, str | Sequence[str] | slice]):
        """Scalar lookup ``a["WS1", "ADV4"]`` or sub-array ``a[keys, :]``.

        Scalar lookups on absent coordinates return 0 (the sparse convention);
        unknown *labels* raise, because asking about an endpoint that is not
        on the axis is almost always a bug.
        """
        rk, ck = key
        if isinstance(rk, str) and isinstance(ck, str):
            i = self._row_index(rk)
            j = self._col_index(ck)
            start, end = self.csr.indptr[i], self.csr.indptr[i + 1]
            pos = np.searchsorted(self.csr.indices[start:end], j)
            if pos < end - start and self.csr.indices[start + pos] == j:
                return self.csr.data[start + pos].item()
            return 0
        return self.extract(rk, ck)

    def _row_index(self, key: str) -> int:
        i = _find(self.row_labels, key)
        if i < 0:
            raise AssocArrayError(f"unknown row key {key!r}")
        return i

    def _col_index(self, key: str) -> int:
        j = _find(self.col_labels, key)
        if j < 0:
            raise AssocArrayError(f"unknown column key {key!r}")
        return j

    def _resolve_axis(
        self, sel: str | Sequence[str] | slice, labels: tuple[str, ...]
    ) -> tuple[str, ...]:
        if isinstance(sel, slice):
            if sel != slice(None):
                raise AssocArrayError("only the full slice ':' is supported on label axes")
            return labels
        if isinstance(sel, str):
            if sel == ":":  # D4M-style full-axis string
                return labels
            if sel.endswith("*"):  # D4M StartsWith
                prefix = sel[:-1]
                return tuple(lb for lb in labels if lb.startswith(prefix))
            return (sel,)
        return tuple(sel)

    def extract(
        self,
        rows: str | Sequence[str] | slice,
        cols: str | Sequence[str] | slice,
    ) -> "AssociativeArray":
        """Sub-array on the selected keys.  ``"WS*"`` selects by prefix."""
        r_keys = sorted(set(self._resolve_axis(rows, self.row_labels)))
        c_keys = sorted(set(self._resolve_axis(cols, self.col_labels)))
        r_idx = np.asarray([self._row_index(k) for k in r_keys], dtype=np.int64)
        c_idx = np.asarray([self._col_index(k) for k in c_keys], dtype=np.int64)
        return AssociativeArray(r_keys, c_keys, self.csr.extract(r_idx, c_idx), _trusted=True)

    # ------------------------------------------------------------------ #
    # alignment and algebra
    # ------------------------------------------------------------------ #

    def reindex(
        self, row_labels: Sequence[str], col_labels: Sequence[str]
    ) -> "AssociativeArray":
        """Embed this array into larger (sorted) label axes."""
        return self._embed(_as_labels(row_labels), _as_labels(col_labels))

    def _embed(self, r_axis: tuple[str, ...], c_axis: tuple[str, ...]) -> "AssociativeArray":
        """:meth:`reindex` onto axes that are already validated.

        Every axis is sorted, so both maps are increasing: rows keep their
        order and columns stay sorted within each row, and the CSR arrays
        carry over with relabelled indices and no sort.
        """
        r_map = _remap(self.row_labels, r_axis)
        c_map = _remap(self.col_labels, c_axis)
        row_nnz = np.zeros(len(r_axis), dtype=np.int64)
        row_nnz[r_map] = self.csr.row_nnz()
        indptr = np.zeros(len(r_axis) + 1, dtype=np.int64)
        np.cumsum(row_nnz, out=indptr[1:])
        csr = CSRMatrix(
            (len(r_axis), len(c_axis)), indptr, c_map[self.csr.indices], self.csr.data.copy(),
            _trusted=True,
        )
        return AssociativeArray(r_axis, c_axis, csr, _trusted=True)

    def _aligned(self, other: "AssociativeArray") -> tuple["AssociativeArray", "AssociativeArray"]:
        r_axis = _union_labels(self.row_labels, other.row_labels)
        c_axis = _union_labels(self.col_labels, other.col_labels)
        return self._embed(r_axis, c_axis), other._embed(r_axis, c_axis)

    def _mask_csr(
        self,
        mask: object,
        row_labels: tuple[str, ...],
        col_labels: tuple[str, ...],
    ) -> "CSRMatrix":
        """Resolve *mask* to a CSR pattern over the given label axes.

        An :class:`AssociativeArray` mask is key-aligned (reindexed onto the
        output axes — its keys must be a subset); anything else goes through
        :func:`repro.assoc.expr.as_mask` and must already match the output
        shape.
        """
        from repro.assoc import expr

        if isinstance(mask, AssociativeArray):
            return mask._embed(row_labels, col_labels).csr
        pattern = expr.as_mask(mask).pattern
        if pattern.shape != (len(row_labels), len(col_labels)):
            raise AssocArrayError(
                f"mask shape {pattern.shape} does not match the "
                f"({len(row_labels)}, {len(col_labels)}) output axes"
            )
        return pattern

    def ewise_add(
        self,
        other: "AssociativeArray",
        add: Monoid = PLUS_MONOID,
        *,
        mask: object = None,
        complement: bool = False,
    ) -> "AssociativeArray":
        """Key-aligned element-wise addition over the union of patterns.

        With *mask* (another array, a CSR pattern, or a dense boolean grid)
        the union is masked on the expression layer: triples outside the
        allowed coordinates are dropped before the combining sort.
        """
        a, b = self._aligned(other)
        if mask is None:
            csr = a.csr.ewise_union(b.csr, add)
        else:
            from repro.assoc import expr

            m = self._mask_csr(mask, a.row_labels, a.col_labels)
            csr = expr.lazy(a.csr).ewise(b.csr, add, how="union").new(
                mask=m, complement=complement
            )
        return AssociativeArray(a.row_labels, a.col_labels, csr, _trusted=True)

    def ewise_mult(
        self,
        other: "AssociativeArray",
        mult: BinaryOp = TIMES,
        *,
        mask: object = None,
        complement: bool = False,
    ) -> "AssociativeArray":
        """Key-aligned element-wise multiply over the pattern intersection
        (optionally masked — the planner pushes the mask into the left
        operand, so the unmasked intersection is never built)."""
        a, b = self._aligned(other)
        if mask is None:
            csr = a.csr.ewise_intersect(b.csr, mult)
        else:
            from repro.assoc import expr

            m = self._mask_csr(mask, a.row_labels, a.col_labels)
            csr = expr.lazy(a.csr).ewise(b.csr, mult, how="intersect").new(
                mask=m, complement=complement
            )
        return AssociativeArray(a.row_labels, a.col_labels, csr, _trusted=True)

    def select(self, mask: object, *, complement: bool = False) -> "AssociativeArray":
        """Entries at coordinates the structural *mask* allows (``A⟨M⟩``)."""
        from repro.assoc.sparse import masked_select

        m = self._mask_csr(mask, self.row_labels, self.col_labels)
        return AssociativeArray(
            self.row_labels, self.col_labels, masked_select(self.csr, m, complement), _trusted=True
        )

    def __add__(self, other: "AssociativeArray") -> "AssociativeArray":
        if not isinstance(other, AssociativeArray):
            return NotImplemented
        return self.ewise_add(other)

    def __mul__(self, other):  # noqa: ANN001
        if isinstance(other, AssociativeArray):
            return self.ewise_mult(other)
        if isinstance(other, (int, float, np.number)):
            return AssociativeArray(
                self.row_labels,
                self.col_labels,
                CSRMatrix(
                    self.shape,
                    self.csr.indptr.copy(),
                    self.csr.indices.copy(),
                    self.csr.data * other,
                    _trusted=True,
                ),
                _trusted=True,
            )
        return NotImplemented

    __rmul__ = __mul__

    def mxm(
        self,
        other: "AssociativeArray",
        semiring: Semiring = PLUS_TIMES,
        *,
        mask: object = None,
        complement: bool = False,
    ) -> "AssociativeArray":
        """Key-aligned matrix product: inner axes are unioned before multiply.

        With a non-complemented *mask* the product runs the fused masked
        kernel — rows of the output the mask excludes are never expanded.
        """
        inner = _union_labels(self.col_labels, other.row_labels)
        a = self._embed(self.row_labels, inner)
        b = other._embed(inner, other.col_labels)
        if mask is None:
            csr = a.csr.mxm(b.csr, semiring)
        else:
            from repro.assoc import expr

            m = self._mask_csr(mask, self.row_labels, other.col_labels)
            csr = expr.lazy(a.csr).mxm(b.csr, semiring).new(mask=m, complement=complement)
        return AssociativeArray(self.row_labels, other.col_labels, csr, _trusted=True)

    def __matmul__(self, other: "AssociativeArray") -> "AssociativeArray":
        if not isinstance(other, AssociativeArray):
            return NotImplemented
        return self.mxm(other)

    def transpose(self) -> "AssociativeArray":
        return AssociativeArray(self.col_labels, self.row_labels, self.csr.transpose(), _trusted=True)

    @property
    def T(self) -> "AssociativeArray":
        return self.transpose()

    # ------------------------------------------------------------------ #
    # reductions and summaries
    # ------------------------------------------------------------------ #

    def reduce_rows(self, add: Monoid = PLUS_MONOID) -> dict[str, object]:
        """Per-row-key reduction, e.g. packets sent per source."""
        vec = self.csr.reduce_rows(add)
        return {k: vec[i].item() for i, k in enumerate(self.row_labels)}

    def reduce_cols(self, add: Monoid = PLUS_MONOID) -> dict[str, object]:
        """Per-column-key reduction, e.g. packets received per destination."""
        vec = self.csr.reduce_cols(add)
        return {k: vec[j].item() for j, k in enumerate(self.col_labels)}

    def sum(self) -> object:
        """Total of all stored values."""
        return self.csr.reduce_scalar(PLUS_MONOID)

    def top_rows(self, k: int, add: Monoid = PLUS_MONOID) -> list[tuple[str, object]]:
        """The *k* heaviest row keys — supernode detection in one call."""
        totals = self.reduce_rows(add)
        return sorted(totals.items(), key=lambda kv: (-float(kv[1]), kv[0]))[:k]

    def apply(self, func: Callable[[np.ndarray], np.ndarray]) -> "AssociativeArray":
        """Apply a vectorized function to stored values (pattern unchanged)."""
        data = np.asarray(func(self.csr.data.copy()))
        if data.shape != self.csr.data.shape:
            raise AssocArrayError("apply() function must preserve the value-array shape")
        return AssociativeArray(
            self.row_labels,
            self.col_labels,
            CSRMatrix(self.shape, self.csr.indptr.copy(), self.csr.indices.copy(), data, _trusted=True),
            _trusted=True,
        )

    def relabel(
        self,
        row_map: Callable[[str], str] | None = None,
        col_map: Callable[[str], str] | None = None,
        add: Monoid = PLUS_MONOID,
    ) -> "AssociativeArray":
        """Rename keys through mapping functions, merging collisions with *add*.

        This is the anonymization primitive: hash every endpoint label and the
        traffic matrix is analysable without exposing identities.
        """
        r, c, v = self.csr.triples()
        rows = [row_map(self.row_labels[i]) if row_map else self.row_labels[i] for i in r.tolist()]
        cols = [col_map(self.col_labels[j]) if col_map else self.col_labels[j] for j in c.tolist()]
        new_r_axis = sorted({(row_map(k) if row_map else k) for k in self.row_labels})
        new_c_axis = sorted({(col_map(k) if col_map else k) for k in self.col_labels})
        return AssociativeArray.from_triples(
            rows, cols, v, row_labels=new_r_axis, col_labels=new_c_axis, add=add
        )

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AssociativeArray):
            return NotImplemented
        return (
            self.row_labels == other.row_labels
            and self.col_labels == other.col_labels
            and self.csr == other.csr
        )

    def __hash__(self) -> int:
        return id(self)

    def __repr__(self) -> str:
        return (
            f"AssociativeArray(rows={len(self.row_labels)}, "
            f"cols={len(self.col_labels)}, nnz={self.nnz})"
        )
