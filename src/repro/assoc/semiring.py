"""Semirings: the algebraic heart of the GraphBLAS-style substrate.

The paper's lineage (refs [1]-[19]) analyses traffic matrices with GraphBLAS
semiring operations.  A semiring here is an *additive monoid* (a commutative,
associative NumPy ufunc with an identity) paired with a *multiplicative binary
operator*.  All kernels in :mod:`repro.assoc.sparse` are generic over a
:class:`Semiring`, and all reductions are generic over a :class:`Monoid`, so
``A @ B`` over ``min.plus`` (shortest paths) costs the same code path as
``plus.times`` (packet counting).

Everything is ufunc-backed, so the sparse kernels stay fully vectorized: the
hot loops are ``ufunc.reduceat`` / fancy indexing, never Python-level loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import SemiringError

__all__ = [
    "BinaryOp",
    "Monoid",
    "Semiring",
    "PLUS",
    "TIMES",
    "MIN",
    "MAX",
    "LOR",
    "LAND",
    "FIRST",
    "SECOND",
    "PAIR",
    "PLUS_TIMES",
    "PLUS_MIN",
    "MIN_PLUS",
    "MAX_PLUS",
    "MAX_TIMES",
    "MAX_MIN",
    "LOR_LAND",
    "PLUS_PAIR",
    "MIN_FIRST",
    "MIN_SECOND",
    "semiring_by_name",
    "SEMIRINGS",
    "monoid_by_name",
    "MONOIDS",
]


@dataclass(frozen=True)
class BinaryOp:
    """A named, vectorized binary operator ``f(x, y) -> z``.

    ``func`` must accept two equal-length NumPy arrays and return one.  When it
    is a genuine :class:`numpy.ufunc` the sparse kernels can also use its
    ``reduceat`` — recorded by :attr:`is_ufunc`.
    """

    name: str
    func: Callable[[np.ndarray, np.ndarray], np.ndarray]

    @property
    def is_ufunc(self) -> bool:
        return isinstance(self.func, np.ufunc)

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.func(x, y)


@dataclass(frozen=True)
class Monoid:
    """A commutative, associative :class:`BinaryOp` with an identity element.

    The identity is expressed as a function of dtype because it differs by
    type: the ``MIN`` monoid's identity is ``+inf`` for floats but
    ``iinfo.max`` for integers.
    """

    op: BinaryOp
    identity_for: Callable[[np.dtype], object]

    @property
    def name(self) -> str:
        return self.op.name

    def identity(self, dtype: np.dtype | type) -> object:
        return self.identity_for(np.dtype(dtype))

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.op(x, y)

    @property
    def ufunc(self) -> np.ufunc:
        """The operator as a :class:`numpy.ufunc`, for its ``reduceat``.

        Raises :class:`~repro.errors.SemiringError` for a monoid whose
        operator is a plain callable.
        """
        if not self.op.is_ufunc:
            raise SemiringError(f"monoid {self.name!r} is not ufunc-backed; cannot reduceat")
        return self.op.func  # type: ignore[return-value]

    def reduceat(self, data: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Segment reduction ``out[k] = reduce(data[starts[k]:starts[k+1]])``.

        Handles the NumPy ``reduceat`` quirk for *empty* segments (where
        ``starts[k] == starts[k+1]``, reduceat returns ``data[starts[k]]``
        instead of the identity) by patching them afterwards.  ``starts`` is
        the leading ``n`` entries of an ``n+1``-long indptr array.
        """
        ufunc = self.ufunc
        indptr = starts
        seg_starts = indptr[:-1]
        n_seg = seg_starts.size
        out = np.full(n_seg, self.identity(data.dtype), dtype=data.dtype)
        if data.size == 0 or n_seg == 0:
            return out
        # Run reduceat only over non-empty segments: consecutive non-empty
        # starts are exactly each other's segment ends (empty segments in
        # between share the same offset), so the reduction extents are right
        # and no start can equal len(data).
        nonempty = indptr[1:] > seg_starts
        if nonempty.any():
            out[nonempty] = ufunc.reduceat(data, seg_starts[nonempty])
        return out


def _zero(dtype: np.dtype) -> object:
    if dtype == np.bool_:
        return False
    return dtype.type(0)


def _one(dtype: np.dtype) -> object:
    if dtype == np.bool_:
        return True
    return dtype.type(1)


def _max_value(dtype: np.dtype) -> object:
    if dtype == np.bool_:
        return True
    if np.issubdtype(dtype, np.integer):
        return np.iinfo(dtype).max
    return dtype.type(np.inf)


def _min_value(dtype: np.dtype) -> object:
    if dtype == np.bool_:
        return False
    if np.issubdtype(dtype, np.integer):
        return np.iinfo(dtype).min
    return dtype.type(-np.inf)


# Non-ufunc operators are module-level functions (not lambdas) so every
# built-in Monoid/Semiring pickles — the runtime's process backend ships them
# to workers.


def _first(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x


def _second(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return y


def _pair(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.ones(np.broadcast(x, y).shape, dtype=np.result_type(x, y))


def _false(dtype: np.dtype) -> object:
    return False


def _true(dtype: np.dtype) -> object:
    return True


PLUS = BinaryOp("plus", np.add)
TIMES = BinaryOp("times", np.multiply)
MIN = BinaryOp("min", np.minimum)
MAX = BinaryOp("max", np.maximum)
LOR = BinaryOp("lor", np.logical_or)
LAND = BinaryOp("land", np.logical_and)
FIRST = BinaryOp("first", _first)
SECOND = BinaryOp("second", _second)
PAIR = BinaryOp("pair", _pair)

PLUS_MONOID = Monoid(PLUS, _zero)
MIN_MONOID = Monoid(MIN, _max_value)
MAX_MONOID = Monoid(MAX, _min_value)
LOR_MONOID = Monoid(LOR, _false)
LAND_MONOID = Monoid(LAND, _true)
TIMES_MONOID = Monoid(TIMES, _one)


@dataclass(frozen=True)
class Semiring:
    """An additive :class:`Monoid` paired with a multiplicative :class:`BinaryOp`.

    Named ``add.mult`` by GraphBLAS convention: ``plus.times`` is ordinary
    linear algebra, ``min.plus`` is shortest paths, ``lor.land`` is
    reachability, ``plus.pair`` counts intersections (triangle counting).
    """

    add: Monoid
    mult: BinaryOp

    @property
    def name(self) -> str:
        return f"{self.add.name}.{self.mult.name}"

    def zero(self, dtype: np.dtype | type) -> object:
        """The annihilating element stored implicitly by sparsity."""
        return self.add.identity(dtype)

    def __repr__(self) -> str:
        return f"Semiring({self.name})"


PLUS_TIMES = Semiring(PLUS_MONOID, TIMES)
PLUS_MIN = Semiring(PLUS_MONOID, MIN)
MIN_PLUS = Semiring(MIN_MONOID, PLUS)
MAX_PLUS = Semiring(MAX_MONOID, PLUS)
MAX_TIMES = Semiring(MAX_MONOID, TIMES)
MAX_MIN = Semiring(MAX_MONOID, MIN)
LOR_LAND = Semiring(LOR_MONOID, LAND)
PLUS_PAIR = Semiring(PLUS_MONOID, PAIR)
MIN_FIRST = Semiring(MIN_MONOID, FIRST)
MIN_SECOND = Semiring(MIN_MONOID, SECOND)

#: Registry of all built-in semirings by GraphBLAS-style name.
SEMIRINGS: dict[str, Semiring] = {
    s.name: s
    for s in (
        PLUS_TIMES,
        PLUS_MIN,
        MIN_PLUS,
        MAX_PLUS,
        MAX_TIMES,
        MAX_MIN,
        LOR_LAND,
        PLUS_PAIR,
        MIN_FIRST,
        MIN_SECOND,
    )
}


def semiring_by_name(name: str) -> Semiring:
    """Look up a built-in semiring, e.g. ``semiring_by_name("min.plus")``."""
    try:
        return SEMIRINGS[name]
    except KeyError:
        raise SemiringError(
            f"unknown semiring {name!r}; available: {sorted(SEMIRINGS)}"
        ) from None


#: Registry of all built-in monoids by operator name.
MONOIDS: dict[str, Monoid] = {
    m.name: m
    for m in (
        PLUS_MONOID,
        MIN_MONOID,
        MAX_MONOID,
        LOR_MONOID,
        LAND_MONOID,
        TIMES_MONOID,
    )
}


def monoid_by_name(name: str) -> Monoid:
    """Look up a built-in monoid, e.g. ``monoid_by_name("min")``."""
    try:
        return MONOIDS[name]
    except KeyError:
        raise SemiringError(
            f"unknown monoid {name!r}; available: {sorted(MONOIDS)}"
        ) from None
