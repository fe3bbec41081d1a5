"""The labelled, coloured network traffic matrix — the paper's central object.

A :class:`TrafficMatrix` carries exactly the data of a learning-module JSON
file: a square grid of packet counts (``traffic_matrix``), one shared axis
label list (``axis_labels``), and a colour code per cell
(``traffic_matrix_colors``).  The class is deliberately **dense**: the paper's
matrices are at most tens of endpoints wide and every cell is drawn on the
warehouse floor whether or not it holds packets.  Large analytic matrices use
:mod:`repro.assoc` instead; :meth:`TrafficMatrix.to_assoc` bridges the two.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from repro.core.colors import PalletColor, validate_color_grid
from repro.core.labels import default_labels, validate_labels
from repro.core.spaces import NetworkSpace, SpaceMap
from repro.errors import ColorError, LabelError, ShapeError, TrafficMatrixError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    import networkx as nx

    from repro.assoc.array import AssociativeArray
    from repro.assoc.semiring import Semiring
    from repro.assoc.sparse import CSRMatrix

__all__ = ["TrafficMatrix", "MAX_DISPLAY_PACKETS"]

#: "Through testing it has been found that fewer than 15 packets between any
#: source and destination displays well."
MAX_DISPLAY_PACKETS = 15


def _non_negative(packets: np.ndarray) -> np.ndarray:
    """Return *packets*, raising on the first negative count (row-major).

    Arithmetic on validated matrices still runs this: an ``int64`` overflow
    wraps to a negative count, which must not pass as traffic.
    """
    if packets.size and packets.min() < 0:
        i, j = np.argwhere(packets < 0)[0]
        raise TrafficMatrixError(
            f"packet count at ({int(i)}, {int(j)}) is negative ({int(packets[i, j])})"
        )
    return packets


class TrafficMatrix:
    """A square traffic matrix with axis labels and per-cell colour codes.

    Parameters
    ----------
    packets:
        ``n × n`` array-like of non-negative integer packet counts.
        ``packets[i][j]`` is the number of packets sent from endpoint ``i``
        (row, source) to endpoint ``j`` (column, destination).
    labels:
        Axis labels, applied to both axes.  Defaults to the template label set
        for the matrix size (``WS1…ADV4`` for 10×10).
    colors:
        Optional ``n × n`` grid of colour codes (0 grey, 1 blue, 2 red).
        Defaults to all grey — the uncoloured state pallets start in.

    Packets, labels and colours are validated where they enter — this
    constructor, :meth:`from_edges`, :meth:`from_json_fields` and
    :meth:`with_colors`.  Matrices derived from validated ones
    (``_trusted=True``) take an ``int64`` packet grid, canonical labels and
    an ``int8`` colour grid that they own, as given.
    """

    __slots__ = ("_packets", "_labels", "_colors", "_space_map", "_extended", "_meta")

    def __init__(
        self,
        packets: Sequence[Sequence[int]] | np.ndarray,
        labels: Sequence[str] | None = None,
        colors: Sequence[Sequence[int]] | np.ndarray | None = None,
        *,
        extended_colors: bool = False,
        meta: dict | None = None,
        _trusted: bool = False,
    ) -> None:
        self._extended = bool(extended_colors)
        self._space_map: SpaceMap | None = None
        self._meta: dict = dict(meta) if meta else {}
        if _trusted:
            self._packets = packets
            self._labels = labels
            self._colors = colors
            return
        arr = np.asarray(packets)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ShapeError(f"traffic matrix must be square 2-D, got shape {arr.shape}")
        if arr.size and not np.issubdtype(arr.dtype, np.integer):
            if not np.issubdtype(arr.dtype, np.floating) or not np.all(arr == np.floor(arr)):
                raise TrafficMatrixError("packet counts must be integers")
        arr = _non_negative(arr.astype(np.int64, copy=True))
        n = arr.shape[0]
        self._packets = arr
        self._labels = validate_labels(labels, size=n) if labels is not None else default_labels(n)
        if colors is None:
            self._colors = np.zeros((n, n), dtype=np.int8)
        else:
            grid = validate_color_grid(np.asarray(colors), extended=self._extended)
            if grid.shape != (n, n):
                raise ShapeError(
                    f"colour grid shape {grid.shape} does not match matrix shape {(n, n)}"
                )
            self._colors = grid

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def zeros(cls, n: int, labels: Sequence[str] | None = None) -> "TrafficMatrix":
        """Empty ``n × n`` matrix (no packets, all-grey pallets)."""
        return cls(np.zeros((n, n), dtype=np.int64), labels)

    @classmethod
    def identity(cls, n: int, packets: int = 1, labels: Sequence[str] | None = None) -> "TrafficMatrix":
        """Self-loop traffic: every endpoint sends *packets* to itself."""
        return cls(np.eye(n, dtype=np.int64) * int(packets), labels)

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[str | int, str | int, int]],
        labels: Sequence[str],
    ) -> "TrafficMatrix":
        """Build a matrix from ``(source, destination, packets)`` triples.

        Sources/destinations may be labels or integer indices.  Repeated edges
        accumulate, matching adjacency-matrix semantics where parallel edges
        sum their weights.
        """
        labels = validate_labels(labels)
        index = {lb: i for i, lb in enumerate(labels)}
        n = len(labels)
        arr = np.zeros((n, n), dtype=np.int64)
        for src, dst, v in edges:
            i = index[src.strip().upper()] if isinstance(src, str) else int(src)
            j = index[dst.strip().upper()] if isinstance(dst, str) else int(dst)
            if not (0 <= i < n and 0 <= j < n):
                raise ShapeError(f"edge ({src!r}, {dst!r}) is outside the {n}x{n} matrix")
            arr[i, j] += int(v)
        return cls(arr, labels)

    @classmethod
    def from_json_fields(
        cls,
        traffic_matrix: Sequence[Sequence[int]],
        axis_labels: Sequence[str],
        traffic_matrix_colors: Sequence[Sequence[int]] | None = None,
    ) -> "TrafficMatrix":
        """Construct directly from the three JSON fields of a learning module."""
        return cls(np.asarray(traffic_matrix), axis_labels, traffic_matrix_colors)

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #

    @property
    def n(self) -> int:
        """Number of endpoints (matrix is ``n × n``)."""
        return self._packets.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return self._packets.shape  # type: ignore[return-value]

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def packets(self) -> np.ndarray:
        """Read-only view of the packet-count grid."""
        view = self._packets.view()
        view.flags.writeable = False
        return view

    @property
    def colors(self) -> np.ndarray:
        """Read-only view of the colour-code grid."""
        view = self._colors.view()
        view.flags.writeable = False
        return view

    @property
    def extended_colors(self) -> bool:
        """Whether this matrix opted into the extended colour palette."""
        return self._extended

    @property
    def space_map(self) -> SpaceMap:
        """Blue/grey/red space assignment inferred from label prefixes (cached)."""
        if self._space_map is None:
            self._space_map = SpaceMap.infer(self._labels)
        return self._space_map

    @property
    def meta(self) -> dict:
        """Provenance metadata attached by producers (e.g. the scenario API).

        Metadata is carried alongside the matrix but is *not* part of its
        value: ``__eq__`` ignores it, and derived matrices (sums, transposes)
        do not inherit it.  The scenario API stores the originating
        :class:`~repro.scenarios.ScenarioSpec` document under ``"scenario"``.
        """
        return dict(self._meta)

    def with_meta(self, **fields: object) -> "TrafficMatrix":
        """Copy of this matrix with *fields* merged into its metadata."""
        out = self.copy()
        out._meta.update(fields)
        return out

    # ------------------------------------------------------------------ #
    # element access
    # ------------------------------------------------------------------ #

    def _axis_index(self, key: str | int) -> int:
        if isinstance(key, str):
            try:
                return self._labels.index(key.strip().upper())
            except ValueError:
                raise LabelError(f"unknown axis label {key!r}") from None
        i = int(key)
        if not -self.n <= i < self.n:
            raise ShapeError(f"index {i} out of range for {self.n}x{self.n} matrix")
        return i % self.n

    def __getitem__(self, key: tuple[str | int, str | int]) -> int:
        src, dst = key
        return int(self._packets[self._axis_index(src), self._axis_index(dst)])

    def __setitem__(self, key: tuple[str | int, str | int], value: int) -> None:
        if int(value) < 0:
            raise TrafficMatrixError(f"packet count must be non-negative, got {value}")
        src, dst = key
        self._packets[self._axis_index(src), self._axis_index(dst)] = int(value)

    def add_packets(self, src: str | int, dst: str | int, count: int = 1) -> None:
        """Accumulate *count* packets on the ``src → dst`` cell."""
        i, j = self._axis_index(src), self._axis_index(dst)
        new = self._packets[i, j] + int(count)
        if new < 0:
            raise TrafficMatrixError(
                f"removing {-int(count)} packets from cell ({i}, {j}) holding "
                f"{int(self._packets[i, j])} would go negative"
            )
        self._packets[i, j] = new

    def color_of(self, src: str | int, dst: str | int) -> PalletColor:
        """Colour code of one cell (unknown codes already rejected at build)."""
        return PalletColor(int(self._colors[self._axis_index(src), self._axis_index(dst)]))

    def set_color(self, src: str | int, dst: str | int, color: int | PalletColor) -> None:
        code = int(color)
        allowed = (0, 1, 2, 3, 4) if self._extended else (0, 1, 2)
        if code not in allowed:
            raise ColorError(f"invalid colour code {code}; allowed: {allowed}")
        self._colors[self._axis_index(src), self._axis_index(dst)] = code

    # ------------------------------------------------------------------ #
    # derived views and statistics
    # ------------------------------------------------------------------ #

    def nnz(self) -> int:
        """Number of non-empty cells (source/destination pairs with traffic)."""
        return int(np.count_nonzero(self._packets))

    def total_packets(self) -> int:
        """Total packets across the whole matrix."""
        return int(self._packets.sum())

    def density(self) -> float:
        """Fraction of cells carrying traffic."""
        return self.nnz() / float(self.n * self.n) if self.n else 0.0

    def out_degrees(self) -> np.ndarray:
        """Packets sent per source (row sums)."""
        return self._packets.sum(axis=1)

    def in_degrees(self) -> np.ndarray:
        """Packets received per destination (column sums)."""
        return self._packets.sum(axis=0)

    def out_fan(self) -> np.ndarray:
        """Distinct destinations per source (row non-zero counts)."""
        return np.count_nonzero(self._packets, axis=1)

    def in_fan(self) -> np.ndarray:
        """Distinct sources per destination (column non-zero counts)."""
        return np.count_nonzero(self._packets, axis=0)

    def max_packets(self) -> int:
        """Largest single-cell packet count."""
        return int(self._packets.max()) if self.n else 0

    def cells_over_display_limit(self) -> list[tuple[str, str, int]]:
        """Cells exceeding the 15-packets-per-cell display guidance.

        The game imposes no hard limit in code; this reports the cells an
        educator should reconsider, as ``(source label, dest label, packets)``.
        """
        rows, cols = np.nonzero(self._packets >= MAX_DISPLAY_PACKETS)
        return [
            (self._labels[i], self._labels[j], int(self._packets[i, j]))
            for i, j in zip(rows.tolist(), cols.tolist())
        ]

    def iter_edges(self) -> Iterator[tuple[str, str, int]]:
        """Yield ``(source label, dest label, packets)`` for every non-empty cell."""
        rows, cols = np.nonzero(self._packets)
        for i, j in zip(rows.tolist(), cols.tolist()):
            yield self._labels[i], self._labels[j], int(self._packets[i, j])

    def space_traffic(self) -> dict[tuple[NetworkSpace, NetworkSpace], int]:
        """Total packets per (source space, destination space) block.

        This is the summary the security / defense / deterrence module reasons
        about: e.g. pure "security" traffic lives entirely in the
        ``(BLUE, BLUE)`` block.
        """
        sm = self.space_map
        out: dict[tuple[NetworkSpace, NetworkSpace], int] = {}
        for s_src in NetworkSpace:
            rows = sm.indices(s_src)
            for s_dst in NetworkSpace:
                cols = sm.indices(s_dst)
                if rows.size and cols.size:
                    out[(s_src, s_dst)] = int(self._packets[np.ix_(rows, cols)].sum())
                else:
                    out[(s_src, s_dst)] = 0
        return out

    # ------------------------------------------------------------------ #
    # algebra
    # ------------------------------------------------------------------ #

    def _check_compatible(self, other: "TrafficMatrix") -> None:
        if not isinstance(other, TrafficMatrix):
            raise TypeError(f"expected TrafficMatrix, got {type(other).__name__}")
        if other.n != self.n:
            raise ShapeError(f"size mismatch: {self.n}x{self.n} vs {other.n}x{other.n}")
        if other._labels != self._labels:
            raise LabelError("cannot combine matrices with different axis labels")

    def __add__(self, other: "TrafficMatrix") -> "TrafficMatrix":
        """Overlay two patterns: packet counts add, colours take the maximum.

        Colour priority red(2) > blue(1) > grey(0) means an adversarial
        annotation survives composition — exactly what the paper's "combine
        the stages together" exercise needs.  The rule lives in
        :func:`_overlay_sum`, which :func:`repro.graphs.compose.overlay`
        shares.
        """
        return _overlay_sum((self, other))

    def __mul__(self, scalar: int) -> "TrafficMatrix":
        """Scale every packet count by a non-negative integer."""
        k = int(scalar)
        if k < 0:
            raise TrafficMatrixError("packet scale factor must be non-negative")
        return TrafficMatrix(
            _non_negative(self._packets * k),
            self._labels,
            self._colors.copy(),
            extended_colors=self._extended,
            _trusted=True,
        )

    __rmul__ = __mul__

    def transpose(self) -> "TrafficMatrix":
        """Reverse every flow: the DDoS *backscatter* of an attack pattern."""
        return TrafficMatrix(
            self._packets.T.copy(),
            self._labels,
            self._colors.T.copy(),
            extended_colors=self._extended,
            _trusted=True,
        )

    @property
    def T(self) -> "TrafficMatrix":
        return self.transpose()

    def submatrix(self, labels: Sequence[str | int]) -> "TrafficMatrix":
        """Extract the induced sub-matrix on the given endpoints (order kept)."""
        idx = np.asarray([self._axis_index(lb) for lb in labels], dtype=np.intp)
        picked = tuple(self._labels[i] for i in idx.tolist())
        if len(set(picked)) != len(picked):
            validate_labels(picked)  # raises the duplicate-label error
        sel = np.ix_(idx, idx)
        return TrafficMatrix(
            self._packets[sel],
            picked,
            self._colors[sel],
            extended_colors=self._extended,
            _trusted=True,
        )

    def masked_where(
        self,
        mask: "TrafficMatrix | CSRMatrix | np.ndarray",
        *,
        complement: bool = False,
        color: int | None = None,
    ) -> "TrafficMatrix":
        """Keep only the cells a structural *mask* allows (sparse masked select).

        The filter runs on the expression layer (:mod:`repro.assoc.expr`), so
        only the stored flows are touched — no dense boolean scratch grids.
        *mask* may be another :class:`TrafficMatrix` (its non-empty cells form
        the pattern), a :class:`~repro.assoc.sparse.CSRMatrix`, or a dense
        boolean array; ``complement=True`` keeps the cells *outside* the
        pattern instead.  Kept cells keep their colour, or take *color* when
        given (the firewall panels paint violations red this way); dropped
        cells reset to grey.
        """
        from repro.assoc import expr

        if isinstance(mask, TrafficMatrix):
            mask = mask.to_csr()
        kept = expr.lazy(self.to_csr()).select(mask, complement=complement)
        rows, cols, vals = kept.triples()
        packets = np.zeros(self.shape, dtype=np.int64)
        packets[rows, cols] = vals
        colors = np.zeros(self.shape, dtype=np.int8)
        colors[rows, cols] = np.int8(color) if color is not None else self._colors[rows, cols]
        return TrafficMatrix(packets, self._labels, colors, extended_colors=self._extended)

    def with_colors(
        self,
        colors: np.ndarray | Sequence[Sequence[int]],
        *,
        extended_colors: bool | None = None,
    ) -> "TrafficMatrix":
        """Copy of this matrix with a replacement colour grid."""
        extended = self._extended if extended_colors is None else extended_colors
        return TrafficMatrix(self._packets.copy(), self._labels, colors, extended_colors=extended)

    def with_space_colors(self) -> "TrafficMatrix":
        """Copy coloured by the default space convention (see ``SpaceMap.color_grid``)."""
        return TrafficMatrix(
            self._packets.copy(),
            self._labels,
            self.space_map.color_grid(),
            extended_colors=self._extended,
            _trusted=True,
        )

    def copy(self) -> "TrafficMatrix":
        return TrafficMatrix(
            self._packets.copy(),
            self._labels,
            self._colors.copy(),
            extended_colors=self._extended,
            meta=self._meta,
            _trusted=True,
        )

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #

    def to_json_fields(self) -> dict[str, object]:
        """The three JSON learning-module fields for this matrix."""
        return {
            "size": f"{self.n}x{self.n}",
            "axis_labels": list(self._labels),
            "traffic_matrix": self._packets.tolist(),
            "traffic_matrix_colors": self._colors.astype(int).tolist(),
        }

    def to_assoc(self) -> "AssociativeArray":
        """Convert to a sparse, string-keyed associative array (D4M style)."""
        from repro.assoc.array import AssociativeArray

        rows, cols = np.nonzero(self._packets)
        return AssociativeArray.from_triples(
            [self._labels[i] for i in rows.tolist()],
            [self._labels[j] for j in cols.tolist()],
            self._packets[rows, cols],
            row_labels=self._labels,
            col_labels=self._labels,
        )

    def to_csr(self) -> "CSRMatrix":
        """Convert to the sparse engine's :class:`~repro.assoc.sparse.CSRMatrix`.

        This is the bridge onto the semiring kernels — and therefore onto the
        blocked-parallel runtime when :func:`repro.runtime.configure` has
        enabled workers.
        """
        from repro.assoc.sparse import CSRMatrix

        rows, cols = np.nonzero(self._packets)
        return CSRMatrix.from_triples(
            rows, cols, self._packets[rows, cols], self.shape
        )

    def compose(
        self,
        other: "TrafficMatrix",
        semiring: "str | Semiring" = "plus.times",
        *,
        mask: "TrafficMatrix | CSRMatrix | np.ndarray | None" = None,
        complement: bool = False,
    ) -> "TrafficMatrix":
        """Relayed traffic ``self → via → other``: the semiring matrix product.

        Over the default ``plus.times``, cell ``(i, j)`` counts the packets
        flowing ``i → k`` and then ``k → j`` summed over every relay ``k`` —
        the two-hop traffic picture used by the multi-stage exercises.  The
        product runs on the sparse engine, so large compositions parallelize
        under :func:`repro.runtime.configure`.  Colours are not composable and
        reset to grey.  The semiring must produce non-negative integer counts
        and its additive monoid must treat 0 as neutral on that domain
        (``plus.times``, ``plus.min``, ``max.times``, …); min-like monoids
        are rejected because absent cells would densify to 0 — the *best*
        min value — silently corrupting the result.  Use :meth:`to_csr` or
        :meth:`to_assoc` directly for tropical (``min.plus``) analysis.

        With a *mask*, only the allowed cells of the product are computed:
        the expression planner fuses the mask into the blocked product kernel
        (a sparse non-complemented mask never materialises the full product)
        — "which relayed flows would the firewall pass" in one call.
        """
        from repro.assoc.semiring import semiring_by_name

        self._check_compatible(other)
        if isinstance(semiring, str):
            semiring = semiring_by_name(semiring)
        # Absent cells densify to 0, which is only sound when 0 is neutral
        # for the additive monoid over non-negative counts: plus (identity
        # 0), lor (False == 0), and max (identity int64-min, and 0 is the
        # domain floor).  A min-like monoid's identity is int64-max; 0 would
        # annihilate instead.
        zero = semiring.zero(np.int64)
        if zero != 0 and zero != np.iinfo(np.int64).min:
            raise TrafficMatrixError(
                f"compose cannot densify semiring {semiring.name!r}: absent "
                f"cells would read 0, which is not neutral for its additive "
                f"monoid {semiring.add.name!r}; use to_csr()/to_assoc() for "
                f"sparse {semiring.name} analysis"
            )
        if mask is None:
            product = self.to_csr().mxm(other.to_csr(), semiring)
        else:
            from repro.assoc import expr

            if isinstance(mask, TrafficMatrix):
                mask = mask.to_csr()
            product = expr.lazy(self.to_csr()).mxm(other.to_csr(), semiring).new(
                mask=mask, complement=complement
            )
        return TrafficMatrix(product.to_dense(0), self._labels)

    def to_networkx(self) -> "nx.DiGraph":
        """Directed weighted graph view (for cross-checking with networkx)."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(self._labels)
        for src, dst, w in self.iter_edges():
            g.add_edge(src, dst, weight=w)
        return g

    # ------------------------------------------------------------------ #
    # dunder plumbing
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrafficMatrix):
            return NotImplemented
        return (
            self._labels == other._labels
            and np.array_equal(self._packets, other._packets)
            and np.array_equal(self._colors, other._colors)
        )

    def __hash__(self) -> int:  # matrices are mutable; identity hash like ndarray
        return id(self)

    def __repr__(self) -> str:
        return (
            f"TrafficMatrix(n={self.n}, nnz={self.nnz()}, "
            f"packets={self.total_packets()}, labels={self._labels[:3]}...)"
            if self.n > 3
            else f"TrafficMatrix(n={self.n}, nnz={self.nnz()}, labels={self._labels})"
        )

    def to_text(self, *, show_colors: bool = False) -> str:
        """Spreadsheet-style plain-text rendering (the 2-D top-down view's data).

        Colour display is handled by :mod:`repro.render`; with
        ``show_colors=True`` each cell is suffixed by ``g``/``b``/``r``.
        """
        width = max((len(lb) for lb in self._labels), default=1)
        width = max(width, len(str(self.max_packets())) + (1 if show_colors else 0))
        header = " " * (width + 1) + " ".join(lb.rjust(width) for lb in self._labels)
        lines = [header]
        suffix = {0: "g", 1: "b", 2: "r", 3: "y", 4: "n"}  # n = greeN (g is grey)
        for i, lb in enumerate(self._labels):
            cells = []
            for j in range(self.n):
                cell = str(int(self._packets[i, j]))
                if show_colors:
                    cell += suffix[int(self._colors[i, j])]
                cells.append(cell.rjust(width))
            lines.append(lb.rjust(width) + " " + " ".join(cells))
        return "\n".join(lines)


def _overlay_sum(matrices: Sequence[TrafficMatrix]) -> TrafficMatrix:
    """Sum same-labelled matrices in place: packets add, colours take the max.

    The one definition of the overlay rule, behind ``+`` and
    :func:`repro.graphs.compose.overlay`.  The first layer is copied once
    and every later layer accumulates into that copy, with the same result
    as a left fold of ``+``: the running sum is checked for negative counts
    after every layer (an ``int64`` wrap could turn positive again by the
    end), and a single layer keeps its metadata while a sum of several
    carries none.
    """
    first = matrices[0]
    packets = first._packets.copy()
    colors = first._colors.copy()
    extended = first._extended
    for other in matrices[1:]:
        first._check_compatible(other)
        _non_negative(np.add(packets, other._packets, out=packets))
        np.maximum(colors, other._colors, out=colors)
        extended = extended or other._extended
    return TrafficMatrix(
        packets,
        first._labels,
        colors,
        extended_colors=extended,
        meta=first._meta if len(matrices) == 1 else None,
        _trusted=True,
    )
