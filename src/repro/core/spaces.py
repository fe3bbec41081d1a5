"""Blue / grey / red network-space model.

The paper's modules partition network endpoints into three *spaces*:

* **blue space** — the defender's own network (work stations ``WS``, servers
  ``SRV``),
* **grey space** — neutral external networks (``EXT``),
* **adversary (red) space** — attacker-controlled hosts (``ADV``).

Every scenario generator (attack stages, DDoS components, security / defense /
deterrence) is expressed in terms of which spaces traffic flows between, so
this module is the vocabulary shared by :mod:`repro.graphs` and
:mod:`repro.modules`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.colors import PalletColor
from repro.errors import LabelError

__all__ = ["NetworkSpace", "SpaceMap", "space_of_label", "DEFAULT_PREFIXES"]


class NetworkSpace(Enum):
    """The three endpoint spaces used throughout the paper's modules."""

    BLUE = "blue"
    GREY = "grey"
    RED = "red"

    @property
    def pallet_color(self) -> PalletColor:
        """Conventional pallet colour for traffic *within* this space.

        Blue space highlights as blue, adversary space as red, grey space is
        left grey — the convention visible in Figs 6–9 of the paper.
        """
        return _SPACE_COLOR[self]


_SPACE_COLOR = {
    NetworkSpace.BLUE: PalletColor.BLUE,
    NetworkSpace.GREY: PalletColor.GREY,
    NetworkSpace.RED: PalletColor.RED,
}

#: Label-prefix conventions used by the paper's 6x6 and 10x10 templates.
#: Read-only, so maps inferred from it can be memoised (``SpaceMap.infer``).
DEFAULT_PREFIXES: Mapping[str, NetworkSpace] = MappingProxyType({
    "WS": NetworkSpace.BLUE,
    "SRV": NetworkSpace.BLUE,
    "EXT": NetworkSpace.GREY,
    "ADV": NetworkSpace.RED,
})


def space_of_label(label: str, prefixes: Mapping[str, NetworkSpace] = DEFAULT_PREFIXES) -> NetworkSpace:
    """Infer the network space of an axis label from its alphabetic prefix.

    ``"WS1"`` → blue, ``"EXT2"`` → grey, ``"ADV4"`` → red.  Longest matching
    prefix wins so custom maps may contain overlapping keys (``"S"`` and
    ``"SRV"``).  Unknown prefixes default to grey space: neutral until an
    educator says otherwise.
    """
    head = label.rstrip("0123456789").upper()
    best: NetworkSpace | None = None
    best_len = -1
    for prefix, space in prefixes.items():
        if head.startswith(prefix.upper()) and len(prefix) > best_len:
            best, best_len = space, len(prefix)
    return best if best is not None else NetworkSpace.GREY


@dataclass(frozen=True)
class SpaceMap:
    """Assignment of every axis label to a network space.

    A ``SpaceMap`` answers two questions the scenario generators keep asking:
    *which vertex indices belong to a space* and *what colour should the cell
    (i, j) get* given the spaces of its endpoints.
    """

    labels: tuple[str, ...]
    spaces: tuple[NetworkSpace, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False, hash=False)
    _grid: np.ndarray | None = field(default=None, init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.spaces):
            raise LabelError(
                f"{len(self.labels)} labels but {len(self.spaces)} space assignments"
            )
        object.__setattr__(self, "_index", {lb: i for i, lb in enumerate(self.labels)})
        if len(self._index) != len(self.labels):
            seen: set[str] = set()
            dup = next(lb for lb in self.labels if lb in seen or seen.add(lb))  # type: ignore[func-returns-value]
            raise LabelError(f"duplicate axis label {dup!r}")

    @classmethod
    def infer(
        cls,
        labels: Sequence[str],
        prefixes: Mapping[str, NetworkSpace] = DEFAULT_PREFIXES,
    ) -> "SpaceMap":
        """Build a map from labels using prefix conventions (``WS* → blue`` ...).

        Maps over the default prefixes are memoised by label tuple: a
        ``SpaceMap`` is frozen, so every matrix on one axis shares one map.
        """
        labels = tuple(labels)
        if cls is SpaceMap and prefixes is DEFAULT_PREFIXES:
            return _infer_default(labels)
        return cls(labels, tuple(space_of_label(lb, prefixes) for lb in labels))

    def __len__(self) -> int:
        return len(self.labels)

    def space_of(self, label_or_index: str | int) -> NetworkSpace:
        """Space of a vertex, addressed by label or integer index."""
        if isinstance(label_or_index, str):
            try:
                return self.spaces[self._index[label_or_index]]
            except KeyError:
                raise LabelError(f"unknown axis label {label_or_index!r}") from None
        return self.spaces[int(label_or_index)]

    def indices(self, space: NetworkSpace) -> np.ndarray:
        """Sorted vertex indices belonging to *space*."""
        return np.asarray(
            [i for i, s in enumerate(self.spaces) if s is space], dtype=np.intp
        )

    def labels_in(self, space: NetworkSpace) -> tuple[str, ...]:
        """Axis labels belonging to *space*, in axis order."""
        return tuple(lb for lb, s in zip(self.labels, self.spaces) if s is space)

    def color_grid(self) -> np.ndarray:
        """Default colour grid for this space assignment.

        The convention, read off the paper's 10×10 template listing, is:

        * any cell whose source **or** destination is in red space → red,
        * cells entirely inside blue space → blue,
        * everything else (grey↔grey, blue↔grey) → grey.

        (The template colours blue→red *and* red→blue cells red, and colours
        the red→blue block blue on the lower-left — that lower-left blue block
        marks *defended* adversary→blue paths; generators that need the exact
        template colouring build it explicitly.)

        The grid is computed once per map and returned read-only: an
        immutable value, shared by every matrix coloured from this map and
        never copied.
        """
        if self._grid is None:
            n = len(self)
            is_red = np.asarray([s is NetworkSpace.RED for s in self.spaces])
            is_blue = np.asarray([s is NetworkSpace.BLUE for s in self.spaces])
            grid = np.zeros((n, n), dtype=np.int8)
            grid[np.ix_(is_blue, is_blue)] = int(PalletColor.BLUE)
            grid[is_red, :] = int(PalletColor.RED)
            grid[:, is_red] = int(PalletColor.RED)
            grid.flags.writeable = False
            object.__setattr__(self, "_grid", grid)
        return self._grid

    def pair_space(self, i: int, j: int) -> tuple[NetworkSpace, NetworkSpace]:
        """(source space, destination space) of cell ``(i, j)``."""
        return self.spaces[i], self.spaces[j]


@lru_cache(maxsize=128)
def _infer_default(labels: tuple[str, ...]) -> SpaceMap:
    return SpaceMap(labels, tuple(map(space_of_label, labels)))


def spaces_from_counts(
    blue: int, grey: int, red: int, *, blue_servers: int = 0
) -> SpaceMap:
    """Construct the canonical template label set: ``WS… SRV… EXT… ADV…``.

    ``blue`` counts work stations; ``blue_servers`` appends that many ``SRV``
    labels (also blue space); then ``grey`` ``EXT`` labels and ``red`` ``ADV``
    labels.  ``spaces_from_counts(3, 2, 4, blue_servers=1)`` reproduces the
    paper's 10×10 template axis labels exactly.
    """
    labels: list[str] = []
    labels += [f"WS{k}" for k in range(1, blue + 1)]
    labels += [f"SRV{k}" for k in range(1, blue_servers + 1)]
    labels += [f"EXT{k}" for k in range(1, grey + 1)]
    labels += [f"ADV{k}" for k in range(1, red + 1)]
    return SpaceMap.infer(labels)


def iter_space_blocks(space_map: SpaceMap) -> Iterable[tuple[NetworkSpace, NetworkSpace, np.ndarray, np.ndarray]]:
    """Yield ``(src_space, dst_space, row_idx, col_idx)`` for all 9 space blocks."""
    for s_src in NetworkSpace:
        rows = space_map.indices(s_src)
        if rows.size == 0:
            continue
        for s_dst in NetworkSpace:
            cols = space_map.indices(s_dst)
            if cols.size == 0:
                continue
            yield s_src, s_dst, rows, cols
