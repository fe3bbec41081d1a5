"""Notional cyber-attack stages (paper Fig. 7).

Four stages of a generic attack, each expressed as *where the traffic lives*
relative to the blue/grey/red space partition:

1. **planning** — adversary-internal coordination, entirely in red space,
2. **staging** — infrastructure set-up in greyspace (adversary → grey, and
   grey-internal transfers),
3. **infiltration** — crossing the border from grey space into blue space,
4. **lateral movement** — spread inside blue space once a foothold exists.

Every generator works on any label set with at least one endpoint per space it
uses, and colours the grid by the space convention so students see the stage
*move* from red space toward blue space across the four figures.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.labels import default_labels
from repro.core.spaces import NetworkSpace, SpaceMap
from repro.core.traffic_matrix import TrafficMatrix
from repro.errors import ShapeError
from repro.graphs._validate import _resolve_index, _validate_positive
from repro.scenarios.registry import register_scenario

__all__ = [
    "planning",
    "staging",
    "infiltration",
    "lateral_movement",
    "full_attack",
    "ATTACK_STAGES",
]


def _spaces(labels: Sequence[str]) -> tuple[SpaceMap, np.ndarray, np.ndarray, np.ndarray]:
    sm = SpaceMap.infer(labels)
    return (
        sm,
        sm.indices(NetworkSpace.BLUE),
        sm.indices(NetworkSpace.GREY),
        sm.indices(NetworkSpace.RED),
    )


def _require(space_name: str, idx: np.ndarray, minimum: int = 1) -> None:
    if idx.size < minimum:
        raise ShapeError(
            f"attack stage needs at least {minimum} {space_name}-space endpoint(s), "
            f"found {idx.size}"
        )


@register_scenario(
    family="attack", tags=("fig7", "kill_chain"), display="Planning",
    min_n=5, bounds={"packets": (1, None)},
)
def planning(
    n: int = 10,
    *,
    packets: int = 1,
    labels: Sequence[str] | None = None,
) -> TrafficMatrix:
    """Stage 1 — coordination among adversary hosts, entirely in red space.

    Every adversary pair exchanges traffic; nothing touches grey or blue
    space.  The defender sees *nothing* on their own network — the pedagogical
    point of Fig. 7a.
    """
    _validate_positive(n=n, packets=packets)
    labels = default_labels(n) if labels is None else labels
    _, _, _, red = _spaces(labels)
    _require("red", red, 2)
    arr = np.zeros((n, n), dtype=np.int64)
    arr[np.ix_(red, red)] = packets
    arr[red, red] = 0  # pairwise coordination, no self traffic
    return TrafficMatrix(arr, labels).with_space_colors()


@register_scenario(
    family="attack", tags=("fig7", "kill_chain"), display="Staging",
    min_n=3, bounds={"packets": (1, None)},
)
def staging(
    n: int = 10,
    *,
    packets: int = 1,
    labels: Sequence[str] | None = None,
) -> TrafficMatrix:
    """Stage 2 — staging infrastructure in greyspace (Fig. 7b).

    Each adversary pushes tooling to the grey endpoints (red → grey), and the
    grey endpoints replicate among themselves (grey ↔ grey).
    """
    _validate_positive(n=n, packets=packets)
    labels = default_labels(n) if labels is None else labels
    _, _, grey, red = _spaces(labels)
    _require("grey", grey, 1)
    _require("red", red, 1)
    arr = np.zeros((n, n), dtype=np.int64)
    arr[np.ix_(red, grey)] = packets
    if grey.size > 1:
        block = np.full((grey.size, grey.size), packets, dtype=np.int64)
        np.fill_diagonal(block, 0)
        arr[np.ix_(grey, grey)] = block
    return TrafficMatrix(arr, labels).with_space_colors()


@register_scenario(
    family="attack", tags=("fig7", "kill_chain"), display="Infiltration",
    min_n=3, bounds={"packets": (1, None)},
)
def infiltration(
    n: int = 10,
    *,
    packets: int = 1,
    labels: Sequence[str] | None = None,
) -> TrafficMatrix:
    """Stage 3 — crossing the grey/blue border (Fig. 7c).

    Staged grey endpoints probe and enter blue space; traffic sits exactly on
    the border blocks (grey → blue), the first moment the defender can see it.
    """
    _validate_positive(n=n, packets=packets)
    labels = default_labels(n) if labels is None else labels
    _, blue, grey, _ = _spaces(labels)
    _require("blue", blue, 1)
    _require("grey", grey, 1)
    arr = np.zeros((n, n), dtype=np.int64)
    arr[np.ix_(grey, blue)] = packets
    return TrafficMatrix(arr, labels).with_space_colors()


@register_scenario(
    family="attack", tags=("fig7", "kill_chain"), display="Lateral movement",
    min_n=4, bounds={"packets": (1, None)},
)
def lateral_movement(
    n: int = 10,
    *,
    packets: int = 1,
    foothold: int | str | None = None,
    labels: Sequence[str] | None = None,
) -> TrafficMatrix:
    """Stage 4 — spread inside blue space from a foothold (Fig. 7d).

    The compromised blue endpoint reaches out to every other blue endpoint
    (foothold → blue row), which then probe each other onward — traffic is
    entirely inside the blue block, the hardest stage to distinguish from
    legitimate internal load.
    """
    _validate_positive(n=n, packets=packets)
    labels = default_labels(n) if labels is None else labels
    _, blue, _, _ = _spaces(labels)
    _require("blue", blue, 2)
    if foothold is None:
        foot = int(blue[0])
    else:
        foot = _resolve_index(labels, foothold, "foothold")
    if foot not in set(blue.tolist()):
        raise ShapeError(f"foothold {labels[foot]!r} must be a blue-space endpoint")
    arr = np.zeros((n, n), dtype=np.int64)
    others = [j for j in blue.tolist() if j != foot]
    arr[foot, others] = packets
    # onward probing: each newly reached endpoint tries its successor
    for a, b in zip(others, others[1:]):
        arr[a, b] = packets
    return TrafficMatrix(arr, labels).with_space_colors()


@register_scenario(
    family="attack", tags=("fig7", "composite"), display="Full attack campaign",
    min_n=5, bounds={"packets": (1, None)},
)
def full_attack(
    n: int = 10,
    *,
    packets: int = 1,
    labels: Sequence[str] | None = None,
) -> TrafficMatrix:
    """All four stages overlaid — the "combined together" exercise the paper
    suggests once students know the individual signatures, summed by
    :func:`repro.graphs.compose.overlay`.
    """
    from repro.graphs.compose import overlay

    _validate_positive(n=n, packets=packets)
    labels = default_labels(n) if labels is None else labels
    return overlay(
        builder(n, packets=packets, labels=labels)
        for builder in (planning, staging, infiltration, lateral_movement)
    )


#: Fig. 7 stages in kill-chain order.
ATTACK_STAGES = {
    "planning": planning,
    "staging": staging,
    "infiltration": infiltration,
    "lateral_movement": lateral_movement,
}
