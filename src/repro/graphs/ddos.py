"""Distributed denial-of-service components (paper Fig. 9).

The DDoS learning module decomposes "amongst the most prevalent cyber attacks"
into four traffic-matrix signatures:

1. **command and control** — C2 servers coordinating in red space,
2. **botnet clients** — identical C2 → client tasking fan-out,
3. **attack** — the client swarm flooding the victim servers,
4. **backscatter** — the victims' replies to the illegitimate traffic, which
   is exactly the *transpose* of the attack pattern (a property the tests and
   the Fig. 9 bench verify).

Role assignment is parameterised; the defaults fit the paper's 10×10 template
(C2 = ``ADV1, ADV2``; clients = ``ADV3, ADV4, EXT1, EXT2``; victim =
``SRV1``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.labels import default_labels, label_indices
from repro.core.spaces import NetworkSpace, SpaceMap
from repro.core.traffic_matrix import TrafficMatrix
from repro.errors import ShapeError
from repro.graphs._validate import _validate_positive
from repro.scenarios.registry import register_scenario

__all__ = [
    "BotnetRoles",
    "command_and_control",
    "botnet_clients",
    "ddos_attack",
    "backscatter",
    "full_ddos",
    "DDOS_COMPONENTS",
]


@dataclass(frozen=True)
class BotnetRoles:
    """Which endpoints play which part in the DDoS scenario.

    ``from_labels`` derives sensible defaults from the space partition: the
    first half of red space is C2, the rest of red space plus all of grey
    space are bot clients, and blue servers (``SRV*``, else all blue) are the
    victims.
    """

    c2: tuple[int, ...]
    clients: tuple[int, ...]
    victims: tuple[int, ...]
    labels: tuple[str, ...] = field(default=())

    @classmethod
    def from_labels(cls, labels: Sequence[str]) -> "BotnetRoles":
        labels = tuple(labels)
        sm = SpaceMap.infer(labels)
        red = sm.indices(NetworkSpace.RED).tolist()
        grey = sm.indices(NetworkSpace.GREY).tolist()
        blue = sm.indices(NetworkSpace.BLUE).tolist()
        if len(red) < 2:
            raise ShapeError("a botnet needs at least 2 red-space endpoints (C2 + client)")
        if not blue:
            raise ShapeError("a DDoS needs at least 1 blue-space victim")
        n_c2 = max(1, len(red) // 2)
        c2 = tuple(red[:n_c2])
        clients = tuple(red[n_c2:]) + tuple(grey)
        servers = [i for i in blue if labels[i].startswith("SRV")]
        victims = tuple(servers) if servers else tuple(blue)
        if not clients:
            raise ShapeError("no endpoints left to act as botnet clients")
        return cls(c2, clients, victims, labels)

    @classmethod
    def from_names(
        cls,
        labels: Sequence[str],
        c2: Sequence[str],
        clients: Sequence[str],
        victims: Sequence[str],
    ) -> "BotnetRoles":
        labels = tuple(labels)
        roles = cls(
            tuple(label_indices(labels, c2)),
            tuple(label_indices(labels, clients)),
            tuple(label_indices(labels, victims)),
            labels,
        )
        overlap = set(roles.c2) & set(roles.clients) | set(roles.clients) & set(roles.victims)
        if overlap:
            raise ShapeError(f"endpoints {sorted(overlap)} assigned to multiple botnet roles")
        return roles


def _roles(n: int, labels: Sequence[str] | None, roles: BotnetRoles | None) -> tuple[tuple[str, ...], BotnetRoles]:
    lbls = tuple(default_labels(n) if labels is None else labels)
    return lbls, (roles if roles is not None else BotnetRoles.from_labels(lbls))


@register_scenario(
    family="ddos", tags=("fig9", "botnet"), display="Command and control (C2)",
    min_n=5, bounds={"packets": (1, None)},
)
def command_and_control(
    n: int = 10,
    *,
    packets: int = 1,
    labels: Sequence[str] | None = None,
    roles: BotnetRoles | None = None,
) -> TrafficMatrix:
    """C2 servers coordinating with each other in red space (Fig. 9a)."""
    _validate_positive(n=n, packets=packets)
    lbls, r = _roles(n, labels, roles)
    arr = np.zeros((n, n), dtype=np.int64)
    c2 = np.asarray(r.c2, dtype=np.intp)
    if c2.size > 1:
        block = np.full((c2.size, c2.size), packets, dtype=np.int64)
        np.fill_diagonal(block, 0)
        arr[np.ix_(c2, c2)] = block
    else:
        arr[c2[0], c2[0]] = packets  # a lone C2 shows as self-maintenance traffic
    return TrafficMatrix(arr, lbls).with_space_colors()


@register_scenario(
    family="ddos", tags=("fig9", "botnet"), display="Botnet clients",
    min_n=5, bounds={"packets": (1, None)},
)
def botnet_clients(
    n: int = 10,
    *,
    packets: int = 1,
    labels: Sequence[str] | None = None,
    roles: BotnetRoles | None = None,
) -> TrafficMatrix:
    """Identical C2 → client tasking (Fig. 9b).

    "The communication from the C2 servers to the individual clients can be
    represented by identical communications" — every (C2, client) cell holds
    the same count, a uniformity the classifier keys on.
    """
    _validate_positive(n=n, packets=packets)
    lbls, r = _roles(n, labels, roles)
    arr = np.zeros((n, n), dtype=np.int64)
    arr[np.ix_(np.asarray(r.c2, dtype=np.intp), np.asarray(r.clients, dtype=np.intp))] = packets
    return TrafficMatrix(arr, lbls).with_space_colors()


@register_scenario(
    family="ddos", tags=("fig9", "botnet"), display="DDoS attack",
    min_n=5, bounds={"packets": (1, None)},
)
def ddos_attack(
    n: int = 10,
    *,
    packets: int = 9,
    labels: Sequence[str] | None = None,
    roles: BotnetRoles | None = None,
) -> TrafficMatrix:
    """The flood: every client slams the victim servers (Fig. 9c).

    Defaults to 9 packets per client-victim pair — heavy enough to visibly
    dominate the matrix while staying under the 15-packet display guidance.
    """
    _validate_positive(n=n, packets=packets)
    lbls, r = _roles(n, labels, roles)
    arr = np.zeros((n, n), dtype=np.int64)
    arr[np.ix_(np.asarray(r.clients, dtype=np.intp), np.asarray(r.victims, dtype=np.intp))] = packets
    return TrafficMatrix(arr, lbls).with_space_colors()


@register_scenario(
    family="ddos", tags=("fig9", "botnet"), display="Backscatter",
    min_n=5, bounds={"packets": (1, None), "attack_packets": (1, None)},
)
def backscatter(
    n: int = 10,
    *,
    packets: int = 1,
    attack_packets: int = 9,
    labels: Sequence[str] | None = None,
    roles: BotnetRoles | None = None,
) -> TrafficMatrix:
    """Victim replies to the illegitimate traffic (Fig. 9d).

    Structurally the transpose of :func:`ddos_attack` (with reply-rate
    ``packets``): ``backscatter(...).packets`` has the same non-zero pattern
    as ``ddos_attack(...).transpose().packets``.
    """
    _validate_positive(n=n, packets=packets, attack_packets=attack_packets)
    lbls, r = _roles(n, labels, roles)
    attack = ddos_attack(n, packets=attack_packets, labels=lbls, roles=r)
    replied = attack.transpose()
    scaled = np.where(replied.packets > 0, packets, 0).astype(np.int64)
    return TrafficMatrix(scaled, lbls).with_space_colors()


@register_scenario(
    family="ddos", tags=("fig9", "composite"), display="Full DDoS",
    min_n=5,
)
def full_ddos(
    n: int = 10,
    *,
    labels: Sequence[str] | None = None,
    roles: BotnetRoles | None = None,
) -> TrafficMatrix:
    """All four components overlaid — the paper's suggested follow-on exercise.

    Summed by :func:`repro.graphs.compose.overlay`.
    """
    from repro.graphs.compose import overlay

    _validate_positive(n=n)
    lbls, r = _roles(n, labels, roles)
    return overlay(
        component(n, labels=lbls, roles=r)
        for component in (command_and_control, botnet_clients, ddos_attack, backscatter)
    )


#: Fig. 9 components in presentation order.
DDOS_COMPONENTS = {
    "command_and_control": command_and_control,
    "botnet_clients": botnet_clients,
    "ddos_attack": ddos_attack,
    "backscatter": backscatter,
}
