"""Pattern composition: the "combine the stages together" exercises.

The attack, defense and DDoS modules all end the same way in the paper: "after
understanding these individual examples they could all be combined together or
have background noise added to give a student even more of a challenge."
:func:`overlay` and :func:`challenge` are those two constructions.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.core.traffic_matrix import TrafficMatrix
from repro.errors import ShapeError
from repro.graphs.noise import with_noise

__all__ = ["overlay", "sequence", "challenge"]


def overlay(matrices: Iterable[TrafficMatrix]) -> TrafficMatrix:
    """Sum a collection of same-labelled patterns into one combined matrix.

    Packet counts add; colours keep the highest-priority code per cell
    (red > blue > grey), so adversarial annotation survives composition.
    The sum is dense, one vectorized add per layer: a
    :class:`~repro.core.TrafficMatrix` is already a dense n×n grid, so a
    sparse detour would pay an O(n²) conversion before doing any work.
    Always returns a new matrix.
    """
    matrices = list(matrices)
    if not matrices:
        raise ShapeError(
            "overlay() received an empty collection; it needs at least one "
            "TrafficMatrix to combine"
        )
    total = matrices[0].copy()
    for m in matrices[1:]:
        total = total + m
    return total


def sequence(
    stage_builders: Sequence[Callable[..., TrafficMatrix]],
    *,
    n: int = 10,
    cumulative: bool = False,
    **kwargs,
) -> list[TrafficMatrix]:
    """Materialise an ordered stage list (e.g. the four attack stages).

    With ``cumulative=True`` each element also contains all earlier stages —
    the "watch the attack unfold" presentation.
    """
    stages = [builder(n, **kwargs) for builder in stage_builders]
    if not cumulative:
        return stages
    out: list[TrafficMatrix] = []
    for i, _ in enumerate(stages):
        out.append(overlay(stages[: i + 1]))
    return out


def challenge(
    pattern: TrafficMatrix,
    *,
    noise_density: float = 0.12,
    max_noise_packets: int = 2,
    seed: int = 0,
) -> TrafficMatrix:
    """A planted pattern hidden in background noise, reproducibly.

    The pattern's own cells are never overwritten, so the intended signature
    is still present verbatim — only surrounded by chatter.
    """
    return with_noise(
        pattern,
        density=noise_density,
        max_packets=max_noise_packets,
        seed=seed,
        preserve_pattern=True,
    )
