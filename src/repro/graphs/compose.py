"""Pattern composition: the "combine the stages together" exercises.

The attack, defense and DDoS modules all end the same way in the paper: "after
understanding these individual examples they could all be combined together or
have background noise added to give a student even more of a challenge."
:func:`overlay` and :func:`challenge` are those two constructions.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.core.traffic_matrix import TrafficMatrix, _non_negative
from repro.errors import ShapeError
from repro.graphs.noise import with_noise
from repro.runtime.config import parallel_config

__all__ = ["overlay", "sequence", "challenge"]


def overlay(matrices: Iterable[TrafficMatrix]) -> TrafficMatrix:
    """Sum a collection of same-labelled patterns into one combined matrix.

    Packet counts add; colours keep the highest-priority code per cell
    (red > blue > grey), so adversarial annotation survives composition.

    Classroom-sized matrices combine densely.  When the runtime has parallel
    workers configured and the stack is large **and sparse**, the packet
    grids are summed on the sparse engine through the expression layer: one
    accumulator assignment (``total(accum=PLUS) << union_all(rest)``) whose
    fused n-ary union runs a single row-blocked concatenate + coalesce
    instead of a chain of pairwise unions.  Dense stacks always take the
    dense path: a CSR round trip loses to one vectorized add when most cells
    are occupied.
    """
    matrices = list(matrices)
    if not matrices:
        raise ShapeError(
            "overlay() received an empty collection; it needs at least one "
            "TrafficMatrix to combine"
        )
    first = matrices[0]
    total_nnz = sum(m.nnz() for m in matrices)
    total_cells = first.n * first.n * len(matrices)
    if (
        len(matrices) > 1
        and total_nnz * 8 <= total_cells  # sparse enough (< ~12% occupied)
        and parallel_config(total_nnz) is not None
    ):
        for m in matrices[1:]:
            first._check_compatible(m)
        from repro.assoc.expr import Mat, union_all
        from repro.assoc.semiring import PLUS

        total = Mat.from_csr(first.to_csr())
        total(accum=PLUS) << union_all([m.to_csr() for m in matrices[1:]])
        colors, extended = TrafficMatrix.overlay_style(matrices)
        return TrafficMatrix(
            _non_negative(total.to_dense(0)),
            first.labels,
            colors,
            extended_colors=extended,
            _trusted=True,
        )
    total = first.copy()
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
