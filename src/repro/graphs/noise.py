"""Background-noise injection for challenge exercises.

The paper repeatedly suggests that once students know the individual
signatures, patterns "could all be combined together or potentially mixed in
with random background noise for a student to analyze".  These helpers make
that exercise reproducible: all randomness flows through a caller-supplied
seed, so a generated challenge module is identical on every machine.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.labels import default_labels
from repro.core.spaces import NetworkSpace, SpaceMap
from repro.core.traffic_matrix import TrafficMatrix
from repro.errors import ShapeError
from repro.graphs._validate import _validate_positive
from repro.scenarios.registry import register_scenario

__all__ = ["background_noise", "with_noise"]


@register_scenario(
    family="noise", tags=("challenge",), display="Background noise",
    bounds={"density": (0.0, 1.0), "max_packets": (1, None)},
)
def background_noise(
    n: int = 10,
    *,
    density: float = 0.1,
    max_packets: int = 2,
    seed: int | np.random.Generator = 0,
    labels: Sequence[str] | None = None,
    src_space: NetworkSpace | None = None,
    dst_space: NetworkSpace | None = None,
    allow_self_loops: bool = False,
) -> TrafficMatrix:
    """Random low-rate chatter over a fraction *density* of the cells.

    Packet counts are uniform in ``1..max_packets``, deliberately light so the
    planted pattern remains the dominant visual signal.  ``src_space`` /
    ``dst_space`` restrict noise to a space block (e.g. benign grey-space
    chatter only).  Determinism: an integer *seed* always produces the same
    matrix.
    """
    _validate_positive(n=n, max_packets=max_packets)
    if not 0.0 <= density <= 1.0:
        raise ShapeError(f"noise density must be in [0, 1], got {density}")
    labels = default_labels(n) if labels is None else labels
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    sm = SpaceMap.infer(labels)
    rows = sm.indices(src_space) if src_space else np.arange(n, dtype=np.intp)
    cols = sm.indices(dst_space) if dst_space else np.arange(n, dtype=np.intp)
    arr = np.zeros((n, n), dtype=np.int64)
    if rows.size and cols.size:
        mask = rng.random((rows.size, cols.size)) < density
        counts = rng.integers(1, max_packets + 1, size=(rows.size, cols.size))
        block = np.where(mask, counts, 0)
        arr[np.ix_(rows, cols)] = block
    if not allow_self_loops:
        np.fill_diagonal(arr, 0)
    return TrafficMatrix(arr, labels)


def with_noise(
    matrix: TrafficMatrix,
    *,
    density: float = 0.1,
    max_packets: int = 2,
    seed: int | np.random.Generator = 0,
    preserve_pattern: bool = True,
) -> TrafficMatrix:
    """Overlay background noise on an existing pattern.

    With ``preserve_pattern`` (default) noise never lands on cells the pattern
    already uses, so the planted signature stays pixel-identical — the variant
    an auto-graded exercise wants.  Without it, noise adds on top.
    """
    noise = background_noise(
        matrix.n,
        density=density,
        max_packets=max_packets,
        seed=seed,
        labels=matrix.labels,
    )
    if preserve_pattern:
        cleaned = np.where(matrix.packets > 0, 0, noise.packets)
        noise = TrafficMatrix(
            cleaned, matrix.labels, np.zeros(cleaned.shape, dtype=np.int8), _trusted=True
        )
    return matrix + noise
