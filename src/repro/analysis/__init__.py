"""Anonymized and streaming traffic analytics (refs [16]-[19], [50])."""

from repro.analysis.anonymize import anonymize_assoc, anonymize_label, anonymize_matrix
from repro.analysis.stats import ScalingFit, scaling_relation, synthetic_traffic
from repro.analysis.streaming import (
    StreamAccumulator,
    WindowStats,
    merge_windows,
    scenario_stream,
    window_stream,
)

__all__ = [
    "anonymize_label",
    "anonymize_matrix",
    "anonymize_assoc",
    "StreamAccumulator",
    "WindowStats",
    "window_stream",
    "scenario_stream",
    "merge_windows",
    "ScalingFit",
    "scaling_relation",
    "synthetic_traffic",
]
