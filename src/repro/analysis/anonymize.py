"""Anonymized traffic analysis (the lineage of refs [16]-[19]).

The GraphBLAS deployments the paper cites analyse traffic *without* exposing
endpoint identities: labels are hashed before matrices leave the collection
point, and all analytics run on the hashed keys.  This module provides that
primitive for both :class:`~repro.core.TrafficMatrix` and
:class:`~repro.assoc.AssociativeArray`, with a deterministic keyed hash so
the same endpoint anonymises identically across matrices (joins still work)
while unkeyed rainbow lookups don't.
"""

from __future__ import annotations

import hashlib

from repro.assoc.array import AssociativeArray
from repro.core.traffic_matrix import TrafficMatrix

__all__ = ["anonymize_label", "anonymize_matrix", "anonymize_assoc"]


def anonymize_label(label: str, *, key: str = "", length: int = 7) -> str:
    """Keyed SHA-256 pseudonym for an endpoint label.

    The pseudonym starts with ``H`` so it is a valid axis label, and keeps
    *length* hex characters.  The default of 7 keeps pseudonyms within the
    8-character display guidance (28 bits — ample for classroom populations;
    use :func:`anonymize_assoc` with longer keys for large key spaces).
    """
    digest = hashlib.sha256(f"{key}|{label}".encode("utf-8")).hexdigest()
    return ("H" + digest[:length]).upper()


def anonymize_matrix(matrix: TrafficMatrix, *, key: str = "") -> TrafficMatrix:
    """The same traffic with hashed labels (pattern and colours unchanged).

    Label order follows the original axis, so cell positions — and therefore
    every pattern signature the modules teach — are preserved exactly.
    """
    new_labels = [anonymize_label(lb, key=key) for lb in matrix.labels]
    return TrafficMatrix(
        matrix.packets, new_labels, matrix.colors, extended_colors=matrix.extended_colors
    )


def anonymize_assoc(array: AssociativeArray, *, key: str = "") -> AssociativeArray:
    """Hash every row/column key of an associative array.

    Values are untouched; collisions (astronomically unlikely at 40+ bits)
    would merge by summation, matching the streaming accumulators' semantics.
    """
    return array.relabel(
        row_map=lambda lb: anonymize_label(lb, key=key),
        col_map=lambda lb: anonymize_label(lb, key=key),
    )
