"""Axis-label handling for traffic matrices.

The paper uses a *single* list of axis labels applied to both the vertical and
horizontal axes (sources and destinations are the same endpoint population).
Labels are short, upper-case strings — "Shorter all caps labels are easier to
view in the game."  This module validates label lists and provides the two
template label sets shipped with the game (6×6 and 10×10).
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable, Sequence

from repro.errors import LabelError

__all__ = [
    "validate_labels",
    "normalize_label",
    "default_labels",
    "space_labels",
    "TEMPLATE_LABELS_6",
    "TEMPLATE_LABELS_10",
    "MAX_LABEL_LENGTH",
]

#: Labels longer than this render poorly on pallet-row signs in the game.
MAX_LABEL_LENGTH = 8

#: Axis labels of the shipped 6×6 template.
TEMPLATE_LABELS_6: tuple[str, ...] = ("WS1", "WS2", "SRV1", "EXT1", "ADV1", "ADV2")

#: Axis labels of the paper's 10×10 template (Section II listing).
TEMPLATE_LABELS_10: tuple[str, ...] = (
    "WS1", "WS2", "WS3", "SRV1",
    "EXT1", "EXT2",
    "ADV1", "ADV2", "ADV3", "ADV4",
)

_LABEL_RE = re.compile(r"^[A-Z][A-Z0-9_\-]*$")


def normalize_label(label: str) -> str:
    """Upper-case and strip a raw label, rejecting empty results."""
    norm = str(label).strip().upper()
    if not norm:
        raise LabelError("axis label may not be empty")
    return norm


def validate_labels(
    labels: Sequence[str],
    *,
    size: int | None = None,
    warn_length: bool = True,
) -> tuple[str, ...]:
    """Validate an axis-label list and return it as a tuple.

    Checks performed (mirroring the in-game loader's error paths):

    * labels are non-empty strings of ``[A-Z][A-Z0-9_-]*`` after normalisation,
    * no duplicates (each label names one endpoint),
    * when *size* is given, ``len(labels) == size`` — the game prints
      "Level data does not match number of labels!" for this case.

    ``warn_length`` keeps labels within :data:`MAX_LABEL_LENGTH` characters;
    it raises rather than warns because modules violating it render broken.

    A tuple or list of exact ``str`` is validated once per
    ``(labels, size, warn_length)`` and then served from a small memo, so a
    recurring axis (every generator's ``space_labels(n)``, a JSON header) is
    checked once per process.  Anything else — ``str`` subclasses such as
    ``np.str_`` included — takes the uncached path.  Errors are never
    memoised: a bad axis raises on every call.
    """
    if (type(labels) is tuple or type(labels) is list) and all(
        type(lb) is str for lb in labels
    ):
        return _validate_str_axis(tuple(labels), size, warn_length)
    return _validate(labels, size, warn_length)


#: Distinct axes the memo holds: every ``space_labels(n)`` a corpus uses
#: (n up to a few dozen) plus the shipped templates fit with room to spare.
_AXIS_MEMO = 64


@lru_cache(maxsize=_AXIS_MEMO)
def _validate_str_axis(
    labels: tuple[str, ...], size: int | None, warn_length: bool
) -> tuple[str, ...]:
    """:func:`_validate` over a tuple of ``str``, memoised (errors never are)."""
    return _validate(labels, size, warn_length)


def _validate(
    labels: Iterable[str], size: int | None, warn_length: bool
) -> tuple[str, ...]:
    norm = tuple(normalize_label(lb) for lb in labels)
    seen: set[str] = set()
    for lb in norm:
        if not _LABEL_RE.match(lb):
            raise LabelError(
                f"axis label {lb!r} is invalid: labels must start with a letter "
                "and contain only A-Z, 0-9, '_' or '-'"
            )
        if warn_length and len(lb) > MAX_LABEL_LENGTH:
            raise LabelError(
                f"axis label {lb!r} is {len(lb)} characters long; labels longer "
                f"than {MAX_LABEL_LENGTH} do not display well in the game"
            )
        if lb in seen:
            raise LabelError(f"duplicate axis label {lb!r}")
        seen.add(lb)
    if size is not None and len(norm) != size:
        raise LabelError(
            f"level data does not match number of labels: matrix is {size}x{size} "
            f"but {len(norm)} axis labels were given"
        )
    return norm


def default_labels(n: int) -> tuple[str, ...]:
    """Template labels for an ``n``×``n`` matrix.

    Returns the shipped 6×6 / 10×10 template label sets when they fit, and
    generic ``N1..Nn`` endpoint labels otherwise (custom sizes are allowed by
    the schema even though the game only ships 6×6 and 10×10 templates).
    """
    if n == 6:
        return TEMPLATE_LABELS_6
    if n == 10:
        return TEMPLATE_LABELS_10
    if n < 1:
        raise LabelError(f"matrix size must be positive, got {n}")
    return tuple(f"N{k}" for k in range(1, n + 1))


def space_labels(n: int) -> tuple[str, ...]:
    """Template-style labels with blue/grey/red spaces at **any** size.

    ``default_labels`` falls back to generic ``N*`` names outside the shipped
    6×6 / 10×10 templates, which leaves every endpoint in grey space — so the
    space-dependent generators (attack stages, DDoS roles, defense postures)
    cannot run at other sizes.  This helper scales the template's proportions
    instead (roughly 40% blue / 20% grey / 40% red, matching the 10×10
    template's ``WS*``+``SRV1`` / ``EXT*`` / ``ADV*`` split), so declarative
    scenario specs can realise any generator at any ``n >= 3``; the shipped
    template label sets are returned verbatim at ``n == 6`` and ``n == 10``.
    """
    if n in (6, 10):
        return default_labels(n)
    if n < 1:
        raise LabelError(f"matrix size must be positive, got {n}")
    if n == 1:
        return ("WS1",)
    if n == 2:
        return ("WS1", "ADV1")
    grey = max(1, n // 5)
    red = max(1, (2 * n) // 5)
    blue = n - grey - red
    return (
        tuple(f"WS{k}" for k in range(1, blue))
        + ("SRV1",)
        + tuple(f"EXT{k}" for k in range(1, grey + 1))
        + tuple(f"ADV{k}" for k in range(1, red + 1))
    )


def label_indices(labels: Sequence[str], wanted: Iterable[str]) -> list[int]:
    """Map a list of labels to their axis indices, raising on unknown names."""
    index = {lb: i for i, lb in enumerate(labels)}
    out: list[int] = []
    for w in wanted:
        try:
            out.append(index[normalize_label(w)])
        except KeyError:
            raise LabelError(f"unknown axis label {w!r}") from None
    return out
