"""Pallet colour palette used by learning modules.

The paper's JSON field ``traffic_matrix_colors`` assigns one of three codes to
every matrix cell: grey (``0``), blue (``1``) or red (``2``).  The in-game
GDScript ``match`` statement additionally falls back to a *black* material for
any unrecognised code; that fallback is preserved here so the engine layer can
reproduce the behaviour of the paper's ``change_pallet_color`` listing exactly.
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np

from repro.errors import ColorError

__all__ = [
    "PalletColor",
    "COLOR_CODES",
    "color_name",
    "material_for_code",
    "validate_color_grid",
    "ansi_for_code",
]


class PalletColor(IntEnum):
    """Colour code of a pallet (one matrix cell) on the warehouse floor.

    The integer values match the paper's JSON encoding, so
    ``PalletColor(grid[i][j])`` converts a raw JSON entry directly.
    """

    GREY = 0
    BLUE = 1
    RED = 2

    @property
    def material(self) -> str:
        """Name of the Godot material resource the paper preloads for this code."""
        return _MATERIALS[int(self)]

    @property
    def ansi(self) -> str:
        """ANSI SGR escape prefix used by the terminal renderer."""
        return _ANSI[int(self)]


#: All JSON colour codes accepted by the standard schema.
COLOR_CODES = tuple(int(c) for c in PalletColor)

#: Extended palette (paper future work: "expanding the range of colors and
#: materials").  Codes 3 (yellow — caution/quarantine) and 4 (green —
#: verified-benign) join the classic three.  Modules opt in with
#: ``"color_mode": "extended"``; the original in-game GDScript, which matches
#: only 0/1/2, renders them with its black fallback material — the documented
#: graceful degradation on an old client.
EXTENDED_COLOR_CODES = COLOR_CODES + (3, 4)

#: Names for the extended codes (classic codes come from :class:`PalletColor`).
EXTENDED_NAMES = {3: "yellow", 4: "green"}

_MATERIALS = {
    0: "res://Assets/Objects/pallet_material_g.tres",
    1: "res://Assets/Objects/pallet_material_b.tres",
    2: "res://Assets/Objects/pallet_material_r.tres",
    3: "res://Assets/Objects/pallet_material_yellow.tres",
    4: "res://Assets/Objects/pallet_material_green.tres",
}

#: Material used by the GDScript ``_:`` fallback arm for unknown codes.
FALLBACK_MATERIAL = "res://Assets/Objects/pallet_material_black.tres"

#: Material of an uncoloured (default) pallet.
DEFAULT_MATERIAL = "res://Assets/Objects/pallet_material.tres"

_ANSI = {
    0: "\x1b[90m",  # bright black / grey
    1: "\x1b[94m",  # bright blue
    2: "\x1b[91m",  # bright red
    3: "\x1b[93m",  # bright yellow (extended)
    4: "\x1b[92m",  # bright green (extended)
}

_ANSI_FALLBACK = "\x1b[30m"  # black


def color_name(code: int) -> str:
    """Human-readable name for a colour code (``"grey"``, ``"blue"``, ...).

    Covers the extended palette; genuinely unknown codes map to ``"black"``,
    mirroring the game's fallback material.
    """
    try:
        return PalletColor(code).name.lower()
    except ValueError:
        return EXTENDED_NAMES.get(int(code), "black")


def material_for_code(code: int) -> str:
    """Material resource path for *code*, with the game's black fallback."""
    return _MATERIALS.get(int(code), FALLBACK_MATERIAL)


def ansi_for_code(code: int) -> str:
    """ANSI escape prefix for *code*, with a black fallback."""
    return _ANSI.get(int(code), _ANSI_FALLBACK)


def validate_color_grid(
    grid: np.ndarray, *, strict: bool = True, extended: bool = False
) -> np.ndarray:
    """Validate a colour grid and return it as a C-contiguous ``int8`` array.

    Parameters
    ----------
    grid:
        2-D array of colour codes.
    strict:
        When true (the default, matching the module schema) any code outside
        the allowed set raises :class:`~repro.errors.ColorError`.  When false,
        out-of-range codes are kept as-is — the renderer will draw them black,
        matching the in-game fallback.
    extended:
        Allow the extended palette (:data:`EXTENDED_COLOR_CODES`) instead of
        the classic ``{0, 1, 2}``.
    """
    arr = np.ascontiguousarray(grid, dtype=np.int64)
    if arr.ndim != 2:
        raise ColorError(f"colour grid must be 2-D, got {arr.ndim}-D")
    allowed = EXTENDED_COLOR_CODES if extended else COLOR_CODES
    # the allowed codes are contiguous from 0, so a range check suffices
    top = allowed[-1]
    if strict and arr.size and (arr.min() < 0 or arr.max() > top):
        i, j = np.argwhere((arr < 0) | (arr > top))[0]
        raise ColorError(
            f"colour grid contains invalid code {int(arr[i, j])} at "
            f"({int(i)}, {int(j)}); allowed codes are {sorted(allowed)}"
        )
    return arr.astype(np.int8)
