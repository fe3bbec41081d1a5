"""The 2-D top-down view: "how they would generally see a matrix in a
spreadsheet, a textbook, or a presentation" (paper Section V).

Renders a :class:`~repro.core.TrafficMatrix` as a boxed grid — axis labels on
both edges, packet count in each cell, cell colour from the module's colour
grid.  This is the view the game opens with, and the data under every 2-D
screenshot in Figs. 5-10.
"""

from __future__ import annotations

from repro.core.traffic_matrix import TrafficMatrix
from repro.render.ansi import RESET, bg_rgb, fg_rgb

__all__ = ["render_matrix_2d", "render_matrix_compact", "CELL_RGB"]

#: Cell backgrounds per colour code, matched to the voxel palette.
CELL_RGB: dict[int, tuple[int, int, int]] = {
    0: (90, 90, 98),    # grey
    1: (58, 112, 224),  # blue
    2: (224, 64, 56),   # red
    3: (255, 200, 40),  # yellow (extended palette)
    4: (40, 160, 90),   # green (extended palette)
}

_TEXT_RGB = (240, 240, 240)

#: The escape that opens a cell, per colour code: its background, then the
#: text colour.
_CELL_OPEN: dict[int, str] = {
    code: bg_rgb(*rgb) + fg_rgb(*_TEXT_RGB) for code, rgb in CELL_RGB.items()
}

#: The plain-text colour suffix per code (``n`` = greeN, as ``g`` is grey).
_SUFFIX: dict[int, str] = {0: "g", 1: "b", 2: "r", 3: "y", 4: "n"}


def render_matrix_2d(
    matrix: TrafficMatrix,
    *,
    ansi: bool = True,
    show_zeros: bool = False,
    cell_width: int = 4,
) -> str:
    """Boxed spreadsheet view with labels, counts, and colour-coded cells.

    ``show_zeros=False`` leaves empty cells blank (matching the game's empty
    pallets); with ANSI off the colour code is shown as a one-letter suffix
    (``g``/``b``/``r``) so the structure survives in plain text.
    """
    n = matrix.n
    labels = matrix.labels
    row_w = max(len(lb) for lb in labels)
    packets = matrix.packets.tolist()
    colors = matrix.colors.tolist()

    top = " " * (row_w + 1) + "┌" + "┬".join(["─" * cell_width] * n) + "┐"
    sep = " " * (row_w + 1) + "├" + "┼".join(["─" * cell_width] * n) + "┤"
    bottom = " " * (row_w + 1) + "└" + "┴".join(["─" * cell_width] * n) + "┘"

    header_cells = " ".join(lb.center(cell_width) for lb in labels)
    lines = [" " * (row_w + 2) + header_cells, top]
    for i in range(n):
        cells: list[str] = []
        for count, code in zip(packets[i], colors[i]):
            if count == 0 and not show_zeros:
                body = ""
            elif ansi:
                body = str(count)
            else:
                body = str(count) + _SUFFIX[code]
            body = body.center(cell_width)
            cells.append(f"{_CELL_OPEN[code]}{body}{RESET}" if ansi else body)
        lines.append(labels[i].rjust(row_w) + " │" + "│".join(cells) + "│")
        lines.append(sep if i < n - 1 else bottom)
    return "\n".join(lines)


def render_matrix_compact(matrix: TrafficMatrix, *, ansi: bool = False) -> str:
    """One character per cell — digit for count (``#`` for 10+), ``·`` empty.

    The at-a-glance form used in logs and docstrings; with ANSI on, cells are
    tinted by their colour code.
    """
    lines: list[str] = []
    for i in range(matrix.n):
        row: list[str] = []
        for j in range(matrix.n):
            count = int(matrix.packets[i, j])
            ch = "·" if count == 0 else (str(count) if count < 10 else "#")
            if ansi and count:
                rgb = CELL_RGB[int(matrix.colors[i, j])]
                ch = f"{fg_rgb(*rgb)}{ch}{RESET}"
            row.append(ch)
        lines.append(" ".join(row))
    return "\n".join(lines)
