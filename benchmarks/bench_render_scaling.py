"""Ablation — renderer scaling with matrix size, 2-D vs 3-D views.

The game ships 6×6 and 10×10 templates; this bench measures how far the
software rasteriser stretches (up to 24×24) and the relative cost of the two
views.  Expected shape: 3-D render time grows about linearly with the
voxels drawn (O(n²) pallets plus their boxes).  Each asset's voxel cloud is
built once and cached, so a frame is one scene walk and one vectorised
scale-and-translate, then the depth sort and rasterisation (about half the
frame).  On a 2-vCPU x86 VM a 10×10 3-D frame takes about 5 ms (13 ms when
every frame re-derived each instance's voxels).  The 2-D spreadsheet view is
cheap string assembly by comparison.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import format_table, write_artifact

from repro.core.traffic_matrix import TrafficMatrix
from repro.game.warehouse import WarehouseLevel
from repro.modules.builder import ModuleBuilder
from repro.render.ascii2d import render_matrix_2d


def module_of_size(n: int):
    rng = np.random.default_rng(n)
    packets = np.where(rng.random((n, n)) < 0.15, rng.integers(1, 4, (n, n)), 0)
    matrix = TrafficMatrix(packets)
    return ModuleBuilder(f"Scale {n}x{n}").matrix(matrix).build()


def test_render_scaling(benchmark, artifacts):
    sizes = (6, 10, 16, 24)
    rows = []
    for n in sizes:
        level = WarehouseLevel(module_of_size(n))
        level.place_all_packets()

        t0 = time.perf_counter()
        render_matrix_2d(level.module.matrix, ansi=True)
        t_2d = time.perf_counter() - t0

        level.toggle_view()
        t0 = time.perf_counter()
        level.render_ascii(width=100, height=36)
        t_3d = time.perf_counter() - t0

        rows.append([f"{n}x{n}", f"{t_2d * 1e3:.2f} ms", f"{t_3d * 1e3:.2f} ms"])

    # timed target: the paper's 10x10 in 3-D
    level10 = WarehouseLevel(module_of_size(10))
    level10.place_all_packets()
    level10.toggle_view()
    buf = benchmark(level10.render_ascii, width=100, height=36)
    assert "█" in buf.to_plain()

    body = format_table(["matrix", "2-D view", "3-D view"], rows) + (
        "\n\nshape: 3-D cost grows with voxel count (O(n^2) pallets); the 2-D "
        "spreadsheet view stays near-constant."
    )
    write_artifact(artifacts / "render_scaling.txt", "Ablation: renderer scaling", body)
