"""The extended colour palette (paper future work) end to end."""

import numpy as np
import pytest

from repro.core.colors import EXTENDED_COLOR_CODES, validate_color_grid
from repro.core.traffic_matrix import TrafficMatrix
from repro.errors import ColorError, ModuleSchemaError
from repro.modules.loader import loads_module
from repro.modules.schema import validate_module_dict
from repro.modules.templates import template_10x10_dict


def extended_matrix() -> TrafficMatrix:
    packets = np.zeros((4, 4), dtype=np.int64)
    packets[0, 1] = 2
    packets[1, 2] = 1
    colors = np.asarray([[0, 3, 0, 0], [0, 0, 4, 0], [1, 0, 0, 2], [0, 0, 0, 0]])
    return TrafficMatrix(packets, ["A", "B", "C", "D"], colors, extended_colors=True)


class TestValidation:
    def test_standard_rejects_extended_codes(self):
        with pytest.raises(ColorError, match="invalid code 3"):
            validate_color_grid(np.asarray([[3]]))

    def test_extended_accepts_new_codes(self):
        grid = validate_color_grid(np.asarray([[3, 4]]), extended=True)
        assert grid.tolist() == [[3, 4]]

    def test_extended_still_bounds_codes(self):
        with pytest.raises(ColorError, match="invalid code 5"):
            validate_color_grid(np.asarray([[5]]), extended=True)

    def test_codes_superset(self):
        assert set(EXTENDED_COLOR_CODES) == {0, 1, 2, 3, 4}


class TestTrafficMatrix:
    def test_constructor_gate(self):
        colors = [[3, 0], [0, 0]]
        with pytest.raises(ColorError):
            TrafficMatrix([[0, 0], [0, 0]], ["A", "B"], colors)
        m = TrafficMatrix([[0, 0], [0, 0]], ["A", "B"], colors, extended_colors=True)
        assert m.extended_colors

    def test_with_colors_gate(self):
        m = extended_matrix()
        colors = np.array(m.colors)
        colors[0, 1] = 4
        assert int(m.with_colors(colors).colors[0, 1]) == 4
        standard = TrafficMatrix.zeros(2, labels=["A", "B"])
        with pytest.raises(ColorError):
            standard.with_colors([[0, 3], [0, 0]])

    def test_flag_propagates_through_algebra(self):
        m = extended_matrix()
        assert (m + m).extended_colors
        assert (m * 2).extended_colors
        assert m.T.extended_colors
        assert m.with_meta(k=1).extended_colors
        assert m.submatrix(["A", "B"]).extended_colors

    def test_to_text_suffixes(self):
        text = extended_matrix().to_text(show_colors=True)
        assert "2y" in text and "1n" in text


class TestSchema:
    def doc(self):
        doc = template_10x10_dict()
        doc["color_mode"] = "extended"
        doc["traffic_matrix_colors"][4][4] = 3
        doc["traffic_matrix_colors"][5][5] = 4
        return doc

    def test_extended_mode_accepted(self):
        module = validate_module_dict(self.doc())
        assert module.matrix.extended_colors
        assert int(module.matrix.colors[4, 4]) == 3

    def test_standard_mode_rejects_with_hint(self):
        doc = self.doc()
        del doc["color_mode"]
        with pytest.raises(ModuleSchemaError, match="color_mode"):
            validate_module_dict(doc)

    def test_bad_mode_string(self):
        doc = self.doc()
        doc["color_mode"] = "rainbow"
        with pytest.raises(ModuleSchemaError, match="rainbow"):
            validate_module_dict(doc)

    def test_round_trip_preserves_mode(self):
        module = validate_module_dict(self.doc())
        back = loads_module(module.to_json())
        assert back.matrix.extended_colors
        assert np.array_equal(back.matrix.colors, module.matrix.colors)

    def test_standard_module_emits_no_mode_field(self, tpl10):
        assert "color_mode" not in tpl10.to_json_dict()


class TestGameDegradation:
    def test_paper_script_renders_extended_codes_black(self):
        """The original GDScript matches only 0/1/2; extended codes must fall
        through to the ``_:`` black-material arm — graceful degradation."""
        from repro.game.warehouse import WarehouseLevel
        from repro.modules.builder import ModuleBuilder

        n = 6
        packets = np.zeros((n, n), dtype=np.int64)
        colors = np.zeros((n, n), dtype=np.int64)
        colors[0, 0] = 3  # yellow — unknown to the classic script
        colors[0, 1] = 1
        matrix = TrafficMatrix(packets, colors=colors, extended_colors=True)
        module = ModuleBuilder("Extended").matrix(matrix).build()
        level = WarehouseLevel(module)
        level.toggle_pallet_colors()
        assert level.pallet(0, 0).get_child(0).material_override.albedo == "black"
        assert level.pallet(0, 1).get_child(0).material_override.albedo == "blue"

    def test_renderer_understands_extended_codes(self):
        from repro.render.ascii2d import CELL_RGB, render_matrix_2d

        assert 3 in CELL_RGB and 4 in CELL_RGB
        out = render_matrix_2d(extended_matrix(), ansi=True, show_zeros=True)
        # the yellow cell's background escape appears
        r, g, b = CELL_RGB[3]
        assert f"\x1b[48;2;{r};{g};{b}m" in out

    def test_extended_materials_preloadable(self):
        from repro.engine.resources import preload

        assert preload("res://Assets/Objects/pallet_material_yellow.tres").albedo == "yellow"
        assert preload("res://Assets/Objects/pallet_material_green.tres").albedo == "green"
