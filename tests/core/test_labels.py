"""Axis-label validation and the shipped template label sets."""

import numpy as np
import pytest

from repro.core.labels import (
    MAX_LABEL_LENGTH,
    TEMPLATE_LABELS_6,
    TEMPLATE_LABELS_10,
    default_labels,
    label_indices,
    normalize_label,
    _validate_str_axis,
    validate_labels,
)
from repro.errors import LabelError


class TestNormalize:
    def test_uppercases_and_strips(self):
        assert normalize_label("  ws1 ") == "WS1"

    def test_empty_raises(self):
        with pytest.raises(LabelError):
            normalize_label("   ")


class TestValidateLabels:
    def test_template_labels_pass(self):
        assert validate_labels(TEMPLATE_LABELS_10) == TEMPLATE_LABELS_10

    def test_lowercase_normalised(self):
        assert validate_labels(["ws1", "adv1"]) == ("WS1", "ADV1")

    def test_duplicate_rejected(self):
        with pytest.raises(LabelError, match="duplicate"):
            validate_labels(["WS1", "ws1"])

    def test_size_mismatch_uses_game_error_text(self):
        with pytest.raises(LabelError, match="does not match number of labels"):
            validate_labels(["WS1", "WS2"], size=3)

    def test_too_long_rejected(self):
        with pytest.raises(LabelError, match=str(MAX_LABEL_LENGTH)):
            validate_labels(["WORKSTATION1"])

    def test_bad_characters_rejected(self):
        with pytest.raises(LabelError, match="invalid"):
            validate_labels(["WS 1"])

    def test_leading_digit_rejected(self):
        with pytest.raises(LabelError, match="invalid"):
            validate_labels(["1WS"])

    def test_underscore_and_dash_allowed(self):
        assert validate_labels(["A_B", "A-B"]) == ("A_B", "A-B")


class TestValidateLabelsMemo:
    """A tuple or list of exact ``str`` is validated once, then memoised."""

    def test_bad_axis_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(LabelError, match="duplicate"):
                validate_labels(("WS1", "ws1"))
            with pytest.raises(LabelError, match="does not match"):
                validate_labels(["WS1", "WS2"], size=3)

    def test_list_and_tuple_inputs_agree_and_share_the_memo(self):
        axis = ("WS1", "SRV1", "EXT1", "ADV1")
        first = validate_labels(axis, size=4)
        hits = _validate_str_axis.cache_info().hits
        assert validate_labels(list(axis), size=4) == first == axis
        assert _validate_str_axis.cache_info().hits == hits + 1

    def test_lowercase_input_comes_back_normalised_every_time(self):
        for _ in range(2):
            assert validate_labels(("ws1", " adv1")) == ("WS1", "ADV1")
            assert validate_labels(["ws1", " adv1"]) == ("WS1", "ADV1")

    def test_str_subclasses_take_the_uncached_path(self):
        class Alias(str):
            def __str__(self):
                return "ALT"

        assert validate_labels(("ws1",)) == ("WS1",)  # memoised, equal key
        before = _validate_str_axis.cache_info()
        assert validate_labels((Alias("ws1"),)) == ("ALT",)
        assert validate_labels([np.str_("ws1")]) == ("WS1",)
        assert _validate_str_axis.cache_info() == before

    def test_memo_stays_bounded(self):
        for n in range(1, 200):
            validate_labels(tuple(f"N{k}" for k in range(1, n + 1)), size=n)
        info = _validate_str_axis.cache_info()
        assert info.currsize <= info.maxsize == 64


class TestDefaultLabels:
    def test_size_6_is_template(self):
        assert default_labels(6) == TEMPLATE_LABELS_6

    def test_size_10_is_paper_template(self):
        assert default_labels(10) == TEMPLATE_LABELS_10
        assert default_labels(10)[0] == "WS1"
        assert default_labels(10)[-1] == "ADV4"

    def test_other_sizes_generic(self):
        assert default_labels(3) == ("N1", "N2", "N3")

    def test_generic_labels_unique(self):
        labels = default_labels(40)
        assert len(set(labels)) == 40

    def test_nonpositive_raises(self):
        with pytest.raises(LabelError):
            default_labels(0)


class TestLabelIndices:
    def test_maps_by_name(self):
        assert label_indices(TEMPLATE_LABELS_10, ["WS1", "ADV4"]) == [0, 9]

    def test_normalises_lookups(self):
        assert label_indices(TEMPLATE_LABELS_10, ["ws1"]) == [0]

    def test_unknown_raises(self):
        with pytest.raises(LabelError, match="NOPE"):
            label_indices(TEMPLATE_LABELS_10, ["NOPE"])
