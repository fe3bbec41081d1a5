"""Declarative specs and the fluent builder: JSON round trips, provenance,
classification round trips, validation errors."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ScenarioError, ScenarioSpecError, ShapeError
from repro.graphs.classify import classify_spec
from repro.scenarios import (
    NoiseSpec,
    OverlaySpec,
    ScenarioBuilder,
    ScenarioSpec,
    scenario_names,
)


class TestBuilder:
    def test_issue_example_shape(self):
        matrix = (
            ScenarioBuilder()
            .base("star", n=12)
            .with_noise(density=0.05)
            .overlay("ddos_attack")
            .seed(7)
            .build()
        )
        assert matrix.n == 12
        assert matrix.nnz() > 0

    def test_builder_equals_spec(self):
        built = ScenarioBuilder().base("ring", packets=2).size(8).seed(3).build()
        spec = ScenarioSpec(base="ring", params={"packets": 2}, n=8, seed=3)
        assert built == spec.build()

    def test_builder_requires_base(self):
        with pytest.raises(ScenarioSpecError, match="base generator"):
            ScenarioBuilder().seed(1).spec()

    def test_builder_rejects_unknown_generator_eagerly(self):
        with pytest.raises(ScenarioError):
            ScenarioBuilder().base("not_a_generator")

    def test_builder_rejects_unknown_param_eagerly(self):
        with pytest.raises(ScenarioError, match="does not accept"):
            ScenarioBuilder().base("ring", hub=2)
        with pytest.raises(ScenarioError, match="does not accept"):
            ScenarioBuilder().base("ring").overlay("star", hub=2)

    def test_builder_rejects_bad_size(self):
        with pytest.raises(ScenarioSpecError, match="n must be"):
            ScenarioBuilder().base("ring").size(0)


class TestProvenance:
    def test_built_matrix_carries_its_spec(self):
        spec = ScenarioSpec(base="clique", n=6, seed=11)
        matrix = spec.build()
        assert matrix.meta["scenario"] == spec.to_dict()

    def test_provenance_rebuilds_the_same_matrix(self):
        spec = (
            ScenarioBuilder()
            .base("bipartite")
            .overlay("background_noise", density=0.2)
            .seed(21)
            .spec()
        )
        matrix = spec.build()
        rebuilt = ScenarioSpec.from_dict(matrix.meta["scenario"]).build()
        assert rebuilt == matrix
        assert rebuilt.meta == matrix.meta

    def test_meta_survives_with_meta_but_not_algebra(self):
        matrix = ScenarioSpec(base="ring").build()
        tagged = matrix.with_meta(note="x")
        assert tagged.meta == {**matrix.meta, "note": "x"}
        assert (matrix + matrix).meta == {}
        assert tagged == matrix  # meta is not part of matrix value


class TestJsonRoundTrip:
    def test_explicit_round_trip(self):
        spec = ScenarioSpec(
            base="star",
            params={"center": 2, "packets": 3},
            n=10,
            seed=42,
            noise=NoiseSpec(density=0.2, max_packets=3, preserve_pattern=False),
            overlays=(OverlaySpec("self_loops", {"packets": 2}),),
        )
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec
        assert again.build() == spec.build()

    def test_json_document_is_plain_and_versioned(self):
        doc = json.loads(ScenarioSpec(base="mesh", seed=5).to_json())
        assert doc["spec_version"] == 1
        assert doc["base"] == "mesh"

    def test_non_json_params_rejected_with_clear_error(self):
        spec = ScenarioSpec(base="mesh", params={"dims": {2, 5}})
        with pytest.raises(ScenarioSpecError, match="non-JSON"):
            spec.to_json()

    @settings(max_examples=40, deadline=None)
    @given(
        base=st.sampled_from(["star", "ring", "clique", "security", "planning",
                              "ddos_attack", "isolated_links", "background_noise"]),
        n=st.integers(min_value=5, max_value=16),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        packets=st.integers(min_value=1, max_value=9),
        density=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        with_noise=st.booleans(),
        overlay=st.sampled_from([None, "self_loops", "background_noise"]),
    )
    def test_property_round_trip(self, base, n, seed, packets, density, with_noise, overlay):
        """Satellite: hypothesis ScenarioSpec -> to_json -> from_json -> build equality."""
        builder = ScenarioBuilder().base(base).size(n).seed(seed)
        if base not in ("background_noise",):
            builder = ScenarioBuilder().base(base, packets=packets).size(n).seed(seed)
        if with_noise:
            builder.with_noise(density=density)
        if overlay:
            builder.overlay(overlay)
        spec = builder.spec()
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec
        assert again.build() == spec.build()


class TestSpecValidation:
    def test_unknown_base_generator(self):
        with pytest.raises(ScenarioError, match="unknown scenario generator"):
            ScenarioSpec(base="warp_drive").build()

    def test_unknown_param_named_in_error(self):
        with pytest.raises(ScenarioError, match="does not accept"):
            ScenarioSpec(base="ring", params={"spokes": 3}).build()

    def test_bad_size(self):
        with pytest.raises(ScenarioSpecError, match="n must be"):
            ScenarioSpec(base="ring", n=0).validate()

    def test_size_in_params_rejected_at_validate_time(self):
        # 'n' smuggled into params would clash with the spec-level size and
        # injected labels; it must fail fast, not mid-batch-fan-out
        with pytest.raises(ScenarioSpecError, match="'n' field"):
            ScenarioSpec(base="star", params={"n": 5}, n=10).validate()
        with pytest.raises(ScenarioSpecError, match="'n' field"):
            ScenarioSpec(base="star", overlays=(OverlaySpec("ring", {"n": 4}),)).validate()
        with pytest.raises(ScenarioSpecError, match="size"):
            ScenarioBuilder().base("star").overlay("ring", n=4)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ScenarioSpecError, match="unknown spec field"):
            ScenarioSpec.from_dict({"base": "ring", "extra_field": 1})

    def test_from_dict_rejects_future_versions(self):
        with pytest.raises(ScenarioSpecError, match="spec_version"):
            ScenarioSpec.from_dict({"base": "ring", "spec_version": 99})

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ScenarioSpecError, match="not valid JSON"):
            ScenarioSpec.from_json("{nope")

    def test_overlay_document_needs_name(self):
        with pytest.raises(ScenarioSpecError, match="'name'"):
            ScenarioSpec.from_dict({"base": "ring", "overlays": [{"params": {}}]})

    def test_undersized_n_caught_at_validation(self):
        # a ring needs 3 vertices; the registry's min_n catches it up front
        with pytest.raises(ScenarioSpecError, match="needs n >= 3"):
            ScenarioSpec(base="ring", n=2).build()

    def test_generator_level_errors_still_surface(self):
        # dims consistency is a body-level check the schema cannot express
        with pytest.raises(ShapeError):
            ScenarioSpec(base="mesh", n=6, params={"dims": [2, 2]}).build()


class TestDeterminism:
    def test_same_seed_same_matrix(self):
        spec = ScenarioSpec(base="security", seed=9, noise=NoiseSpec(density=0.3))
        assert spec.build() == spec.build()

    def test_different_seeds_differ(self):
        a = ScenarioSpec(base="security", seed=1, noise=NoiseSpec(density=0.3)).build()
        b = ScenarioSpec(base="security", seed=2, noise=NoiseSpec(density=0.3)).build()
        assert a != b

    def test_noise_layers_get_distinct_streams(self):
        spec = ScenarioSpec(
            base="background_noise",
            params={"density": 0.3},
            overlays=(OverlaySpec("background_noise", {"density": 0.3}),),
            seed=4,
        )
        layered = spec.build()
        single = ScenarioSpec(
            base="background_noise", params={"density": 0.3}, seed=4
        ).build()
        assert layered.total_packets() > single.total_packets()

    def test_noise_preserves_planted_pattern(self):
        spec = ScenarioSpec(base="star", params={"packets": 5}, seed=3,
                            noise=NoiseSpec(density=0.5))
        noisy = spec.build()
        clean = ScenarioSpec(base="star", params={"packets": 5}).build()
        mask = clean.packets > 0
        assert (noisy.packets[mask] == clean.packets[mask]).all()


class TestClassifyRoundTrip:
    @pytest.mark.parametrize("name", sorted(scenario_names(family="pattern")))
    def test_pattern_specs_classify_back(self, name):
        assert classify_spec(ScenarioSpec(base=name)) == name

    @pytest.mark.parametrize(
        "name", ["isolated_links", "single_links", "internal_supernode", "external_supernode"]
    )
    def test_topology_specs_classify_back(self, name):
        assert classify_spec(ScenarioSpec(base=name)) == name

    @pytest.mark.parametrize("name", [
        "planning", "staging", "infiltration", "lateral_movement",
        "security", "defense_pattern", "deterrence",
        "command_and_control", "botnet_clients", "ddos_attack", "backscatter",
    ])
    def test_scenario_specs_classify_back(self, name):
        """spec -> matrix -> classify_scenario round trip, registry vocabulary."""
        assert classify_spec(ScenarioSpec(base=name)) == name
