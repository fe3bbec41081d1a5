"""Scenario registry: coverage of every generator, schemas, tags, errors."""

import importlib

import pytest

from repro.errors import ScenarioError
from repro.graphs import attack, ddos, patterns, topologies
from repro.scenarios import (
    SCENARIO_FAMILIES,
    SCENARIO_REGISTRY,
    get_generator,
    parameter_schema,
    register_scenario,
    scenario_names,
)

defense = importlib.import_module("repro.graphs.defense")


class TestCoverage:
    def test_every_graphs_generator_is_registered(self):
        """Acceptance: every generator exported from repro.graphs is reachable
        via SCENARIO_REGISTRY by name (defense under its canonical name)."""
        expected = (
            set(patterns.PATTERN_GENERATORS)
            | set(topologies.TOPOLOGY_GENERATORS)
            | {"template_matrix"}
            | set(attack.ATTACK_STAGES)
            | {"full_attack"}
            | (set(ddos.DDOS_COMPONENTS) | {"full_ddos"})
            | {"security", "deterrence", "full_posture", "defense_pattern"}
            | {"background_noise"}
        )
        assert expected <= set(scenario_names())

    def test_registered_callable_is_the_generator_itself(self):
        assert get_generator("star").func is patterns.star
        assert get_generator("defense_pattern").func is defense.defense

    def test_families_cover_the_paper_figures(self):
        assert set(SCENARIO_FAMILIES) == {
            "pattern", "topology", "attack", "defense", "ddos", "noise",
        }
        for info in SCENARIO_REGISTRY.values():
            assert info.family in SCENARIO_FAMILIES

    @pytest.mark.parametrize("name", sorted(
        set(patterns.PATTERN_GENERATORS)
        | set(topologies.TOPOLOGY_GENERATORS)
        | set(attack.ATTACK_STAGES)
        | set(ddos.DDOS_COMPONENTS)
    ))
    def test_registry_call_matches_direct_call(self, name):
        assert get_generator(name).func(10) == SCENARIO_REGISTRY[name].func(10)


class TestSchemas:
    def test_every_entry_has_an_introspectable_schema(self):
        """Acceptance: parameter schemas are introspectable for all entries."""
        for name in scenario_names():
            schema = parameter_schema(name)
            assert schema["name"] == name
            assert schema["family"]
            param_names = [p["name"] for p in schema["params"]]
            assert "n" in param_names
            for p in schema["params"]:
                assert isinstance(p["required"], bool)
                if not p["required"]:
                    assert "default" in p

    def test_star_schema_details(self):
        info = get_generator("star")
        assert info.param("n").default == 10
        assert info.param("center").keyword_only
        assert not info.param("packets").required
        assert info.display == "Star graph"

    def test_validate_params_rejects_unknown_names(self):
        with pytest.raises(ScenarioError, match="does not accept"):
            get_generator("ring").validate_params({"hub": 3})

    def test_param_lookup_error_lists_accepted(self):
        with pytest.raises(ScenarioError, match="accepted"):
            get_generator("ring").param("nope")


class TestAliasesAndEagerness:
    def test_registry_is_populated_at_package_import(self):
        import subprocess
        import sys

        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.scenarios import SCENARIO_REGISTRY; print(len(SCENARIO_REGISTRY))"],
            capture_output=True, text=True,
        )
        assert int(out.stdout.strip()) >= 29, out.stderr

    def test_get_generator_resolves_the_defense_alias(self):
        from repro.scenarios import REGISTRY_ALIASES

        assert REGISTRY_ALIASES["defense"] == "defense_pattern"
        assert get_generator("defense") is get_generator("defense_pattern")
        assert get_generator("defense").name == "defense_pattern"


class TestSelection:
    def test_family_filter(self):
        assert set(scenario_names(family="topology")) == {
            "isolated_links", "single_links", "internal_supernode",
            "external_supernode", "template_matrix",
        }

    def test_tag_filter(self):
        composites = set(scenario_names(tags=("composite",)))
        assert composites == {"full_attack", "full_ddos", "full_posture"}

    def test_tag_and_family_filter(self):
        assert set(scenario_names(family="ddos", tags=("botnet",))) == {
            "command_and_control", "botnet_clients", "ddos_attack", "backscatter",
        }


class TestErrors:
    def test_unknown_name_suggests_close_matches(self):
        with pytest.raises(ScenarioError, match="did you mean"):
            get_generator("strar")

    def test_unknown_name_lists_known(self):
        with pytest.raises(ScenarioError, match="known:"):
            get_generator("definitely_not_a_generator")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ScenarioError, match="already registered"):
            register_scenario("star", family="pattern")(lambda n=10: None)

    def test_unknown_family_rejected(self):
        with pytest.raises(ScenarioError, match="unknown scenario family"):
            register_scenario("whatever", family="nonsense")
