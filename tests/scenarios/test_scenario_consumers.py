"""Consumers of the scenario API: module builder, library catalogue,
curriculum generation, streaming, deprecation shims, uniform validation."""

import warnings

import pytest

import repro.graphs
from repro.analysis.streaming import scenario_stream
from repro.errors import ShapeError
from repro.game.curriculum_session import CurriculumSession
from repro.game.players import AnalystPlayer
from repro.graphs.compose import overlay
from repro.modules.builder import ModuleBuilder, pattern_question, scenario_module
from repro.modules.library import DISPLAY_NAMES, builtin_catalog
from repro.scenarios import ScenarioBuilder, ScenarioSpec, get_generator, scenario_names


class TestModuleBuilderIntegration:
    def test_builder_scenario_attaches_matrix_and_provenance(self):
        spec = ScenarioSpec(base="star", seed=5)
        module = ModuleBuilder("Star").scenario(spec).build()
        assert module.matrix == spec.build()
        assert module.extra["scenario"] == spec.to_dict()

    def test_builder_accepts_a_scenario_builder(self):
        module = ModuleBuilder("Ring").scenario(ScenarioBuilder().base("ring")).build()
        assert module.matrix == ScenarioSpec(base="ring").build()

    def test_pattern_question_defaults_from_registry(self):
        q = pattern_question("ring")
        assert q.answers[0] == "Ring"
        assert len(q.answers) == 3
        # distractors come from the same family, in registry order
        family_displays = {get_generator(n).display for n in scenario_names(family="pattern")}
        assert set(q.answers) <= family_displays

    def test_pattern_question_registry_excludes_composites(self):
        q = pattern_question("backscatter")
        assert "Full DDoS" not in q.answers

    def test_pattern_question_accepts_catalogue_vocabulary(self):
        # explicit family in catalogue names ('defense', not 'defense_pattern')
        # with display left to the registry default
        q = pattern_question("defense", ["security", "defense", "deterrence"])
        assert q.answers[0] == "Defense (walls-out)"

    def test_scenario_module_one_call(self):
        module = scenario_module(ScenarioSpec(base="ddos_attack", seed=1))
        assert module.name == "DDoS attack"
        assert module.has_question
        assert module.question.answers[0] == "DDoS attack"
        assert module.extra["scenario"]["base"] == "ddos_attack"

    def test_scenario_module_composites_get_no_question(self):
        module = scenario_module(ScenarioSpec(base="full_attack"))
        assert not module.has_question

    def test_scenario_module_reuses_prebuilt_matrix(self):
        spec = ScenarioSpec(base="clique", seed=2)
        matrix = spec.build()
        module = scenario_module(spec, matrix=matrix)
        assert module.matrix is matrix
        assert module.extra["scenario"] == spec.to_dict()


class TestLibraryIntegration:
    def test_display_names_derive_from_registry(self):
        assert DISPLAY_NAMES["star"] == "Star graph"
        assert DISPLAY_NAMES["defense"] == DISPLAY_NAMES["defense_pattern"]

    def test_builtin_catalog_modules_carry_provenance(self):
        cat = builtin_catalog()
        module = cat["graph_theory/star"]
        assert module.extra["scenario"]["base"] == "star"
        assert cat["defense/defense"].extra["scenario"]["base"] == "defense_pattern"

    def test_catalog_matrices_rebuild_from_their_specs(self):
        cat = builtin_catalog()
        for key in ("topologies/isolated_links", "ddos/backscatter", "attack/staging"):
            spec = ScenarioSpec.from_dict(cat[key].extra["scenario"])
            assert spec.build() == cat[key].matrix


class TestCurriculumFromSpecs:
    def test_units_and_gating(self):
        session = CurriculumSession.from_specs(
            {
                "Patterns": [ScenarioSpec(base="star"), ScenarioSpec(base="ring")],
                "Attack": [ScenarioSpec(base="infiltration")],
            },
            seed=7,
        )
        titles = [u.title for u in session.curriculum.root.iter_units()]
        assert titles == ["Scenario Curriculum", "Patterns", "Attack"]
        assert session.curriculum.unit("Attack").requires == ("Patterns",)
        assert session.curriculum.unit("Patterns").question_count() == 2

    def test_module_numbering_is_per_unit(self):
        session = CurriculumSession.from_specs(
            {
                "A": [ScenarioSpec(base="star"), ScenarioSpec(base="ring")],
                "B": [ScenarioSpec(base="clique")],
            }
        )
        assert [m.name for m in session.curriculum.unit("A").modules] == ["A #1", "A #2"]
        assert [m.name for m in session.curriculum.unit("B").modules] == ["B #1"]

    def test_autoplay_with_analyst(self):
        session = CurriculumSession.from_specs(
            {"Unit": [ScenarioSpec(base="star"), ScenarioSpec(base="clique")]},
            seed=3,
        )
        results = session.autoplay(AnalystPlayer(seed=3))
        assert any(r.unit_title == "Unit" for r in results)

    def test_parallel_generation_matches_serial(self):
        units = {"A": [ScenarioSpec(base="mesh", seed=k) for k in range(6)]}
        serial = CurriculumSession.from_specs(units, workers=1)
        parallel = CurriculumSession.from_specs(units, workers=4)
        for a, b in zip(
            serial.curriculum.unit("A").modules, parallel.curriculum.unit("A").modules
        ):
            assert a.matrix == b.matrix
            assert a.name == b.name


class TestScenarioStream:
    def test_specs_stream_into_windows(self):
        specs = [ScenarioSpec(base="clique", seed=k) for k in range(3)]
        windows = list(scenario_stream(specs, window_size=50))
        assert windows  # 3 cliques x 90 edges = 270 events -> several windows
        total_events = sum(stats.events for _, stats in windows)
        assert total_events == sum(s.build().nnz() for s in specs)

    def test_stream_matches_manual_pipeline(self):
        from repro.analysis.streaming import window_stream

        specs = [ScenarioSpec(base="star", seed=1), ScenarioSpec(base="ring", seed=2)]
        via_specs = [a for a, _ in scenario_stream(specs, window_size=16)]
        events = [e for s in specs for e in s.build().iter_edges()]
        manual = [a for a, _ in window_stream(events, window_size=16)]
        assert len(via_specs) == len(manual)
        for a, b in zip(via_specs, manual):
            assert a.to_dict() == b.to_dict()

    def test_stream_through_service_cache_is_bit_identical(self):
        import asyncio

        from repro.scenarios import ScenarioCache, ScenarioService

        specs = [ScenarioSpec(base="clique", seed=k) for k in range(3)]
        plain = [(a.to_dict(), s.events) for a, s in scenario_stream(specs, window_size=50)]

        cache = ScenarioCache()
        cache.warm(specs)
        cached = [
            (a.to_dict(), s.events)
            for a, s in scenario_stream(specs, window_size=50, service=cache)
        ]
        assert cached == plain
        assert cache.analytics().hits == 3  # every spec streamed from cache

        async def main():
            async with ScenarioService() as service:
                return [
                    (a.to_dict(), s.events)
                    for a, s in scenario_stream(
                        specs, window_size=50, service=service
                    )
                ]

        assert asyncio.run(main()) == plain

    def test_stream_over_store_is_bit_identical(self, tmp_path):
        """Streaming via the durable store matches a storeless stream exactly."""
        from repro.store import ScenarioStore

        specs = [ScenarioSpec(base="ring", params={}, n=10, seed=s) for s in range(3)]
        plain = [a for a, _ in scenario_stream(specs, window_size=16)]
        with ScenarioStore(tmp_path / "store", fsync=False) as store:
            first = [a for a, _ in scenario_stream(specs, window_size=16, service=store)]
            assert store.index.count() == len(specs)
        # a fresh store instance replays the same stream from disk
        with ScenarioStore(tmp_path / "store", fsync=False) as store:
            replay = [a for a, _ in scenario_stream(specs, window_size=16, service=store)]
        assert first == plain == replay

    def test_stream_rejects_non_service_objects(self):
        from repro.errors import ScenarioError

        with pytest.raises(
            ScenarioError, match="ScenarioService, ScenarioCache, or ScenarioStore"
        ):
            list(scenario_stream([ScenarioSpec(base="ring")], service=object()))


class TestDefenseNamingWart:
    def test_defense_pattern_is_canonical(self):
        import importlib

        defense_module = importlib.import_module("repro.graphs.defense")
        assert repro.graphs.defense_pattern is defense_module.defense
        assert get_generator("defense_pattern").func is defense_module.defense

    def test_attribute_is_the_submodule(self):
        import importlib

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            attr = repro.graphs.defense
        assert attr is importlib.import_module("repro.graphs.defense")
        assert attr.security is repro.graphs.security
        assert attr.defense is repro.graphs.defense_pattern

    def test_dotted_import_idiom_keeps_working(self):
        import repro.graphs.defense  # noqa: F401

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix = repro.graphs.defense.security(10)
        assert matrix == repro.graphs.security(10)

    def test_submodule_import_does_not_warn(self):
        import importlib

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            importlib.import_module("repro.graphs.defense")
            from repro.graphs.defense import defense  # noqa: F401

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.graphs.does_not_exist


class TestUniformValidation:
    @pytest.mark.parametrize("name", sorted(scenario_names()))
    def test_zero_size_raises_everywhere(self, name):
        """Satellite: n=0 raises uniformly instead of raising sometimes and
        returning nonsense other times."""
        with pytest.raises(ShapeError):
            get_generator(name).func(0)

    @pytest.mark.parametrize(
        "name",
        sorted(n for n in scenario_names() if get_generator(n).accepts("packets")),
    )
    def test_zero_packets_raises_everywhere(self, name):
        with pytest.raises(ShapeError, match="packets"):
            get_generator(name).func(10, packets=0)

    def test_secondary_counts_validated_with_their_own_names(self):
        import importlib

        ddos = importlib.import_module("repro.graphs.ddos")
        defense = importlib.import_module("repro.graphs.defense")
        with pytest.raises(ShapeError, match="attack_packets"):
            ddos.backscatter(10, attack_packets=0)
        with pytest.raises(ShapeError, match="provocation_packets"):
            defense.deterrence(10, provocation_packets=-1)
        from repro.graphs.noise import background_noise

        with pytest.raises(ShapeError, match="max_packets"):
            background_noise(10, max_packets=0)

    def test_overlay_empty_collection_message(self):
        """Satellite: overlay([]) raises a clear ReproError, not a reduce error."""
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="empty collection"):
            overlay([])
