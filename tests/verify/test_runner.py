"""run_corpus driver: fan-out, reports, repro persistence, replay."""

import json

import pytest
from fault_fixtures import PERTURBED_SEMIRING

from repro.errors import ScenarioError
from repro.scenarios import NoiseSpec, OverlaySpec, ScenarioSpec
from repro.verify import (
    KernelEqualityOracle,
    load_repro,
    make_corpus,
    replay_repro,
    run_corpus,
)


class TestGreenRun:
    def test_small_corpus_all_green(self):
        report = run_corpus(make_corpus(25, seed=41))
        assert report.ok, report.summary()
        assert report.counts["specs"] == 25
        assert report.counts["failed"] == 0
        assert report.counts["passed"] > 0

    def test_results_in_corpus_order(self):
        corpus = make_corpus(10, seed=42)
        report = run_corpus(corpus)
        assert [r.index for r in report.results] == list(range(10))
        assert [r.spec for r in report.results] == corpus

    def test_summary_mentions_counts(self):
        report = run_corpus(make_corpus(5, seed=43))
        assert "5 specs" in report.summary()

    def test_non_spec_items_rejected(self):
        with pytest.raises(ScenarioError, match="index 1"):
            run_corpus([ScenarioSpec(base="ring"), "ring"])


class TestCrossBackend:
    def test_verdicts_identical_across_backends(self):
        corpus = make_corpus(16, seed=44)
        serial = run_corpus(corpus, workers=1, backend="serial")
        thread = run_corpus(corpus, workers=4, backend="thread")
        assert serial.signature() == thread.signature()

    def test_process_backend_matches_serial(self):
        corpus = make_corpus(8, seed=45)
        serial = run_corpus(corpus, workers=1, backend="serial")
        process = run_corpus(corpus, workers=2, backend="process")
        assert serial.signature() == process.signature()

    def test_repeated_runs_are_deterministic(self):
        corpus = make_corpus(12, seed=46)
        assert run_corpus(corpus).signature() == run_corpus(corpus).signature()


class TestFailurePath:
    def failing_oracle(self) -> KernelEqualityOracle:
        return KernelEqualityOracle(semiring=PERTURBED_SEMIRING)

    def failing_spec(self) -> ScenarioSpec:
        return ScenarioSpec(
            base="clique",
            n=16,
            seed=77,
            noise=NoiseSpec(density=0.1),
            overlays=(OverlaySpec("ring"),),
        )

    def test_injected_fault_produces_minimized_repro_file(self, tmp_path):
        report = run_corpus(
            [self.failing_spec()], oracles=(self.failing_oracle(),), repro_dir=tmp_path
        )
        assert not report.ok
        (failure,) = report.failures
        assert failure.oracle == "kernel_equality"
        assert failure.repro_path is not None and failure.repro_path.exists()
        # the persisted spec is minimized: incidental structure stripped
        assert failure.minimized.overlays == ()
        assert failure.minimized.noise is None
        assert failure.minimized.n < 16
        document = json.loads(failure.repro_path.read_text())
        assert document["oracle"] == "kernel_equality"
        assert document["spec"] == failure.minimized.to_dict()
        assert document["original_spec"] == self.failing_spec().to_dict()

    def test_repro_file_round_trips_and_replays(self, tmp_path):
        report = run_corpus(
            [self.failing_spec()], oracles=(self.failing_oracle(),), repro_dir=tmp_path
        )
        path = report.failures[0].repro_path
        spec, document = load_repro(path)
        assert spec == report.failures[0].minimized
        # replaying against the *perturbed* oracle reproduces the failure ...
        verdicts = replay_repro(path, oracles=(self.failing_oracle(),))
        assert any(v.failed for v in verdicts)
        # ... and against the healthy default battery it passes (bug is in
        # the planted semiring, not the library)
        verdicts = replay_repro(path)
        assert all(v.passed or v.skipped for v in verdicts)

    def test_rerunning_overwrites_instead_of_accumulating(self, tmp_path):
        for _ in range(2):
            run_corpus(
                [self.failing_spec()],
                oracles=(self.failing_oracle(),),
                repro_dir=tmp_path,
            )
        assert len(list(tmp_path.glob("repro_*.json"))) == 1

    def test_filename_digest_is_the_spec_cache_key(self, tmp_path):
        """Repro files share the scenario cache's single content address."""
        report = run_corpus(
            [self.failing_spec()], oracles=(self.failing_oracle(),), repro_dir=tmp_path
        )
        (failure,) = report.failures
        expected = failure.minimized.cache_key()[:10]
        assert failure.repro_path.name.endswith(f"_{expected}.json")

    def test_shrink_false_persists_the_original_spec(self, tmp_path):
        report = run_corpus(
            [self.failing_spec()],
            oracles=(self.failing_oracle(),),
            repro_dir=tmp_path,
            shrink=False,
        )
        assert report.failures[0].minimized == self.failing_spec()

    def test_crashing_oracle_becomes_a_failed_verdict(self):
        class ExplodingOracle:
            name = "exploding"

            def check(self, spec):
                raise RuntimeError("boom")

        report = run_corpus(
            [ScenarioSpec(base="star", n=6)], oracles=(ExplodingOracle(),), shrink=False
        )
        assert not report.ok
        assert "RuntimeError" in report.failures[0].detail

    def test_load_repro_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"repro_version": 99, "spec": {}}))
        with pytest.raises(ScenarioError, match="repro_version"):
            load_repro(path)
