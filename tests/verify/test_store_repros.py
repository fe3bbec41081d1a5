"""Durable repros: run_corpus/save_repro into a store, replay, migration."""

import hashlib
import json
import warnings

import pytest
from fault_fixtures import PERTURBED_SEMIRING

from repro.errors import ScenarioError
from repro.scenarios import ScenarioSpec
from repro.store import ScenarioStore
from repro.verify import (
    KernelEqualityOracle,
    StoreRoundTripOracle,
    load_repro,
    replay_from_store,
    run_corpus,
)


def failing_oracle():
    return KernelEqualityOracle(semiring=PERTURBED_SEMIRING)


def failing_spec():
    return ScenarioSpec(base="clique", params={}, n=12, seed=77)


@pytest.fixture
def store(tmp_path):
    with ScenarioStore(tmp_path / "store", fsync=False) as s:
        yield s


class TestRunCorpusIntoStore:
    def test_failure_lands_durably_without_repro_dir(self, store):
        report = run_corpus(
            [failing_spec()], oracles=(failing_oracle(),), store=store
        )
        assert not report.ok
        (row,) = store.entries(kind="repro")
        assert row.extra["oracle"] == "kernel_equality"
        assert "mxm" in row.extra["detail"]
        assert row.has_payload  # the minimized matrix is stored too
        minimized = report.failures[0].minimized
        assert row.key == minimized.cache_key()

    def test_repro_dir_and_store_together(self, store, tmp_path):
        repro_dir = tmp_path / "repros"
        report = run_corpus(
            [failing_spec()],
            oracles=(failing_oracle(),),
            repro_dir=repro_dir,
            store=store,
        )
        (failure,) = report.failures
        assert failure.repro_path is not None and failure.repro_path.exists()
        assert store.entries(kind="repro") != []

    def test_green_run_stores_nothing(self, store):
        report = run_corpus(
            [ScenarioSpec(base="ring", params={}, n=8, seed=1)],
            oracles=(KernelEqualityOracle(),),
            store=store,
        )
        assert report.ok
        assert store.index.count() == 0


class TestReplayFromStore:
    def test_replays_recorded_oracle(self, store):
        run_corpus([failing_spec()], oracles=(failing_oracle(),), store=store)
        (row,) = store.entries(kind="repro")
        # the perturbed oracle reproduces the failure in a later "process"
        verdicts = replay_from_store(store, row.key, oracles=(failing_oracle(),))
        assert any(v.failed for v in verdicts)
        # the healthy default battery passes: the bug was in the oracle's
        # injected semiring, not the spec — recorded oracle name selects it
        verdicts = replay_from_store(store, row.key)
        assert all(v.passed or v.skipped for v in verdicts)

    def test_accepts_spec_or_key(self, store):
        run_corpus([failing_spec()], oracles=(failing_oracle(),), store=store)
        (row,) = store.entries(kind="repro")
        spec = ScenarioSpec.from_json(row.spec_json)
        by_key = replay_from_store(store, row.key, oracles=(failing_oracle(),))
        by_spec = replay_from_store(store, spec, oracles=(failing_oracle(),))
        assert [v.failed for v in by_key] == [v.failed for v in by_spec]

    def test_unknown_key_raises(self, store):
        with pytest.raises(ScenarioError, match="no repro"):
            replay_from_store(store, "ab" * 32)


class TestLegacyMigration:
    def _write_legacy(self, repro_dir, spec, oracle="kernel_equality"):
        """A repro file named with the retired sha1 scheme."""
        document = {
            "repro_version": 1,
            "oracle": oracle,
            "detail": "legacy finding",
            "spec": spec.to_dict(),
            "original_spec": spec.to_dict(),
        }
        digest = hashlib.sha1(
            json.dumps(spec.to_dict(), sort_keys=True).encode()
        ).hexdigest()[:10]
        path = repro_dir / f"repro_{oracle}_{spec.base}_{digest}.json"
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        return path

    def test_sha1_named_file_imports_without_warning(self, store, tmp_path):
        """A repro file loads by path whatever digest names it."""
        spec = ScenarioSpec(base="ring", params={}, n=8, seed=3)
        path = self._write_legacy(tmp_path, spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning fails the test
            loaded, document = load_repro(path, store=store)
        assert loaded == spec
        row = store.entry(spec)
        assert row is not None and row.kind == "repro"
        assert row.extra["oracle"] == "kernel_equality"

    def test_second_load_is_idempotent(self, store, tmp_path):
        spec = ScenarioSpec(base="ring", params={}, n=8, seed=3)
        path = self._write_legacy(tmp_path, spec)
        load_repro(path, store=store)
        writes = store.entry(spec).writes
        load_repro(path, store=store)  # already imported: untouched
        assert store.entry(spec).writes == writes

    def test_modern_file_imports_without_warning(self, store, tmp_path):
        report = run_corpus(
            [failing_spec()], oracles=(failing_oracle(),), repro_dir=tmp_path
        )
        path = report.failures[0].repro_path
        fresh_root = tmp_path / "fresh_store"
        with ScenarioStore(fresh_root, fsync=False) as fresh:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # any warning fails the test
                spec, _ = load_repro(path, store=fresh)
            assert fresh.entry(spec) is not None


class TestStoreRoundTripOracleInBattery:
    def test_oracle_passes_over_corpus_sample(self):
        from repro.verify import make_corpus

        oracle = StoreRoundTripOracle()
        for spec in make_corpus(6, seed=51):
            verdict = oracle.check(spec)
            assert verdict.passed, verdict.detail

    @pytest.mark.parametrize(
        ("workers", "backend"), [(1, "serial"), (3, "thread"), (2, "process")]
    )
    def test_store_oracle_runs_on_every_backend(self, workers, backend):
        """The disk round trip is part of the bit-identity contract on all
        executors — the acceptance criterion for the store subsystem."""
        from repro.verify import make_corpus

        report = run_corpus(
            make_corpus(4, seed=52),
            oracles=(StoreRoundTripOracle(),),
            workers=workers,
            backend=backend,
        )
        assert report.ok, report.summary()
