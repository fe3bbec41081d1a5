"""The SQLite index: WAL mode, transactional upserts, retry-with-backoff."""

import sqlite3
import threading

import pytest

from repro.errors import StoreBusyError, StoreError
from repro.obs import metrics as obs_metrics
from repro.scenarios import ScenarioSpec
from repro.store import SCHEMA_VERSION, StoreIndex


@pytest.fixture
def index(tmp_path):
    idx = StoreIndex(tmp_path / "index.sqlite")
    yield idx
    idx.close()


def _upsert(idx, spec, **overrides):
    fields = dict(
        base=spec.base,
        family="structural",
        n=spec.n,
        seed=spec.seed,
        nnz=10,
        payload_sha256="ab" * 32,
        payload_bytes=123,
    )
    fields.update(overrides)
    idx.upsert(spec.cache_key(), spec.canonical_json(), **fields)


class TestSchema:
    def test_wal_mode(self, index):
        mode = index._conn.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"

    def test_schema_version_stamped(self, index):
        assert index.schema_version() == SCHEMA_VERSION

    def test_newer_schema_refused(self, tmp_path):
        path = tmp_path / "index.sqlite"
        StoreIndex(path).close()
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE store_meta SET value = ? WHERE key = 'schema_version'",
            (str(SCHEMA_VERSION + 1),),
        )
        conn.commit()
        conn.close()
        with pytest.raises(StoreError, match="schema_version"):
            StoreIndex(path)

    def test_bad_config_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="retries"):
            StoreIndex(tmp_path / "a.sqlite", retries=-1)
        with pytest.raises(StoreError, match="backoff"):
            StoreIndex(tmp_path / "b.sqlite", backoff=-0.1)


class TestUpsert:
    def test_insert_then_get(self, index):
        spec = ScenarioSpec(base="ring", params={}, n=8, seed=1)
        _upsert(index, spec)
        row = index.get(spec.cache_key())
        assert row is not None
        assert row.base == "ring"
        assert row.n == 8
        assert row.seed == 1
        assert row.writes == 1
        assert row.has_payload
        assert row.spec_dict()["base"] == "ring"
        assert row.created_ns == row.updated_ns

    def test_upsert_is_idempotent_one_row(self, index):
        spec = ScenarioSpec(base="ring", params={}, n=8, seed=1)
        _upsert(index, spec)
        _upsert(index, spec)
        _upsert(index, spec)
        assert index.count() == 1
        row = index.get(spec.cache_key())
        assert row.writes == 3
        assert row.updated_ns >= row.created_ns

    def test_upsert_preserves_created_ns(self, index):
        spec = ScenarioSpec(base="ring", params={}, n=8, seed=1)
        _upsert(index, spec)
        first = index.get(spec.cache_key()).created_ns
        _upsert(index, spec)
        assert index.get(spec.cache_key()).created_ns == first

    def test_spec_only_row(self, index):
        spec = ScenarioSpec(base="star", params={}, n=6, seed=2)
        _upsert(index, spec, nnz=None, payload_sha256=None, payload_bytes=None)
        row = index.get(spec.cache_key())
        assert not row.has_payload
        assert row.nnz is None

    def test_extra_json_round_trips(self, index):
        spec = ScenarioSpec(base="star", params={}, n=6, seed=3)
        _upsert(index, spec, kind="repro", extra={"oracle": "round_trip", "z": 1})
        row = index.get(spec.cache_key())
        assert row.kind == "repro"
        assert row.extra == {"oracle": "round_trip", "z": 1}

    def test_delete(self, index):
        spec = ScenarioSpec(base="ring", params={}, n=8, seed=4)
        _upsert(index, spec)
        assert index.delete(spec.cache_key())
        assert index.get(spec.cache_key()) is None
        assert not index.delete(spec.cache_key())


class TestQueries:
    def test_rows_filters(self, index):
        a = ScenarioSpec(base="ring", params={}, n=8, seed=1)
        b = ScenarioSpec(base="star", params={}, n=8, seed=2)
        _upsert(index, a, family="structural")
        _upsert(index, b, family="pattern", kind="repro")
        assert {r.base for r in index.rows()} == {"ring", "star"}
        assert [r.base for r in index.rows(family="pattern")] == ["star"]
        assert [r.base for r in index.rows(base="ring")] == ["ring"]
        assert [r.base for r in index.rows(kind="repro")] == ["star"]
        assert index.rows(kind="nope") == []

    def test_keys_sorted(self, index):
        specs = [ScenarioSpec(base="ring", params={}, n=8, seed=s) for s in range(5)]
        for spec in specs:
            _upsert(index, spec)
        assert index.keys() == sorted(spec.cache_key() for spec in specs)

    def test_count(self, index):
        assert index.count() == 0
        _upsert(index, ScenarioSpec(base="ring", params={}, n=8, seed=1))
        assert index.count() == 1

    def test_payload_rows_page_through_payload_bearing_rows(self, index):
        specs = [ScenarioSpec(base="ring", params={}, n=8, seed=s) for s in range(7)]
        for spec in specs[1:]:
            _upsert(index, spec)
        _upsert(index, specs[0], payload_sha256=None, payload_bytes=None)
        expected = sorted(spec.cache_key() for spec in specs[1:])
        for page in (1, 2, 6, 1024):  # across, at and inside page boundaries
            rows = list(index.payload_rows(page=page))
            assert [key for key, _ in rows] == expected
            assert {digest for _, digest in rows} == {"ab" * 32}

    def test_kind_totals(self, index):
        _upsert(index, ScenarioSpec(base="ring", params={}, n=8, seed=1))
        _upsert(index, ScenarioSpec(base="ring", params={}, n=8, seed=2), kind="repro")
        _upsert(
            index,
            ScenarioSpec(base="ring", params={}, n=8, seed=3),
            kind="repro",
            payload_sha256=None,
            payload_bytes=None,
        )
        assert index.kind_totals() == {"repro": (2, 123), "scenario": (1, 123)}


class TestContention:
    def test_busy_retries_then_succeeds(self, tmp_path):
        """A writer holding the lock briefly is ridden out by the backoff."""
        path = tmp_path / "index.sqlite"
        idx = StoreIndex(path, retries=10, backoff=0.01)
        blocker = sqlite3.connect(path, timeout=0.05, check_same_thread=False)
        blocker.execute("BEGIN IMMEDIATE")

        release = threading.Timer(0.15, lambda: (blocker.commit(), blocker.close()))
        release.start()
        try:
            spec = ScenarioSpec(base="ring", params={}, n=8, seed=1)
            _upsert(idx, spec)  # must survive the ~150ms of lock pressure
            assert idx.count() == 1
        finally:
            release.join()
            idx.close()

    def test_lock_outliving_retries_raises_store_error(self, tmp_path):
        path = tmp_path / "index.sqlite"
        idx = StoreIndex(path, retries=2, backoff=0.001)
        blocker = sqlite3.connect(path, timeout=0.05)
        blocker.execute("BEGIN IMMEDIATE")
        try:
            spec = ScenarioSpec(base="ring", params={}, n=8, seed=1)
            with pytest.raises(StoreError, match="locked"):
                _upsert(idx, spec)
        finally:
            blocker.rollback()
            blocker.close()
            idx.close()

    def test_exhausted_retries_raise_a_counted_busy_error(self, tmp_path):
        """``retries=1`` means exactly two attempts, then a typed error."""
        path = tmp_path / "index.sqlite"
        idx = StoreIndex(path, retries=1, backoff=0)
        blocker = sqlite3.connect(path, timeout=0.05)
        blocker.execute("BEGIN IMMEDIATE")
        retries = obs_metrics.counter("store.index.retries")
        failures = obs_metrics.counter("store.index.busy_failures")
        retries_before, failures_before = retries.value, failures.value
        try:
            spec = ScenarioSpec(base="ring", params={}, n=8, seed=1)
            with pytest.raises(StoreBusyError, match="still locked after 2 attempts") as info:
                _upsert(idx, spec)
            assert isinstance(info.value, StoreError)
            assert retries.value == retries_before + 1
            assert failures.value == failures_before + 1
        finally:
            blocker.rollback()
            blocker.close()
        # the failed write left nothing behind, and the index recovers
        _upsert(idx, spec)
        assert idx.count() == 1
        idx.close()

    def test_thread_safe_upserts(self, tmp_path):
        idx = StoreIndex(tmp_path / "index.sqlite", retries=20, backoff=0.005)
        specs = [ScenarioSpec(base="ring", params={}, n=8, seed=s) for s in range(8)]
        errors = []

        def work(spec):
            try:
                for _ in range(5):
                    _upsert(idx, spec)
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(s,)) for s in specs]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert idx.count() == len(specs)
        for spec in specs:
            assert idx.get(spec.cache_key()).writes == 5
        idx.close()
