"""SQLite spec/provenance index with transactional upserts.

The index is the *only* authority on what a store contains: readers resolve a
content address here first and only then touch the blob directory, so a blob
without an index row is invisible (an orphan for ``gc`` to sweep) and a row
without its blob is a loud :class:`~repro.errors.StoreIntegrityError`, never a
silent miss.

Concurrency model — many writers, many readers, possibly in different
processes:

* the database runs in WAL mode, so readers never block behind a writer;
* every mutation runs inside ``BEGIN IMMEDIATE`` so the write lock is taken
  up front and a transaction either commits whole or leaves nothing;
* ``SQLITE_BUSY``/"database is locked" is retried with exponential backoff
  (:meth:`StoreIndex._with_retry`), at most ``retries + 1`` attempts; when
  they are used up the caller sees a :class:`~repro.errors.StoreBusyError`
  (a :class:`~repro.errors.StoreError`).

Upserts are idempotent by construction: the primary key is the spec's content
address, ``INSERT … ON CONFLICT DO UPDATE`` keeps the original ``created_ns``,
bumps ``updated_ns`` and the ``writes`` counter, and concurrent upserts of the
same key from any number of processes collapse to exactly one row.

The ``fault_hook`` parameter is a test-only crash seam: when set, it is called
with a stage label at defined points inside the write path (see
:class:`~repro.store.ScenarioStore`), letting crash-recovery tests kill a
writer mid-transaction deterministically.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.errors import StoreBusyError, StoreError
from repro.obs import metrics as _obs

__all__ = ["SCHEMA_VERSION", "IndexRow", "StoreIndex"]

#: On-disk schema version; a database stamped with a newer version is refused.
SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS scenarios (
    key            TEXT PRIMARY KEY,
    spec_json      TEXT NOT NULL,
    base           TEXT NOT NULL,
    family         TEXT NOT NULL,
    n              INTEGER NOT NULL,
    seed           INTEGER NOT NULL,
    nnz            INTEGER,
    payload_sha256 TEXT,
    payload_bytes  INTEGER,
    kind           TEXT NOT NULL DEFAULT 'scenario',
    extra          TEXT,
    created_ns     INTEGER NOT NULL,
    updated_ns     INTEGER NOT NULL,
    writes         INTEGER NOT NULL DEFAULT 1
);
CREATE INDEX IF NOT EXISTS idx_scenarios_family ON scenarios (family);
CREATE INDEX IF NOT EXISTS idx_scenarios_base   ON scenarios (base);
CREATE INDEX IF NOT EXISTS idx_scenarios_kind   ON scenarios (kind);
"""

_UPSERT = """
INSERT INTO scenarios (
    key, spec_json, base, family, n, seed, nnz,
    payload_sha256, payload_bytes, kind, extra,
    created_ns, updated_ns, writes
) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, 1)
ON CONFLICT(key) DO UPDATE SET
    spec_json      = excluded.spec_json,
    base           = excluded.base,
    family         = excluded.family,
    n              = excluded.n,
    seed           = excluded.seed,
    nnz            = excluded.nnz,
    payload_sha256 = excluded.payload_sha256,
    payload_bytes  = excluded.payload_bytes,
    kind           = excluded.kind,
    extra          = excluded.extra,
    updated_ns     = excluded.updated_ns,
    writes         = scenarios.writes + 1
"""

#: sqlite3 surfaces lock contention as OperationalError with one of these
#: message fragments; anything else is a real error and propagates.
_BUSY_FRAGMENTS = ("database is locked", "database is busy")


@dataclass(frozen=True)
class IndexRow:
    """One indexed artefact: the spec, its provenance, and its payload digest.

    ``payload_sha256`` is ``None`` for spec-only rows (e.g. a fuzz repro whose
    build itself crashes — there is no matrix to store, but the spec and the
    failure provenance are still worth keeping).
    """

    key: str
    spec_json: str
    base: str
    family: str
    n: int
    seed: int
    nnz: int | None
    payload_sha256: str | None
    payload_bytes: int | None
    kind: str
    extra: dict[str, Any] | None
    created_ns: int
    updated_ns: int
    writes: int

    @property
    def has_payload(self) -> bool:
        return self.payload_sha256 is not None

    def spec_dict(self) -> dict[str, Any]:
        return json.loads(self.spec_json)


def _is_busy(exc: sqlite3.OperationalError) -> bool:
    msg = str(exc).lower()
    return any(fragment in msg for fragment in _BUSY_FRAGMENTS)


class StoreIndex:
    """The SQLite half of a :class:`~repro.store.ScenarioStore`.

    One connection per instance, serialised by an :class:`threading.RLock`
    (sqlite3's own cross-process locking handles everything beyond the
    process boundary).  ``retries``/``backoff`` shape the contention policy:
    attempt *k* sleeps ``backoff * 2**k`` seconds before retrying, and the
    default five attempts tolerate roughly half a second of sustained lock
    pressure before giving up.
    """

    def __init__(
        self,
        path: Path | str,
        *,
        retries: int = 5,
        backoff: float = 0.02,
        fault_hook: Callable[[str], None] | None = None,
    ) -> None:
        if retries < 0:
            raise StoreError(f"retries must be >= 0, got {retries}")
        if backoff < 0:
            raise StoreError(f"backoff must be >= 0, got {backoff}")
        self.path = Path(path)
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.fault_hook = fault_hook
        self._lock = threading.RLock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # A short driver-level busy timeout smooths sub-millisecond lock
        # blips; the explicit retry loop above it handles real contention so
        # that backoff (and the final failure) stays under our control.
        self._conn = sqlite3.connect(
            self.path, timeout=0.05, check_same_thread=False
        )
        self._conn.isolation_level = None  # explicit BEGIN/COMMIT only
        self._conn.row_factory = sqlite3.Row
        self._with_retry("init", self._init_schema)

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #

    def _init_schema(self) -> None:
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            # executescript() would implicitly COMMIT the open transaction,
            # so the schema runs one statement at a time.
            for statement in _SCHEMA.split(";"):
                if statement.strip():
                    self._conn.execute(statement)
            row = self._conn.execute(
                "SELECT value FROM store_meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                self._conn.execute(
                    "INSERT INTO store_meta (key, value) VALUES ('schema_version', ?)",
                    (str(SCHEMA_VERSION),),
                )
            elif int(row["value"]) > SCHEMA_VERSION:
                raise StoreError(
                    f"store index {self.path} has schema_version {row['value']} "
                    f"but this library only understands {SCHEMA_VERSION}"
                )
            self._conn.execute("COMMIT")
        except BaseException:
            self._rollback()
            raise

    def _rollback(self) -> None:
        try:
            self._conn.execute("ROLLBACK")
        except sqlite3.OperationalError:
            pass  # no transaction active — nothing to roll back

    def _with_retry(self, label: str, fn: Callable[[], Any]) -> Any:
        """Run *fn* under the lock, retrying lock contention with backoff."""
        with self._lock:
            for attempt in range(self.retries + 1):
                try:
                    return fn()
                except sqlite3.OperationalError as exc:
                    self._rollback()
                    if not _is_busy(exc):
                        raise StoreError(f"store index {label!r} failed: {exc}") from exc
                    if attempt == self.retries:
                        _obs.counter("store.index.busy_failures").inc()
                        raise StoreBusyError(
                            f"store index {label!r} still locked after "
                            f"{self.retries + 1} attempts: {exc}"
                        ) from exc
                    _obs.counter("store.index.retries").inc()
                    time.sleep(self.backoff * (2**attempt))
                except BaseException:
                    self._rollback()
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #

    @staticmethod
    def row_params(
        key: str,
        spec_json: str,
        *,
        base: str,
        family: str,
        n: int,
        seed: int,
        nnz: int | None = None,
        payload_sha256: str | None = None,
        payload_bytes: int | None = None,
        kind: str = "scenario",
        extra: Mapping[str, Any] | None = None,
    ) -> tuple:
        """One row in the form :meth:`upsert_many` takes."""
        return (
            key,
            spec_json,
            base,
            family,
            int(n),
            int(seed),
            None if nnz is None else int(nnz),
            payload_sha256,
            None if payload_bytes is None else int(payload_bytes),
            kind,
            json.dumps(dict(extra), sort_keys=True) if extra else None,
        )

    def upsert(self, key: str, spec_json: str, **fields: Any) -> None:
        """Insert or refresh one row (the fields of :meth:`row_params`)."""
        self.upsert_many([self.row_params(key, spec_json, **fields)])

    def upsert_many(self, rows: Sequence[tuple]) -> None:
        """Insert or refresh every row in one transaction: all commit or none.

        Re-upserting an existing key keeps ``created_ns``, bumps
        ``updated_ns``/``writes``, and replaces everything else — last writer
        wins, which is safe because a content address determines its payload.
        """

        def _txn() -> None:
            now = _obs.wall_ns()
            self._conn.execute("BEGIN IMMEDIATE")
            if self.fault_hook is not None:
                self.fault_hook("index_in_txn")
            self._conn.executemany(_UPSERT, [row + (now, now) for row in rows])
            if self.fault_hook is not None:
                self.fault_hook("index_pre_commit")
            self._conn.execute("COMMIT")

        self._with_retry("upsert", _txn)
        _obs.counter("store.index.upserts").inc(len(rows))

    def delete(self, key: str) -> bool:
        """Remove one row; returns whether it existed."""

        def _txn() -> bool:
            self._conn.execute("BEGIN IMMEDIATE")
            cur = self._conn.execute("DELETE FROM scenarios WHERE key = ?", (key,))
            self._conn.execute("COMMIT")
            return cur.rowcount > 0

        return bool(self._with_retry("delete", _txn))

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #

    @staticmethod
    def _row_to_index_row(row: sqlite3.Row) -> IndexRow:
        return IndexRow(
            key=row["key"],
            spec_json=row["spec_json"],
            base=row["base"],
            family=row["family"],
            n=row["n"],
            seed=row["seed"],
            nnz=row["nnz"],
            payload_sha256=row["payload_sha256"],
            payload_bytes=row["payload_bytes"],
            kind=row["kind"],
            extra=json.loads(row["extra"]) if row["extra"] else None,
            created_ns=row["created_ns"],
            updated_ns=row["updated_ns"],
            writes=row["writes"],
        )

    def get(self, key: str) -> IndexRow | None:
        def _query() -> IndexRow | None:
            row = self._conn.execute(
                "SELECT * FROM scenarios WHERE key = ?", (key,)
            ).fetchone()
            return None if row is None else self._row_to_index_row(row)

        return self._with_retry("get", _query)

    def rows(
        self,
        *,
        family: str | None = None,
        base: str | None = None,
        kind: str | None = None,
    ) -> list[IndexRow]:
        """All rows, newest-updated first, optionally filtered."""
        clauses: list[str] = []
        params: list[Any] = []
        for column, value in (("family", family), ("base", base), ("kind", kind)):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        sql = f"SELECT * FROM scenarios{where} ORDER BY updated_ns DESC, key"

        def _query() -> list[IndexRow]:
            return [
                self._row_to_index_row(row)
                for row in self._conn.execute(sql, params).fetchall()
            ]

        return self._with_retry("rows", _query)

    def keys(self) -> list[str]:
        def _query() -> list[str]:
            return [
                row["key"]
                for row in self._conn.execute(
                    "SELECT key FROM scenarios ORDER BY key"
                ).fetchall()
            ]

        return self._with_retry("keys", _query)

    def payload_rows(self, page: int = 1024) -> Iterator[tuple[str, str]]:
        """``(key, payload_sha256)`` of every payload-bearing row, in key order.

        Fetched a page at a time (keyset pagination), so a walk over a large
        index holds one page in memory and no cursor across pages.
        """
        after = ""

        def _query() -> list[tuple[str, str]]:
            return [
                (row[0], row[1])
                for row in self._conn.execute(
                    "SELECT key, payload_sha256 FROM scenarios "
                    "WHERE payload_sha256 IS NOT NULL AND key > ? "
                    "ORDER BY key LIMIT ?",
                    (after, page),
                )
            ]

        while True:
            rows = self._with_retry("payload_rows", _query)
            yield from rows
            if len(rows) < page:
                return
            after = rows[-1][0]

    def kind_totals(self) -> dict[str, tuple[int, int]]:
        """``kind -> (rows, payload bytes)`` from one aggregate query."""

        def _query() -> dict[str, tuple[int, int]]:
            return {
                row[0]: (int(row[1]), int(row[2]))
                for row in self._conn.execute(
                    "SELECT kind, COUNT(*), COALESCE(SUM(payload_bytes), 0) "
                    "FROM scenarios GROUP BY kind ORDER BY kind"
                )
            }

        return self._with_retry("kind_totals", _query)

    def count(self) -> int:
        def _query() -> int:
            return int(
                self._conn.execute("SELECT COUNT(*) AS c FROM scenarios").fetchone()["c"]
            )

        return self._with_retry("count", _query)

    def schema_version(self) -> int:
        def _query() -> int:
            row = self._conn.execute(
                "SELECT value FROM store_meta WHERE key = 'schema_version'"
            ).fetchone()
            return int(row["value"]) if row is not None else SCHEMA_VERSION

        return self._with_retry("schema_version", _query)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "StoreIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
