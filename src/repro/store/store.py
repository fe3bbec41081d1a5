"""The durable scenario store: content-addressed blobs + transactional index.

:class:`ScenarioStore` composes the two halves of :mod:`repro.store` into the
persistence tier the rest of the library talks to.  One directory holds
everything::

    root/
        index.sqlite          spec/provenance index (WAL mode)
        ab/<key>.blob         matrix blobs, two-level hex fan-out
        staging/              in-flight writes, invisible to readers

**Crash-safe write ordering.**  Every write goes through
:meth:`ScenarioStore.put_many`: it publishes all of a batch's blobs first
(atomic staged renames, each touched directory fsynced once) and only then
commits all of their index rows in one transaction.  A writer killed at any
point therefore leaves one of exactly three states, all safe:

1. nothing published (died in staging) — the store is unchanged;
2. blob published, no index row — the blob is an invisible *orphan* (reads
   resolve through the index only) that :meth:`gc` reclaims;
3. blob and row both published — the write simply succeeded.

A *dangling* row — an index entry whose blob is missing — cannot be produced
by a crash, only by outside interference with the blob directory; reads
surface it as a :class:`~repro.errors.StoreIntegrityError` and
:meth:`verify`/:meth:`gc` report it.

**Write-behind.**  :meth:`ScenarioStore.put_behind` queues a write for the
store's one writer thread (started on first use) and returns at once; the
writer drains whatever has queued into one :meth:`put_many` call, so rows
are group-committed.  A queued write is durable after :meth:`flush` or
:meth:`close`, which also re-raise a failure the writer met.  This instance's
own reads (:meth:`get`, :meth:`contains`, :meth:`entry`, listings and
maintenance) wait for its queued writes first, so it reads its own writes.

**Key view.**  The store keeps the keys of its payload-bearing rows in
memory (32-byte digests), loaded once at open and updated by its own writes
and deletes.  :meth:`knows` answers from that view without touching SQLite;
the scenario cache asks it before a read, so a cold miss costs a set lookup.
A key another process commits after this store opened is not in the view:
the cache rebuilds it once (bit-identically) and upserts it again.

**Bit-identity.**  The store round trip is part of the library's determinism
contract: ``store.get(spec)`` after ``store.put(spec, spec.build())`` returns
a matrix equal to a fresh ``spec.build()`` — packets, colours, labels, *and*
provenance metadata — in this process or any later one.  The
``store_round_trip`` oracle in :mod:`repro.verify` enforces this over the
fuzz corpus.
"""

from __future__ import annotations

import atexit
import threading
import traceback
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from repro.errors import StoreError, StoreIntegrityError
from repro.obs import metrics as _obs
from repro.obs import trace as _trace
from repro.store.blobs import BlobStore, blob_digest, decode_matrix, encode_matrix
from repro.store.index import IndexRow, StoreIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.traffic_matrix import TrafficMatrix
    from repro.scenarios.spec import ScenarioSpec

__all__ = ["WRITE_QUEUE_DEPTH", "ScenarioStore"]

#: Most writes :meth:`ScenarioStore.put_behind` keeps queued ahead of the
#: writer thread (and the most one group commit takes); a full queue makes
#: the next ``put_behind`` wait, which bounds the matrices held for writing.
WRITE_QUEUE_DEPTH = 256

#: How long the writer lets writes gather after the first one arrives before
#: it commits them as one group (a :meth:`ScenarioStore.flush` cuts it
#: short).  Longer windows mean fewer, larger commits and fewer wake-ups,
#: but longer bursts of writer work between requests: on one pinned CPU,
#: ``scenario_cold`` at 1 ms kept its tail latency flat against writing
#: inline, while 2 ms bought about 6% more throughput for a 6-9% worse tail.
GROUP_COMMIT_WINDOW_S = 0.001

#: A writer thread with nothing queued for this long exits (the next write
#: starts another), so a store dropped without :meth:`ScenarioStore.close`
#: does not keep a thread, and itself, alive for the life of the process.
WRITER_IDLE_S = 1.0

#: Stores whose writer thread is running; flushed at interpreter exit so a
#: script that never closes its store still lands its queued writes.
_WRITING: "set[ScenarioStore]" = set()


@atexit.register
def _flush_at_exit() -> None:
    for store in list(_WRITING):
        try:
            store.flush()
        except Exception:  # reported; the other stores still flush
            traceback.print_exc()


def _view_key(key: str) -> bytes | str:
    """A key as the view holds it: its 32 bytes, not 64 hex characters."""
    try:
        return bytes.fromhex(key)
    except ValueError:  # not a hex digest; only foreign rows look like this
        return key


def _family_of(base: str) -> str:
    from repro.errors import ScenarioError
    from repro.scenarios.registry import get_generator

    try:
        return get_generator(base).family
    except ScenarioError:
        return "unknown"


class ScenarioStore:
    """Durable content-addressed store for built scenarios and repros.

    Parameters
    ----------
    root:
        Store directory; created if absent.  Everything the store owns lives
        under it, so a store is moved or deleted by moving or deleting one
        directory.
    fsync:
        Fsync blobs and their directory on write (default).  Disable for
        tests and throwaway corpora where speed beats durability.
    retries / backoff:
        Lock-contention policy for the SQLite index; see
        :class:`~repro.store.index.StoreIndex`.
    fault_hook:
        Test-only crash seam.  When set, it is called with a stage label at
        defined points in the write path — ``"blob_written"`` between a
        batch's blob renames and its index transaction, plus the index's own
        ``"index_in_txn"`` / ``"index_pre_commit"`` stages — so tests can
        kill a writer at any boundary and assert recovery.
    """

    def __init__(
        self,
        root: Path | str,
        *,
        fsync: bool = True,
        retries: int = 5,
        backoff: float = 0.02,
        fault_hook: Callable[[str], None] | None = None,
    ) -> None:
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise StoreError(f"store root {self.root} exists and is not a directory")
        self.root.mkdir(parents=True, exist_ok=True)
        self.fault_hook = fault_hook
        self.blobs = BlobStore(self.root, fsync=fsync)
        self.index = StoreIndex(
            self.root / "index.sqlite",
            retries=retries,
            backoff=backoff,
            fault_hook=fault_hook,
        )
        #: the key view: digests of the committed payload-bearing rows
        self._keys: set[bytes | str] = {
            _view_key(key) for key, _ in self.index.payload_rows()
        }
        # Write-behind state, all guarded by one condition variable.
        self._cv = threading.Condition(threading.Lock())
        self._queue: list[tuple[str, "ScenarioSpec", "TrafficMatrix"]] = []
        #: key -> writes queued for it and not yet settled
        self._pending: dict[str, int] = {}
        #: writes ever queued / ever settled (committed or failed), in order
        self._queued = 0
        self._settled = 0
        self._flushers = 0
        self._closing = False
        self._writer: threading.Thread | None = None
        self._error: BaseException | None = None

    # ------------------------------------------------------------------ #
    # keys
    # ------------------------------------------------------------------ #

    @staticmethod
    def key_of(spec: "ScenarioSpec | str") -> str:
        """The content address for a spec (or pass a key through unchanged)."""
        if isinstance(spec, str):
            return spec
        return spec.cache_key()

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #

    def put(
        self,
        spec: "ScenarioSpec",
        matrix: "TrafficMatrix",
        *,
        kind: str = "scenario",
        extra: Mapping[str, Any] | None = None,
    ) -> str:
        """Durably store one built matrix under its spec's content address.

        A one-item :meth:`put_many`: durable on return.  Returns the key.
        """
        key = spec.cache_key()
        self.put_many([(key, spec, matrix)], kind=kind, extra=extra)
        return key

    def put_many(
        self,
        items: Iterable[tuple[str, "ScenarioSpec", "TrafficMatrix"]],
        *,
        kind: str = "scenario",
        extra: Mapping[str, Any] | None = None,
    ) -> None:
        """Durably store ``(key, spec, matrix)`` items; durable on return.

        ``key`` is ``spec.cache_key()``, computed once by the caller.  All
        blobs are published first, then all rows commit in one transaction —
        see the module docstring for why this ordering makes a crash at any
        point harmless.  ``kind``/``extra`` apply to every row.
        """
        items = list(items)
        if not items:
            return
        t0 = _obs.monotonic_ns()
        with _trace.get_tracer().span("store.put_many", rows=len(items), tier="l2"):
            frames = [encode_matrix(matrix) for _, _, matrix in items]
            self.blobs.write_many(
                [(key, frame) for (key, _, _), frame in zip(items, frames)]
            )
            if self.fault_hook is not None:
                self.fault_hook("blob_written")
            self.index.upsert_many(
                [
                    StoreIndex.row_params(
                        key,
                        spec.canonical_json(),
                        base=spec.base,
                        family=_family_of(spec.base),
                        n=spec.n,
                        seed=spec.seed,
                        nnz=matrix.nnz(),
                        payload_sha256=blob_digest(frame),
                        payload_bytes=len(frame),
                        kind=kind,
                        extra=extra,
                    )
                    for (key, spec, matrix), frame in zip(items, frames)
                ]
            )
        self._keys.update(_view_key(key) for key, _, _ in items)
        _obs.counter("store.puts").inc(len(items))
        _obs.histogram("store.batch_rows").observe(len(items))
        _obs.histogram("store.commit_ms").observe((_obs.monotonic_ns() - t0) / 1e6)

    def put_behind(
        self, key: str, spec: "ScenarioSpec", matrix: "TrafficMatrix"
    ) -> None:
        """Queue one write for the writer thread and return without waiting.

        ``key`` is ``spec.cache_key()``.  The matrix is an immutable value,
        shared with the caller and never copied.  The write is
        durable after the next :meth:`flush` or :meth:`close`; a failure
        the writer meets is counted (``store.writer_errors``) and re-raised
        there.  When :data:`WRITE_QUEUE_DEPTH` writes are already queued,
        this call waits for room.
        """
        with self._cv:
            while len(self._queue) >= WRITE_QUEUE_DEPTH:
                self._cv.wait()
            if self._writer is None:
                self._closing = False
                self._writer = threading.Thread(
                    target=self._drain, name="scenario-store-writer", daemon=True
                )
                self._writer.start()
                _WRITING.add(self)
            self._queue.append((key, spec, matrix))
            self._queued += 1
            self._pending[key] = self._pending.get(key, 0) + 1
            if len(self._queue) == 1:
                self._cv.notify_all()  # the writer waits for a first write

    def _drain(self) -> None:
        """The writer thread: group-commit queued writes until closed."""
        cv = self._cv
        while True:
            with cv:
                while not self._queue and not self._closing:
                    if not cv.wait(WRITER_IDLE_S) and not self._queue:
                        break  # idle: let this thread go
                if not self._queue:
                    if self._writer is threading.current_thread():
                        self._writer = None
                        _WRITING.discard(self)
                    return
                if not self._flushers:
                    cv.wait(GROUP_COMMIT_WINDOW_S)  # let the group gather
                group = self._queue[:WRITE_QUEUE_DEPTH]
                del self._queue[:WRITE_QUEUE_DEPTH]
                cv.notify_all()  # room for writers blocked on a full queue
            try:
                self.put_many(group)
            except BaseException as exc:  # noqa: BLE001 - re-raised by flush()
                _obs.counter("store.writer_errors").inc()
                if self._error is None:
                    self._error = exc
            with cv:
                for key, _, _ in group:
                    left = self._pending[key] - 1
                    if left:
                        self._pending[key] = left
                    else:
                        del self._pending[key]
                self._settled += len(group)
                cv.notify_all()

    def flush(self) -> None:
        """Wait until every write queued so far is committed: the barrier.

        Cuts the writer's group-commit window short, and does not wait for
        writes queued after the call.  Re-raises (once) the first failure
        the writer met since the last flush; the writes of the failed group
        are not stored.
        """
        with self._cv:
            target = self._queued
            self._flushers += 1
            self._cv.notify_all()
            try:
                while self._settled < target:
                    self._cv.wait()
            finally:
                self._flushers -= 1
            error, self._error = self._error, None
        if error is not None:
            raise error

    def _settle(self, key: str | None = None) -> None:
        """Flush first when *key* (or, with no key, any write) is queued."""
        if (self._pending if key is None else key in self._pending):
            self.flush()

    def put_spec(
        self,
        spec: "ScenarioSpec",
        *,
        kind: str = "scenario",
        extra: Mapping[str, Any] | None = None,
    ) -> str:
        """Index a spec without a payload (e.g. a repro whose build crashes)."""
        key = spec.cache_key()
        self._settle(key)
        self.index.upsert(
            key,
            spec.canonical_json(),
            base=spec.base,
            family=_family_of(spec.base),
            n=spec.n,
            seed=spec.seed,
            kind=kind,
            extra=extra,
        )
        self._keys.discard(_view_key(key))  # the row no longer has a payload
        _obs.counter("store.spec_puts").inc()
        return key

    def delete(self, spec_or_key: "ScenarioSpec | str") -> bool:
        """Remove an artefact (row first, then blob); returns whether it existed.

        The reverse of the write ordering for the same reason: between the
        two steps the blob is merely an orphan, never a dangling row.
        """
        key = self.key_of(spec_or_key)
        self._settle(key)
        existed = self.index.delete(key)
        self._keys.discard(_view_key(key))
        self.blobs.delete(key)
        return existed

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #

    def get(self, spec_or_key: "ScenarioSpec | str") -> "TrafficMatrix | None":
        """Load a stored matrix, or ``None`` on a clean miss.

        Integrity is checked twice: the blob's embedded checksum, and the
        decoded frame's digest against what the index recorded at write time.
        Any disagreement raises :class:`~repro.errors.StoreIntegrityError`
        rather than returning questionable data.
        """
        key = self.key_of(spec_or_key)
        self._settle(key)
        with _trace.get_tracer().span("store.get", key=key[:12], tier="l2"):
            row = self.index.get(key)
            if row is None or row.payload_sha256 is None:
                _obs.counter("store.misses").inc()
                return None
            frame = self.blobs.read(key)  # raises if the blob vanished
            if blob_digest(frame) != row.payload_sha256:
                raise StoreIntegrityError(
                    f"blob for key {key[:12]}… does not match the digest the "
                    f"index recorded at write time"
                )
            matrix = decode_matrix(frame)
        _obs.counter("store.hits").inc()
        return matrix

    def contains(self, spec_or_key: "ScenarioSpec | str") -> bool:
        """Whether a payload-bearing row exists (no blob read, no counters)."""
        row = self.entry(spec_or_key)
        return row is not None and row.payload_sha256 is not None

    __contains__ = contains

    def knows(self, key: str) -> bool:
        """Whether the key view holds *key*, or a write of it is queued.

        A set lookup, no SQLite: the scenario cache asks this before it
        reads.  ``False`` for a key another process committed after this
        store opened; :meth:`contains` and :meth:`get` still see that one.
        """
        return key in self._pending or _view_key(key) in self._keys

    def entry(self, spec_or_key: "ScenarioSpec | str") -> IndexRow | None:
        """The index row for one artefact, payload-bearing or not."""
        key = self.key_of(spec_or_key)
        self._settle(key)
        return self.index.get(key)

    def entries(
        self,
        *,
        family: str | None = None,
        base: str | None = None,
        kind: str | None = None,
    ) -> list[IndexRow]:
        """Indexed artefacts, newest first, optionally filtered."""
        self._settle()
        return self.index.rows(family=family, base=base, kind=kind)

    def spec_for(self, key: str) -> "ScenarioSpec":
        """Rehydrate the spec a key was derived from (from the index row)."""
        from repro.scenarios.spec import ScenarioSpec

        row = self.entry(key)
        if row is None:
            raise StoreError(f"store has no entry for key {key[:12]}…")
        return ScenarioSpec.from_json(row.spec_json)

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #

    def gc(self, *, dry_run: bool = False) -> dict[str, list[str]]:
        """Sweep debris: orphan blobs, stale staging files, dangling rows.

        Orphan blobs (no index row) and staging leftovers are deleted;
        dangling rows (index row whose blob is missing) are *reported* but
        kept — the spec and provenance are still real, and deleting evidence
        of outside interference silently is the wrong default.  With
        ``dry_run`` nothing is touched.  Returns what was (or would be)
        acted on.  Queued writes are flushed first: a blob renamed ahead of
        its row is in flight, not an orphan.
        """
        self._settle()
        indexed = set(self.index.keys())
        on_disk = set(self.blobs.keys())
        orphans = sorted(on_disk - indexed)
        dangling = [
            key for key, _ in self.index.payload_rows() if key not in on_disk
        ]
        staging = self.blobs.staging_files()
        if not dry_run:
            for key in orphans:
                self.blobs.delete(key)
            for path in staging:
                try:
                    path.unlink()
                except FileNotFoundError:
                    pass
            _obs.counter("store.gc_orphans").inc(len(orphans))
        return {
            "orphan_blobs": orphans,
            "dangling_rows": dangling,
            "staging_files": [str(p) for p in staging],
        }

    def verify(self, *, rebuild: bool = False) -> dict[str, list[str]]:
        """Check every artefact; returns problems keyed by failure class.

        Always checks blob presence, checksum, and index-digest agreement.
        With ``rebuild`` it also rebuilds each scenario from its spec and
        compares bit-for-bit — the full determinism contract, at full cost.
        Rows are walked a page at a time, in key order, so memory stays flat
        however large the store.
        """
        self._settle()
        problems: dict[str, list[str]] = {
            "missing_blob": [],
            "corrupt_blob": [],
            "digest_mismatch": [],
            "rebuild_mismatch": [],
        }
        for key, digest in self.index.payload_rows():
            try:
                frame = self.blobs.read(key)
            except StoreIntegrityError:
                problems["missing_blob"].append(key)
                continue
            if blob_digest(frame) != digest:
                problems["digest_mismatch"].append(key)
                continue
            try:
                matrix = decode_matrix(frame)
            except StoreError:
                problems["corrupt_blob"].append(key)
                continue
            if rebuild:
                rebuilt = self.spec_for(key).build()
                if rebuilt != matrix or rebuilt.meta != matrix.meta:
                    problems["rebuild_mismatch"].append(key)
        return problems

    def stats(self) -> dict[str, Any]:
        """Shape and size of the store.

        ``entries``, ``by_kind`` and ``payload_bytes`` come from one
        aggregate query over committed rows; ``pending_writes`` counts
        queued writes not yet committed (stats does not wait for them).
        ``blobs_on_disk`` and ``staging_files`` list directories, so they
        cost O(entries).
        """
        totals = self.index.kind_totals()
        with self._cv:
            pending = sum(self._pending.values())
        return {
            "root": str(self.root),
            "schema_version": self.index.schema_version(),
            "entries": sum(rows for rows, _ in totals.values()),
            "by_kind": {kind: rows for kind, (rows, _) in totals.items()},
            "payload_bytes": sum(size for _, size in totals.values()),
            "pending_writes": pending,
            "blobs_on_disk": sum(1 for _ in self.blobs.keys()),
            "staging_files": len(self.blobs.staging_files()),
        }

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Flush queued writes, stop the writer thread, close the index."""
        try:
            with self._cv:
                writer, self._writer = self._writer, None
                self._closing = True
                self._cv.notify_all()
            if writer is not None:
                writer.join()  # it drains the queue before it exits
            _WRITING.discard(self)
            self.flush()  # re-raises a failure the writer met
        finally:
            self.index.close()

    def __enter__(self) -> "ScenarioStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"ScenarioStore(root={str(self.root)!r}, entries={self.index.count()})"
