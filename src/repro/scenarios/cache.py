"""Content-addressed scenario result cache with LRU + byte-budget eviction.

A :class:`ScenarioCache` maps :meth:`ScenarioSpec.cache_key()
<repro.scenarios.ScenarioSpec.cache_key>` — the SHA-256 of a spec's canonical
JSON — to its built :class:`~repro.core.TrafficMatrix`.  Because a spec fully
determines its matrix (all randomness flows through the spec's seed, the
guarantee :mod:`repro.verify` fuzzes continuously), serving a cached result is
*bit-identical* to rebuilding: packets, colours, labels, and provenance
metadata all match.  That contract is what makes the cache safe to put in
front of every build path, and it is enforced by the ``cache_delta`` oracle in
:func:`repro.verify.default_oracles`, not assumed.

A :class:`TrafficMatrix` is an **immutable value, shared, never copied**: the
L1 entry, every caller served from it and the store's writer all hold the
same object, and none of them can change what the next hit receives.
Eviction is plain LRU, bounded by entry count and/or resident bytes; both
bounds are deterministic, so a replayed workload evicts the same keys in the
same order on every backend.

**Tiers.**  With a :class:`~repro.store.ScenarioStore` attached the cache
becomes a two-level hierarchy: the in-memory LRU is **L1**, the durable store
is **L2**.  Reads fall through L1 → L2 → build (read-through: an L2 hit is
promoted back into L1).  The store's in-memory key view answers first, so a
key the store does not hold costs a set lookup, not a query.  Writes go to
both, write-behind: ``put`` hands L1's matrix to the store's writer thread,
which group-commits it, so corpora survive restarts and are shared across
processes.  A written entry is durable after :meth:`ScenarioCache.flush`
(or the store's ``flush``/``close``); the synchronous batch path and
:meth:`ScenarioCache.warm` flush before they return.  Eviction from L1 costs
nothing durable — the entry is still in L2 (or queued for it), and the next
read quietly promotes it back.

:class:`CacheAnalytics` is the observability surface: hits, misses,
evictions, resident bytes, per-family hit rates, and — when a store is
attached — the per-tier split (``l1_hits``/``l2_hits``/``promotions``),
exposed through ``ScenarioService.stats()`` and :meth:`ScenarioCache.stats`.
``hits`` stays the *total* across tiers, so existing dashboards keep reading
the number they always did.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.errors import ScenarioError
from repro.obs import metrics as _obs
from repro.scenarios.registry import get_generator
from repro.scenarios.spec import ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.traffic_matrix import TrafficMatrix
    from repro.store import ScenarioStore

__all__ = ["matrix_bytes", "CacheAnalytics", "ScenarioCache"]


def matrix_bytes(matrix: "TrafficMatrix") -> int:
    """Approximate resident size of one cached matrix.

    Counts the two dense grids (packets, colours) plus label text; the small
    per-object overheads are deliberately ignored — the byte budget exists to
    bound memory at the array level, where the real weight is.
    """
    return int(
        matrix.packets.nbytes
        + matrix.colors.nbytes
        + sum(len(label) for label in matrix.labels)
    )


@dataclass(frozen=True)
class CacheAnalytics:
    """Immutable snapshot of a cache's counters at one instant.

    ``family_hits``/``family_misses`` bucket traffic by the *base* generator's
    registry family (``pattern``, ``attack``, ``ddos``, …) — the per-workload
    view that tells an operator which scenario families actually benefit from
    warming.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    puts: int = 0
    entries: int = 0
    bytes: int = 0
    max_entries: int | None = None
    max_bytes: int | None = None
    family_hits: Mapping[str, int] = field(default_factory=dict)
    family_misses: Mapping[str, int] = field(default_factory=dict)
    l1_hits: int = 0
    l2_hits: int = 0
    promotions: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Overall hit fraction (0.0 on a cold, untouched cache)."""
        return self.hits / self.requests if self.requests else 0.0

    @property
    def l1_hit_rate(self) -> float:
        """Fraction of all requests served from memory."""
        return self.l1_hits / self.requests if self.requests else 0.0

    @property
    def l2_hit_rate(self) -> float:
        """Fraction of all requests served from the durable store."""
        return self.l2_hits / self.requests if self.requests else 0.0

    def family_hit_rates(self) -> dict[str, float]:
        """Hit fraction per scenario family, for every family seen."""
        out: dict[str, float] = {}
        for family in sorted(set(self.family_hits) | set(self.family_misses)):
            h = self.family_hits.get(family, 0)
            m = self.family_misses.get(family, 0)
            out[family] = h / (h + m) if h + m else 0.0
        return out

    def to_dict(self) -> dict[str, object]:
        """JSON-able form (what ``ScenarioService.stats()`` embeds)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "puts": self.puts,
            "entries": self.entries,
            "bytes": self.bytes,
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
            "hit_rate": self.hit_rate,
            "family_hit_rates": self.family_hit_rates(),
            "tiers": {
                "l1_hits": self.l1_hits,
                "l2_hits": self.l2_hits,
                "l1_hit_rate": self.l1_hit_rate,
                "l2_hit_rate": self.l2_hit_rate,
                "promotions": self.promotions,
            },
        }


class ScenarioCache:
    """LRU result cache keyed by :meth:`ScenarioSpec.cache_key`.

    Parameters
    ----------
    max_entries:
        Entry-count bound (``None`` = unbounded).  The least-recently-used
        entry is evicted first.
    max_bytes:
        Resident-byte bound over all cached grids (``None`` = unbounded).
        A single matrix larger than the whole budget is simply not retained —
        admitting it would evict everything else for a entry that can never
        pay for itself.
    store:
        Optional durable L2 tier (a :class:`~repro.store.ScenarioStore` or
        anything with its ``knows``/``get``/``contains``/``put_behind``/
        ``flush`` surface).  Reads fall through to it on an L1 miss and
        promote hits back into memory; writes are queued to it,
        oversized-for-L1 entries included — the byte budget bounds
        *memory*, not durability.

    All operations are thread-safe (one re-entrant lock): the asyncio service
    touches the cache from its event-loop thread and from ``to_thread`` delta
    rebuilds, while the sync batch path may use the same instance.  Store I/O
    runs *outside* the lock so a slow disk never blocks concurrent L1 hits.
    """

    def __init__(
        self,
        max_entries: int | None = 256,
        max_bytes: int | None = None,
        *,
        store: "ScenarioStore | None" = None,
    ) -> None:
        if max_entries is not None and int(max_entries) < 1:
            raise ScenarioError(
                f"cache max_entries must be >= 1 or None, got {max_entries}"
            )
        if max_bytes is not None and int(max_bytes) < 1:
            raise ScenarioError(
                f"cache max_bytes must be >= 1 or None, got {max_bytes}"
            )
        self.max_entries = None if max_entries is None else int(max_entries)
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self.store = store
        # key -> (family, matrix, bytes); insertion order doubles as LRU order
        self._entries: "OrderedDict[str, tuple[str, TrafficMatrix, int]]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._puts = 0
        self._family_hits: dict[str, int] = {}
        self._family_misses: dict[str, int] = {}
        self._l1_hits = 0
        self._l2_hits = 0
        self._promotions = 0

    # ------------------------------------------------------------------ #
    # keys
    # ------------------------------------------------------------------ #

    @staticmethod
    def key_of(spec: "ScenarioSpec | str") -> str:
        """The cache key for *spec* (a raw key string passes through)."""
        if isinstance(spec, ScenarioSpec):
            return spec.cache_key()
        if isinstance(spec, str):
            return spec
        raise ScenarioError(
            f"cache keys come from ScenarioSpec or str, got {type(spec).__name__}"
        )

    @staticmethod
    def _family_of(spec: ScenarioSpec) -> str:
        try:
            return get_generator(spec.base).family
        except ScenarioError:
            return "unknown"

    # ------------------------------------------------------------------ #
    # core operations
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, spec: "ScenarioSpec | str") -> bool:
        """Presence peek across both tiers — counter-neutral, no LRU touch."""
        key = self.key_of(spec)
        with self._lock:
            if key in self._entries:
                return True
        return (
            self.store is not None
            and self.store.knows(key)
            and self.store.contains(key)
        )

    def get(
        self, spec: ScenarioSpec, key: str | None = None
    ) -> "TrafficMatrix | None":
        """The cached matrix for *spec* (shared, never copied), or ``None``.

        Counts one hit or miss and refreshes the entry's LRU position.  With
        a store attached, an L1 miss falls through to L2; an L2 hit counts as
        a hit (tier-tagged) and is promoted back into memory.  ``key`` is
        ``spec.cache_key()`` when the caller has already computed it.
        """
        matrix, tier = self._get_with_tier(spec, key)
        return matrix if tier is not None else None

    def _get_with_tier(
        self, spec: ScenarioSpec, key: str | None = None
    ) -> "tuple[TrafficMatrix | None, str | None]":
        """``(matrix, tier)`` with tier ``"l1"``, ``"l2"``, or ``None`` (miss)."""
        if key is None:
            key = self.key_of(spec)
        family = self._family_of(spec)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                self._l1_hits += 1
                self._family_hits[family] = self._family_hits.get(family, 0) + 1
                _obs.counter("scenario.cache.hits").inc()
                _obs.counter("scenario.cache.hits.l1").inc()
                _obs.counter(f"scenario.cache.hits.{family}").inc()
                return entry[1], "l1"
        # L1 miss — consult the durable tier outside the lock (disk latency
        # must not serialise concurrent L1 readers), and only for a key its
        # view holds: a cold miss never reaches SQLite.
        if self.store is not None and self.store.knows(key):
            loaded = self.store.get(key)
            if loaded is not None:
                self._promote(key, family, loaded)
                with self._lock:
                    self._hits += 1
                    self._l2_hits += 1
                    self._family_hits[family] = self._family_hits.get(family, 0) + 1
                _obs.counter("scenario.cache.hits").inc()
                _obs.counter("scenario.cache.hits.l2").inc()
                _obs.counter(f"scenario.cache.hits.{family}").inc()
                return loaded, "l2"
        with self._lock:
            self._misses += 1
            self._family_misses[family] = self._family_misses.get(family, 0) + 1
        _obs.counter("scenario.cache.misses").inc()
        _obs.counter(f"scenario.cache.misses.{family}").inc()
        return None, None

    def _promote(self, key: str, family: str, matrix: "TrafficMatrix") -> None:
        """Put an L2 hit into L1 (a promotion, not a put — counted apart)."""
        size = matrix_bytes(matrix)
        if self.max_bytes is not None and size > self.max_bytes:
            return  # oversized for memory; it stays served from L2
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[2]
            self._entries[key] = (family, matrix, size)
            self._bytes += size
            self._promotions += 1
            _obs.counter("scenario.cache.promotions").inc()
            self._evict_over_budget()
            self._sync_gauges()

    def put(
        self, spec: ScenarioSpec, matrix: "TrafficMatrix", key: str | None = None
    ) -> str:
        """Store a built matrix under the spec's content address.

        The cache holds *matrix* itself — an immutable value, shared with the
        caller, never copied — then evicts least-recently-used entries until
        both bounds hold.  With a store attached the same object is queued
        for L2 (write-behind, see the module docstring) — including entries
        too large for the memory budget, which L1 refuses but the durable
        tier happily keeps.
        ``key`` is ``spec.cache_key()`` when the caller has already computed
        it.  Returns the cache key.
        """
        if key is None:
            key = self.key_of(spec)
        size = matrix_bytes(matrix)
        fits = self.max_bytes is None or size <= self.max_bytes
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[2]
            if fits:
                self._entries[key] = (self._family_of(spec), matrix, size)
                self._bytes += size
                self._puts += 1
                _obs.counter("scenario.cache.puts").inc()
                self._evict_over_budget()
            elif old is not None:
                # An entry larger than the whole budget can never pay for
                # itself; admitting it would flush every other entry first.
                # Refuse it, and count the stale entry it displaces.
                self._evictions += 1
                _obs.counter("scenario.cache.evictions").inc()
            self._sync_gauges()
        if self.store is not None:
            self.store.put_behind(key, spec, matrix)
        return key

    def flush(self) -> None:
        """Wait until every write queued for the store is durable (no-op
        without a store); re-raises a failure the store's writer met."""
        if self.store is not None:
            self.store.flush()

    def _evict_over_budget(self) -> None:
        """Drop LRU entries until both bounds hold (call with the lock held)."""
        while self._entries and (
            (self.max_entries is not None and len(self._entries) > self.max_entries)
            or (self.max_bytes is not None and self._bytes > self.max_bytes)
        ):
            _, (_, _, size) = self._entries.popitem(last=False)
            self._bytes -= size
            self._evictions += 1
            _obs.counter("scenario.cache.evictions").inc()

    def _sync_gauges(self) -> None:
        """Mirror residency into the process registry (call with the lock held).

        Counters above are per-event increments and so aggregate correctly
        across several cache instances; residency is a point-in-time level,
        so the gauges reflect the cache touched most recently — the common
        single-service deployment reads them as that cache's residency.
        """
        _obs.gauge("scenario.cache.entries").set(float(len(self._entries)))
        _obs.gauge("scenario.cache.bytes").set(float(self._bytes))

    def fetch(
        self, spec: ScenarioSpec
    ) -> "tuple[TrafficMatrix, bool]":
        """Get-or-build: ``(matrix, was_hit)``.  A miss builds and stores."""
        matrix, tier = self.fetch_tiered(spec)
        return matrix, tier != "build"

    def fetch_tiered(
        self, spec: ScenarioSpec
    ) -> "tuple[TrafficMatrix, str]":
        """Get-or-build with provenance: ``(matrix, tier)``.

        ``tier`` names where the matrix came from — ``"l1"`` (memory),
        ``"l2"`` (durable store), or ``"build"`` (freshly built, and stored
        through both tiers on the way out).
        """
        key = spec.cache_key()
        cached, tier = self._get_with_tier(spec, key)
        if cached is not None and tier is not None:
            return cached, tier
        built = spec.build()
        self.put(spec, built, key)
        return built, "build"

    def warm(self, specs: Iterable[ScenarioSpec]) -> int:
        """Pre-populate the cache; returns the number of specs actually built.

        Idempotent: specs already resident are skipped with a counter-neutral
        presence peek (warming is maintenance, not traffic — it must not skew
        hit rates), and duplicate specs in one call build once.  The builds
        themselves run through :func:`repro.scenarios.generate_batch` with
        this cache attached, under the process-wide runtime config
        (:func:`repro.runtime.configure`; scope one with
        :func:`repro.runtime.configured`), so they parallelise like any batch,
        their misses/puts are accounted normally, and their store writes are
        durable when this returns.
        """
        from repro.scenarios.batch import generate_batch

        missing: list[ScenarioSpec] = []
        seen: set[str] = set()
        for spec in specs:
            if not isinstance(spec, ScenarioSpec):
                raise ScenarioError(
                    f"warm expects ScenarioSpec items, got {type(spec).__name__}"
                )
            key = spec.cache_key()
            if key in seen or key in self:
                continue
            seen.add(key)
            missing.append(spec)
        if missing:
            generate_batch(missing, cache=self)
        return len(missing)

    def clear(self) -> None:
        """Drop every L1 entry (counters are kept — lifetime analytics survive).

        The durable tier is deliberately untouched: clearing memory is a
        residency decision, deleting from the store is data loss.
        """
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self._sync_gauges()

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #

    @property
    def resident_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def keys(self) -> list[str]:
        """Cache keys in LRU order (least recently used first)."""
        with self._lock:
            return list(self._entries)

    def analytics(self) -> CacheAnalytics:
        """A consistent snapshot of every counter."""
        with self._lock:
            return CacheAnalytics(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                puts=self._puts,
                entries=len(self._entries),
                bytes=self._bytes,
                max_entries=self.max_entries,
                max_bytes=self.max_bytes,
                family_hits=dict(self._family_hits),
                family_misses=dict(self._family_misses),
                l1_hits=self._l1_hits,
                l2_hits=self._l2_hits,
                promotions=self._promotions,
            )

    def stats(self) -> dict[str, object]:
        """JSON-able analytics (see :meth:`CacheAnalytics.to_dict`)."""
        return self.analytics().to_dict()

    def __repr__(self) -> str:
        a = self.analytics()
        return (
            f"ScenarioCache(entries={a.entries}, bytes={a.bytes}, "
            f"hits={a.hits}, misses={a.misses}, evictions={a.evictions})"
        )
