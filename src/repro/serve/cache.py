"""LRU statistics cache for the serving path.

The catalog (:class:`~repro.engine.catalog.Catalog`) is the source of
truth; the cache in front of it holds the *serving* artifacts — the
:class:`~repro.core.histogram.EquiHeightHistogram` bundle plus the
O(log k) :class:`~repro.serve.bucket_index.BucketIndex` built from it —
for the hottest ``capacity`` columns.

Staleness is not re-invented here: every lookup delegates to
:meth:`~repro.engine.maintenance.AutoStatistics.ensure_fresh`, which
applies the modification-counter policy and rebuilds (single-flight per
column) when needed.  The cache then revalidates its entry against the
catalog's per-key version counter: an entry built from version ``v`` is a
*hit* while the catalog still holds ``v`` and a *refresh* once a rebuild
bumped it.  :meth:`StatsCache.current` makes the same two checks without
building, so a caller can tell in advance that a lookup will be a hit.

Event counters (``hits``/``misses``/``refreshes``/``evictions``) are plain
integers — deterministic under a deterministic request schedule — and are
mirrored to the ``repro_serve_cache_events_total`` metric when obs is on.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from .._rng import RngLike
from ..engine.maintenance import AutoStatistics
from ..engine.statistics import ColumnStatistics
from ..engine.table import Table
from ..exceptions import ParameterError, StatisticsNotFoundError
from ..obs.metrics import inc
from .bucket_index import BucketIndex

__all__ = ["CacheEntry", "StatsCache"]


@dataclass(frozen=True)
class CacheEntry:
    """One cached serving bundle: statistics + index at a catalog version."""

    statistics: ColumnStatistics
    index: BucketIndex
    version: int


class StatsCache:
    """Version-validated LRU cache of serving bundles.

    Thread-safe: the server answers hits on its event loop while worker
    threads build (and the loadgen drives it from many client threads),
    so map mutations are guarded by a lock.  ANALYZE builds themselves
    happen *outside* this
    lock — they go through ``AutoStatistics`` (single-flight) or the
    admission controller — so a slow build never blocks unrelated hits.
    """

    def __init__(self, auto: AutoStatistics | None = None, capacity: int = 128):
        """Cache serving bundles for up to *capacity* columns (LRU beyond)."""
        if capacity < 1:
            raise ParameterError(f"capacity must be >= 1, got {capacity}")
        self.auto = auto or AutoStatistics()
        self.capacity = capacity
        self._entries: OrderedDict[tuple[str, str], CacheEntry] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.refreshes = 0
        self.evictions = 0
        #: Optional observation hook ``listener(kind)`` — the server wires
        #: live telemetry in here (``kind="cache_hit"|"cache_miss"``).
        #: Must never raise; it is called with the cache lock held.
        self.listener = None

    # ------------------------------------------------------------------
    # Lookup path
    # ------------------------------------------------------------------

    def lookup(
        self,
        table: Table,
        column_name: str,
        rng: RngLike | Callable[[], RngLike] = None,
    ) -> CacheEntry:
        """The current serving bundle for ``table.column_name``.

        Delegates freshness to ``AutoStatistics.ensure_fresh`` (which may
        rebuild, seeded by *rng*: a generator, a seed, or a zero-argument
        factory called only for a rebuild), then revalidates the cached
        entry against the catalog version.  Raises
        :class:`~repro.exceptions.StatisticsNotFoundError` when the column
        was never analyzed — cold builds are the server's (admission
        -controlled) job, via :meth:`install`.
        """
        stats = self.auto.ensure_fresh(table, column_name, rng=rng)
        return self._admit(stats)

    def current(self, table_name: str, column_name: str) -> bool:
        """True when :meth:`lookup` would answer with a hit, never building.

        The entry must have been built from the catalog's current version
        (the check :meth:`_admit` makes) and
        :meth:`~repro.engine.maintenance.AutoStatistics.fresh` must find
        the statistics not stale (the check ``ensure_fresh`` makes).
        Counts nothing and leaves the LRU order alone.
        """
        key = (table_name, column_name)
        version = self.auto.manager.catalog.version(*key)
        with self._lock:
            entry = self._entry_at(key, version)
        if entry is None:
            return False
        try:
            return self.auto.fresh(*key) is not None
        except StatisticsNotFoundError:  # dropped from the catalog
            return False

    def install(self, statistics: ColumnStatistics) -> CacheEntry:
        """Cache the bundle for freshly built *statistics* and return it.

        Used by the server after a cold ANALYZE (the build already went
        through admission control); also handy in tests.
        """
        return self._admit(statistics)

    def _admit(self, stats: ColumnStatistics) -> CacheEntry:
        """Revalidate/refresh the entry for *stats* and apply LRU accounting."""
        key = (stats.table_name, stats.column_name)
        version = self.auto.manager.catalog.version(*key)
        with self._lock:
            entry = self._entry_at(key, version)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                inc("repro_serve_cache_events_total", event="hit")
                if self.listener is not None:
                    self.listener("cache_hit")
                return entry
            if key not in self._entries:
                self.misses += 1
                inc("repro_serve_cache_events_total", event="miss")
                if self.listener is not None:
                    self.listener("cache_miss")
            else:
                self.refreshes += 1
                inc("repro_serve_cache_events_total", event="refresh")
            entry = CacheEntry(
                statistics=stats, index=BucketIndex(stats.histogram),
                version=version,
            )
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                inc("repro_serve_cache_events_total", event="evict")
            return entry

    def _entry_at(self, key: tuple[str, str], version: int) -> CacheEntry | None:
        """The entry for *key* if it was built from catalog *version*
        (caller holds the lock)."""
        entry = self._entries.get(key)
        return entry if entry is not None and entry.version == version else None

    # ------------------------------------------------------------------
    # Maintenance / introspection
    # ------------------------------------------------------------------

    def peek(self, table_name: str, column_name: str) -> CacheEntry | None:
        """The cached entry, if any, without freshness checks or LRU bumps.

        This is the degraded-serving read: when admission control sheds a
        build, the server answers from the last-known-good bundle here.
        """
        with self._lock:
            return self._entries.get((table_name, column_name))

    def invalidate(self, table_name: str, column_name: str) -> None:
        """Drop the entry (e.g. after ``DROP STATISTICS``); no-op if absent."""
        with self._lock:
            self._entries.pop((table_name, column_name), None)

    def __len__(self) -> int:
        """Number of cached columns."""
        with self._lock:
            return len(self._entries)

    def counters(self) -> dict[str, int]:
        """Deterministic event counters (hit/miss/refresh/evict totals)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "refreshes": self.refreshes,
                "evictions": self.evictions,
            }
