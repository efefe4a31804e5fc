"""Statistics staleness tracking and refresh policy.

The paper's closest prior work (GMP [8]) keeps histograms fresh by paying
per-insert maintenance; the paper's own stance — and what SQL Server ships —
is cheaper: rebuild by sampling when enough of the table has changed.  This
module supplies that policy glue:

- :class:`ModificationCounter` tracks inserts/updates/deletes per column,
- :class:`RefreshPolicy` decides when statistics are stale (SQL Server's
  classic rule: a refresh after ~20% of rows changed, with a 500-row floor),
- :class:`AutoStatistics` wires both to a :class:`StatisticsManager` so that
  ``ensure_fresh`` transparently re-runs the CVB build when needed.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from .._rng import RngLike
from ..exceptions import ParameterError
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .resilience import build_or_fallback
from .statistics import ColumnStatistics, StatisticsManager
from .table import Table

__all__ = ["ModificationCounter", "RefreshPolicy", "AutoStatistics"]


class ModificationCounter:
    """Counts row modifications per (table, column) since the last refresh."""

    def __init__(self):
        self._counts: dict[tuple[str, str], int] = {}

    def record(self, table_name: str, column_name: str, rows: int = 1) -> None:
        """Register *rows* modified rows (insert, update or delete alike)."""
        if rows < 0:
            raise ParameterError(f"rows must be non-negative, got {rows}")
        key = (table_name, column_name)
        self._counts[key] = self._counts.get(key, 0) + rows

    def since_refresh(self, table_name: str, column_name: str) -> int:
        """Modifications recorded since the last ``reset``."""
        return self._counts.get((table_name, column_name), 0)

    def reset(self, table_name: str, column_name: str) -> None:
        """Zero the counter after a successful refresh."""
        self._counts.pop((table_name, column_name), None)


@dataclass(frozen=True)
class RefreshPolicy:
    """When do statistics count as stale?

    The default mirrors SQL Server's long-standing auto-update rule:
    stale once ``max(floor_rows, fraction * n)`` modifications accumulate.
    """

    fraction: float = 0.20
    floor_rows: int = 500

    def __post_init__(self):
        if not 0 < self.fraction <= 1:
            raise ParameterError(
                f"fraction must be in (0, 1], got {self.fraction}"
            )
        if self.floor_rows < 0:
            raise ParameterError(
                f"floor_rows must be non-negative, got {self.floor_rows}"
            )

    def threshold(self, n: int) -> int:
        """Modifications after which statistics over *n* rows are stale."""
        if n < 0:
            raise ParameterError(f"n must be non-negative, got {n}")
        return max(self.floor_rows, int(self.fraction * n))

    def is_stale(self, statistics: ColumnStatistics, modified: int) -> bool:
        """True when *modified* crosses the threshold for *statistics*."""
        return modified >= self.threshold(statistics.n)


class AutoStatistics:
    """Auto-refreshing statistics frontend.

    Wraps a :class:`StatisticsManager`: reads go through ``ensure_fresh``,
    which rebuilds (with the remembered ANALYZE parameters) when the
    modification counter crosses the policy threshold.
    """

    def __init__(
        self,
        manager: StatisticsManager | None = None,
        policy: RefreshPolicy | None = None,
    ):
        self.manager = manager or StatisticsManager()
        self.policy = policy or RefreshPolicy()
        self.modifications = ModificationCounter()
        self.refresh_count = 0
        #: How many refreshes aborted and served a degraded last-known-good.
        self.degraded_count = 0
        self._flight_guard = threading.Lock()
        self._flight_locks: dict[tuple[str, str], threading.Lock] = {}

    def _flight_lock(self, table_name: str, column_name: str) -> threading.Lock:
        """The single-flight lock serialising refreshes of one column."""
        key = (table_name, column_name)
        with self._flight_guard:
            lock = self._flight_locks.get(key)
            if lock is None:
                lock = self._flight_locks[key] = threading.Lock()
            return lock

    def analyze(
        self, table: Table, column_name: str, rng: RngLike = None, **params
    ) -> ColumnStatistics:
        """Initial ANALYZE; remembers *params* for later auto-refreshes."""
        stats = self.manager.analyze(table, column_name, rng=rng, **params)
        self.modifications.reset(table.name, column_name)
        return stats

    def record_modifications(
        self, table_name: str, column_name: str, rows: int
    ) -> None:
        """Report that *rows* rows of the column changed."""
        self.modifications.record(table_name, column_name, rows)

    def fresh(self, table_name: str, column_name: str) -> ColumnStatistics | None:
        """The column's statistics if they are not stale, else ``None``.

        The one staleness check, and it never builds: :meth:`ensure_fresh`
        makes it before and after taking the flight lock, and the server
        makes it to decide whether a request can be answered without a
        build.  Raises :class:`~repro.exceptions.StatisticsNotFoundError`
        when the column was never analyzed.
        """
        stats = self.manager.statistics(table_name, column_name)
        modified = self.modifications.since_refresh(table_name, column_name)
        return None if self.policy.is_stale(stats, modified) else stats

    def is_stale(self, table_name: str, column_name: str) -> bool:
        """True when the column's statistics have crossed the staleness threshold."""
        return self.fresh(table_name, column_name) is None

    def ensure_fresh(
        self,
        table: Table,
        column_name: str,
        rng: RngLike | Callable[[], RngLike] = None,
    ) -> ColumnStatistics:
        """Return current statistics, rebuilding first if they are stale.

        The rebuild re-runs ANALYZE against the table's *current* column
        contents with the parameters of the previous build.  *rng* seeds
        the rebuild's sampling; it may also be a zero-argument factory,
        called only when a rebuild actually runs, so a fresh read builds
        no generator.

        This method never raises :class:`~repro.exceptions.BuildAbortedError`:
        when the rebuild dies (read budget exhausted, too many bad pages) the
        last-known-good bundle is served instead, flagged ``degraded=True``.
        The modification counter is *not* reset in that case, so the very
        next read attempts the refresh again — a later successful rebuild
        replaces the degraded bundle with a fresh, undegraded one.

        Refreshes are **single-flight per column**: concurrent callers that
        observe the same stale statistics serialise on a per-column lock and
        re-check staleness after acquiring it, so exactly one of them runs
        the rebuild while the rest return the freshly built bundle.  Without
        this, the async server's first burst of queries after a modification
        wave would pile duplicate ANALYZE scans onto the same column.
        """
        with _trace.span(
            "autostats.ensure_fresh", table=table.name, column=column_name
        ) as span:
            stats = self.fresh(table.name, column_name)
            if stats is not None:
                _metrics.inc("repro_autostats_requests_total", result="fresh")
                span.set(result="fresh")
                return stats
            with self._flight_lock(table.name, column_name):
                # Double-checked staleness: a concurrent caller may have
                # finished the rebuild while we waited on the lock.
                stats = self.fresh(table.name, column_name)
                if stats is not None:
                    _metrics.inc(
                        "repro_autostats_requests_total", result="fresh"
                    )
                    span.set(result="fresh")
                    return stats
                stale = self.manager.statistics(table.name, column_name)
                return self._refresh_locked(table, column_name, stale, rng, span)

    def _refresh_locked(self, table, column_name, stats, rng, span):
        """Run the stale-statistics rebuild while holding the flight lock."""
        params = dict(stats.build_params)
        params.setdefault("k", stats.histogram.k)
        refreshed, ok = build_or_fallback(
            self.manager,
            table,
            column_name,
            fallback=stats,
            rng=rng() if callable(rng) else rng,
            method=stats.method,
            **params,
        )
        if not ok:
            self.degraded_count += 1
            _metrics.inc("repro_autostats_requests_total", result="degraded")
            span.set(result="degraded")
            return refreshed
        self.modifications.reset(table.name, column_name)
        self.refresh_count += 1
        _metrics.inc("repro_autostats_requests_total", result="refreshed")
        span.set(result="refreshed")
        return refreshed
