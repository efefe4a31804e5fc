"""The ``analyze_random`` and ``analyze_sorted`` workloads.

One caller in a closed loop runs ``StatisticsManager.analyze`` over a
two-column table (Zipf-1 and normal) into a durable ``CatalogStore``,
alternating the columns.  Each call lays the column out (``random`` or
``sorted`` layout), runs CVB with the serve build defaults, estimates the
distinct count and journals the bundle; every eighth call also
checkpoints the store, inside that call's timed region.
"""

from __future__ import annotations

import math
import resource
import shutil
import tempfile
import time

import numpy as np

from repro.core.error_metrics import fractional_max_error
from repro.durability import CatalogStore
from repro.engine.statistics import StatisticsManager
from repro.engine.table import Table
from repro.obs import metrics, trace
from repro.storage.record import RecordSpec

from . import tracing
from .common import (
    BUILD_PARAMS,
    ColumnTruth,
    make_columns,
    mean,
    percentile,
    qerror,
    ratio_error,
    rng_for,
)

#: Calls every run makes, even past ``--seconds``; pages_read_per_analyze
#: averages exactly these, so it repeats for a fixed seed.
MIN_CALLS = 8
CHECKPOINT_EVERY = 8


def _setup(workload, scale, seed, workdir, trial):
    """Generate the table, open a fresh store, warm up with one ANALYZE."""
    name, columns = make_columns(workload, scale, seed)
    table = Table(name, columns)
    store = CatalogStore(tempfile.mkdtemp(dir=workdir))
    manager = StatisticsManager(catalog=store.catalog)
    manager.analyze(
        table, table.column_names[0], layout=workload.split("_", 1)[1],
        rng=rng_for(seed, 20, trial), **BUILD_PARAMS,
    )
    return table, store, manager


class _Loop:
    """Closed-loop ANALYZE caller plus its output checks."""

    def __init__(self, workload, table, store, manager, truths, queries_per_build, seed):
        self.layout = workload.split("_", 1)[1]
        self.table, self.store, self.manager = table, store, manager
        self.truths, self.queries_per_build, self.seed = truths, queries_per_build, seed
        self.pages_in_file = math.ceil(table.num_rows / RecordSpec().blocking_factor)
        self.calls = 0
        self.durations: list[float] = []
        self.rows: list[int] = []
        self.pages: list[int] = []
        self.fprime: list[float] = []
        self.qerrors: list[np.ndarray] = []
        self.distinct_errors: list[float] = []
        self.failed = 0

    def run(self, seconds: float, min_calls: int = 0) -> list[float]:
        """Call ANALYZE until *seconds* of call time and *min_calls* calls
        have passed; return this stretch's call durations."""
        columns = self.table.column_names
        spent, durations = 0.0, []
        while spent < seconds or len(durations) < min_calls:
            i = self.calls
            column = columns[i % len(columns)]
            rng = rng_for(self.seed, 21, i)
            started = time.perf_counter()
            try:
                with trace.span("bench.analyze_call", column=column):
                    stats = self.manager.analyze(
                        self.table, column, layout=self.layout, rng=rng, **BUILD_PARAMS
                    )
                    if (i + 1) % CHECKPOINT_EVERY == 0:
                        self.store.checkpoint()
            except Exception as exc:  # a failed call is counted, not fatal
                print(f"ANALYZE call {i} failed: {type(exc).__name__}: {exc}")
                stats = None
            elapsed = time.perf_counter() - started
            self.calls += 1
            spent += elapsed
            durations.append(elapsed)
            self.durations.append(elapsed)
            self._check(i, column, stats)
        return durations

    def _check(self, i: int, column: str, stats) -> None:
        """Output checks and accuracy scoring, outside the timed region."""
        if stats is None:
            self.failed += 1
            return
        truth = self.truths[column]
        hist = stats.histogram
        whole = stats.estimate_range(hist.min_value, hist.max_value)
        ok = (
            int(hist.total) == stats.sample_size
            and abs(whole - truth.n) <= 1e-9 * truth.n  # scaled total is n
            and bool(np.all(np.diff(hist.separators) >= 0))
            and 0 < stats.pages_read <= self.pages_in_file
            and stats.n == truth.n
        )
        # Fresh seeded ranges per call, so no one query set decides the tail.
        lo, hi, exact = truth.range_queries(rng_for(self.seed, 22, i), self.queries_per_build)
        estimates = np.array([stats.estimate_range(a, b) for a, b in zip(lo, hi)])
        ok = ok and bool(np.all(np.isfinite(estimates)))
        ok = ok and bool(np.all((estimates >= 0) & (estimates <= truth.n)))
        if not ok:
            print(f"ANALYZE call {i} on {column} failed its output check")
            self.failed += 1
            return
        self.rows.append(stats.n)
        self.pages.append(stats.pages_read)
        self.fprime.append(
            fractional_max_error(hist.separators, stats.sample, truth.sorted)
        )
        self.qerrors.append(qerror(estimates, exact))
        self.distinct_errors.append(ratio_error(stats.distinct_estimate, truth.distinct))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: str, scale, seed: int, seconds: float, spans, workroot) -> dict:
    """Run one analyze workload; returns the run's report dict.  With a
    *spans* path the run is traced and writes its span log there."""
    workdir = tempfile.mkdtemp(dir=workroot)
    try:
        return _run(workload, scale, seed, seconds, spans, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workload, scale, seed, seconds, spans, workdir):
    setups = []
    trials = 1 if spans else scale.analyze_setups
    for trial in range(trials):
        started = time.perf_counter()
        table, store, manager = _setup(workload, scale, seed, workdir, trial)
        setups.append(time.perf_counter() - started)
        if trial < trials - 1:
            del table, store, manager

    truths = {c: ColumnTruth(table.column(c).values) for c in table.column_names}
    loop = _Loop(workload, table, store, manager, truths, scale.queries_per_build, seed)
    report = {"setups": setups}

    if not spans:
        loop.run(seconds, min_calls=MIN_CALLS)
    else:
        untraced = loop.run(seconds / 2, min_calls=MIN_CALLS)
        recorder = tracing.ThreadLocalRecorder()
        registry = metrics.MetricsRegistry()
        metrics.enable(registry)
        trace.start_tracing(recorder)
        try:
            with tracing.layer_spans(tracing.build_targets()):
                traced_durations = loop.run(seconds / 2, min_calls=2)
        finally:
            trace.stop_tracing()
            metrics.disable()
        journal = registry.counter_value("repro_checkpoint_bytes_total", kind="journal")
        layers = tracing.build_layers(recorder.records, table.num_rows, journal)
        layers["obs.trace.overhead_ratio"] = mean(traced_durations) / mean(untraced)
        report["layers"] = layers
        report["self_times"] = tracing.self_times(recorder.records)
        recorder.write(str(spans))

    first = loop.pages[:MIN_CALLS]
    qerrors = np.concatenate(loop.qerrors) if loop.qerrors else np.zeros(0)
    report.update(
        attempted=loop.calls,
        failed=loop.failed,
        peak_rss_mb=_peak_rss_mb(),
        p50_ms=percentile(loop.durations, 0.5) * 1e3,
        p99_ms=percentile(loop.durations, 0.99) * 1e3,
        throughput_per_s=sum(loop.rows) / sum(loop.durations) if loop.durations else 0.0,
        pages_read_per_analyze=mean(first),
        max_error_f_mean=mean(loop.fprime),
        qerror_p50=percentile(qerrors, 0.5),
        qerror_p99=percentile(qerrors, 0.99),
        distinct_ratio_error_mean=mean(loop.distinct_errors),
        late_p99_ms=0.0,
    )
    return report
