"""Seeded inputs, ground truth, output checks and the metric surface.

Everything a workload feeds the program derives from ``--seed`` through
:func:`rng_for`; the server process regenerates the same tables from the
same seed, so client and server agree on the data without sharing files.
Ground truth (sorted columns, exact counts) is computed here, outside every
timed region.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from repro.workloads.zipf import zipf_value_set

#: ANALYZE parameters of every build: the serve defaults (k=64, f=0.1,
#: gamma=0.05) of ``repro.serve.server.DEFAULT_BUILD_PARAMS``.
BUILD_PARAMS = {"k": 64, "f": 0.1, "gamma": 0.05}

WORKLOADS = ("analyze_random", "analyze_sorted", "serve_hot", "serve_churn")

@dataclass(frozen=True)
class Scale:
    """Input sizes and load of one benchmark scale."""

    analyze_rows: int
    hot_rows: int
    hot_columns: int
    churn_rows: int
    churn_columns: int
    hot_rate: float  # open-loop requests per second
    churn_rate: float
    churn_modify_share: float  # share of churn requests that are `modify`
    analyze_setups: int  # set-ups per run; setup_s is their median
    serve_setups: int
    queries_per_build: int  # range queries scored against each ANALYZE


SCALES = {
    "paper": Scale(
        analyze_rows=5_000_000, hot_rows=1_000_000, hot_columns=4,
        churn_rows=100_000, churn_columns=160, hot_rate=500.0,
        churn_rate=250.0, churn_modify_share=0.0025, analyze_setups=3, serve_setups=3,
        queries_per_build=200,
    ),
    # For the benchmark's own tests: every code path, in seconds.
    "tiny": Scale(
        analyze_rows=20_000, hot_rows=5_000, hot_columns=2,
        churn_rows=1_000, churn_columns=136, hot_rate=150.0,
        churn_rate=150.0, churn_modify_share=0.05, analyze_setups=2, serve_setups=2,
        queries_per_build=50,
    ),
}

# ----------------------------------------------------------------------
# Metric surface (BENCHMARK.json mirrors these; a test checks it)
# ----------------------------------------------------------------------

#: End-to-end metrics every workload reports with ``--trace 0``: the ones
#: that apply to both families and repeat run to run within their bounds.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "p50_ms": "ms",
    "throughput_per_s": "1/s",
    "qerror_p50": "ratio",
    "distinct_ratio_error_mean": "ratio",
}

#: The rest of the printed table, per family.  Tail latency and tail
#: q-error move by up to 2x between runs on a shared 2-core host (host
#: stalls, and the few builds a serve run makes), so they are reported but
#: not gated; the others are 0 on some workloads or exist in one family.
FAMILY_METRICS = {
    "analyze": {
        "analyze_p50_ms": "ms",
        "analyze_p99_ms": "ms",
        "analyze_rows_per_s": "rows/s",
        "pages_read_per_analyze": "pages",
        "max_error_f_mean": "ratio",
    },
    "serve": {
        "serve_p50_ms": "ms",
        "serve_p99_ms": "ms",
        "serve_rps": "req/s",
        "degraded_ratio": "ratio",
    },
}
#: Table-only metrics of both families.
SHARED_TABLE_METRICS = {"qerror_p99": "ratio", "failed_ratio": "ratio"}

#: A serve run whose generator sent later than this (p99) is invalid.
LATE_P99_BOUND_MS = 5.0

#: Per-layer metrics every workload reports with ``--trace 1``.
PER_LAYER = {
    "storage.layout_ms": "ms",
    "storage.layout_calls": "count",
    "storage.page_reads": "pages",
    "core.cvb_build_ms": "ms",
    "core.cvb_iteration_ms": "ms",
    "core.cvb_iterations": "count",
    "sampling.tuples_per_build": "tuples",
    "sampling.sample_over_corollary1": "ratio",
    "distinct.estimate_ms": "ms",
    "engine.analyze_ms": "ms",
    "engine.autostats_check_us": "us",
    "engine.refreshes": "count",
    "engine.refresh_ms": "ms",
    "durability.put_ms": "ms",
    "durability.journal_bytes_per_analyze": "bytes",
    "durability.checkpoint_ms": "ms",
    "serve.handle_us": "us",
    "serve.transport_us": "us",
    "serve.validate_us": "us",
    "serve.index_probes_per_request": "count",
    "serve.cpu_us_per_request": "us",
    "serve.cache_hit_ratio": "ratio",
    "serve.cache_evictions": "count",
    "serve.index_build_us": "us",
    "serve.admission_queued": "count",
    "serve.admission_shed": "count",
    "obs.live.telemetry_us": "us",
    "loadgen.late_p99_ms": "ms",
    "obs.trace.overhead_ratio": "ratio",
}


def family(workload: str) -> str:
    """``"analyze"`` or ``"serve"``."""
    return workload.split("_", 1)[0]


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------

#: Stream keys: one per table, so both analyze workloads see the same data.
_TABLE_KEYS = {"facts": 1, "hot": 2, "churn": 3}


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """The generator of one named input stream of a seeded run."""
    return np.random.default_rng([int(seed), *key])


def table_spec(workload: str, scale: Scale) -> tuple[str, list[tuple[str, str]], int]:
    """``(table name, [(column, kind)], rows)`` of a workload's table."""
    if family(workload) == "analyze":
        return "facts", [("zipf", "zipf"), ("normal", "normal")], scale.analyze_rows
    if workload == "serve_hot":
        kinds = ["zipf", "normal", "zipf", "normal"]
        columns = [
            (f"{kind}_{i}", kind) for i, kind in enumerate(kinds[: scale.hot_columns])
        ]
        return "hot", columns, scale.hot_rows
    columns = [
        (f"c{i:03d}", "zipf" if i % 2 == 0 else "normal")
        for i in range(scale.churn_columns)
    ]
    return "churn", columns, scale.churn_rows


def make_column(kind: str, n: int, rng: np.random.Generator, column_index: int) -> np.ndarray:
    """A Zipf-1 column (n/50 distinct values) or a normal column.

    Zipf columns follow the repository's experiment convention: exact
    Zipf frequencies (``zipf_counts``), assigned to domain values by a
    fixed per-column permutation, so the dataset shape does not vary from
    seed to seed; where the heavy hitters fall decides how many pages CVB
    reads, and that would otherwise dominate the run-to-run spread.
    Normal columns are drawn from *rng*.
    """
    if kind == "zipf":
        fixed = np.random.default_rng([0, column_index])
        return zipf_value_set(n, max(2, n // 50), 1.0, rng=fixed)
    return np.round(rng.normal(0.0, 1000.0, n), 1)


def make_columns(workload: str, scale: Scale, seed: int) -> tuple[str, dict[str, np.ndarray]]:
    """The workload's table name and column arrays for *seed*."""
    name, columns, n = table_spec(workload, scale)
    key = _TABLE_KEYS[name]
    return name, {
        column: make_column(kind, n, rng_for(seed, key, i), i)
        for i, (column, kind) in enumerate(columns)
    }


# ----------------------------------------------------------------------
# Ground truth
# ----------------------------------------------------------------------


class ColumnTruth:
    """Exact answers about one column, computed from its full contents."""

    def __init__(self, values: np.ndarray):
        self.sorted = np.sort(np.asarray(values, dtype=np.float64))
        self.n = int(self.sorted.size)
        self.distinct = int(np.count_nonzero(np.diff(self.sorted))) + 1

    def range_counts(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Exact rows with ``lo <= X <= hi``, elementwise."""
        return np.searchsorted(self.sorted, hi, side="right") - np.searchsorted(
            self.sorted, lo, side="left"
        )

    def range_queries(self, rng: np.random.Generator, m: int):
        """*m* seeded closed ranges covering 1%-50% of the rows by rank,
        as ``(lo, hi, exact_counts)``."""
        a = rng.integers(0, self.n, m)
        width = rng.integers(max(1, self.n // 100), max(2, self.n // 2), m)
        b = np.minimum(a + width, self.n - 1)
        lo, hi = self.sorted[a], self.sorted[b]
        return lo, hi, self.range_counts(lo, hi)


def qerror(estimate, exact):
    """q-error ``max(e/t, t/e)`` with both sides floored at one row."""
    e = np.maximum(np.asarray(estimate, dtype=np.float64), 1.0)
    t = np.maximum(np.asarray(exact, dtype=np.float64), 1.0)
    return np.maximum(e / t, t / e)


def ratio_error(estimate: float, exact: float) -> float:
    """Ratio error of a distinct-count estimate (1.0 is exact)."""
    e, t = max(float(estimate), 1.0), max(float(exact), 1.0)
    return max(e / t, t / e)


def percentile(values, p: float) -> float:
    """Nearest-rank *p*-th percentile (0..1) of *values* (0.0 when empty).

    The benchmark keeps its own statistics rather than calling the
    program's, so a change to the program cannot change how it is scored.
    """
    xs = np.sort(np.asarray(values, dtype=np.float64))
    if xs.size == 0:
        return 0.0
    return float(xs[max(1, math.ceil(p * xs.size)) - 1])


def mean(values) -> float:
    """Arithmetic mean (0.0 when empty)."""
    values = list(values)
    return math.fsum(values) / len(values) if values else 0.0


def all_finite(obj) -> bool:
    """True when every number anywhere inside the JSON value is finite."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return True
    if isinstance(obj, (int, float)):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(all_finite(value) for value in obj.values())
    if isinstance(obj, list):
        return all(all_finite(value) for value in obj)
    return False


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------


def print_table(title: str, rows: dict[str, tuple[float, str]]) -> None:
    """Human-readable ``name value unit`` lines (stdout, before the JSON)."""
    print(f"== {title}")
    for name, (value, unit) in rows.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")


def result_line(attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> str:
    """The final JSON line of a run."""
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )
