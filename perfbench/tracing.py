"""Traced runs: a thread-safe span recorder, layer spans around public
calls, self-time derivation and the per-layer metrics.

The program already opens spans at some layer boundaries
(``engine.analyze``, ``cvb.build``, ``cvb.iteration``,
``autostats.ensure_fresh``, ``serve.request``, ``serve.build``,
``durability.checkpoint``).  :func:`layer_spans` adds the missing ones by
temporarily replacing public functions with wrappers that open a span and
call the original; nothing is edited on disk, and the originals are back
when the ``with`` block ends.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import defaultdict
from contextlib import contextmanager

from repro.core import bounds
from repro.distinct.estimators import GEEEstimator
from repro.distinct.frequency import FrequencyProfile
from repro.durability import CatalogStore
from repro.engine.table import Table
from repro.obs import trace
from repro.obs.trace import SpanRecord, TraceRecorder
from repro.serve import server as server_module
from repro.serve.bucket_index import BucketIndex
from repro.serve.telemetry import ServerTelemetry

from .common import BUILD_PARAMS, mean


class ThreadLocalRecorder(TraceRecorder):
    """A :class:`TraceRecorder` with one span stack per thread.

    The base recorder keeps a single stack, which interleaves when the
    server handles requests on several threads; here each thread nests its
    own spans, so parent ids stay right.  Undeclared span names are
    accepted (the benchmark adds its own).
    """

    def __init__(self):
        super().__init__(strict=False)
        self._local = threading.local()
        self._ids = itertools.count()
        self._append_lock = threading.Lock()

    def _thread_stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        span_id = next(self._ids)
        self._thread_stack().append(span_id)
        return span_id

    def _close(self, record: SpanRecord) -> None:
        self._thread_stack().pop()
        with self._append_lock:
            self.records.append(record)

    @property
    def current_span_id(self) -> int | None:
        stack = self._thread_stack()
        return stack[-1] if stack else None


def _timed(name: str, func):
    """*func* wrapped in a span called *name*."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        with trace.span(name):
            return func(*args, **kwargs)

    return wrapper


@contextmanager
def layer_spans(targets):
    """Open a span around each ``(owner, attribute, span name)`` target
    while the block runs; owners are classes or modules."""
    saved = []
    try:
        for owner, attribute, name in targets:
            original = vars(owner)[attribute]
            saved.append((owner, attribute, original))
            if isinstance(original, classmethod):
                setattr(owner, attribute, classmethod(_timed(name, original.__func__)))
            else:
                setattr(owner, attribute, _timed(name, original))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def build_targets():
    """Layer spans on the ANALYZE path that the program does not open."""
    return [
        (Table, "to_heapfile", "storage.layout"),
        (FrequencyProfile, "from_sample", "distinct.profile"),
        (GEEEstimator, "estimate", "distinct.gee"),
        (CatalogStore, "put", "durability.put"),
    ]


def serve_targets():
    """Layer spans on the serving path that the program does not open."""
    return [
        (server_module, "validate_request", "serve.validate"),
        (BucketIndex, "__init__", "serve.index_build"),
        (ServerTelemetry, "begin_request", "obs.live.telemetry"),
        (ServerTelemetry, "end_request", "obs.live.telemetry"),
        (ServerTelemetry, "record_event", "obs.live.telemetry"),
    ]


# ----------------------------------------------------------------------
# Derivation
# ----------------------------------------------------------------------


def self_times(records) -> dict[str, dict[str, float]]:
    """Per span name: count, total seconds, and self seconds (duration
    minus the time of its child spans)."""
    child_time: dict[int, float] = defaultdict(float)
    for record in records:
        if record.parent_id is not None:
            child_time[record.parent_id] += record.duration_s
    table: dict[str, dict[str, float]] = {}
    for record in records:
        row = table.setdefault(record.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += record.duration_s
        row["self_s"] += record.duration_s - child_time[record.span_id]
    return dict(sorted(table.items()))


def print_self_times(title: str, table: dict[str, dict[str, float]]) -> None:
    """The per-layer self-time table (stdout)."""
    print(f"== {title}: span self time")
    print(f"  {'span':<28} {'count':>8} {'total ms':>12} {'self ms':>12} {'self/call ms':>13}")
    for name, row in table.items():
        count = max(1, row["count"])
        print(
            f"  {name:<28} {row['count']:>8} {row['total_s'] * 1e3:>12.3f} "
            f"{row['self_s'] * 1e3:>12.3f} {row['self_s'] * 1e3 / count:>13.4f}"
        )


def _durations(records, name, **attrs) -> list[float]:
    return [
        r.duration_s
        for r in records
        if r.name == name and all(r.attrs.get(k) == v for k, v in attrs.items())
    ]


def build_layers(records, n: int, journal_bytes: float) -> dict[str, float]:
    """Build-path per-layer metrics from the spans of a traced window."""
    analyzes = [r for r in records if r.name == "engine.analyze"]
    builds = [r for r in records if r.name == "cvb.build"]
    puts = _durations(records, "durability.put")
    tuples = mean(r.attrs.get("tuples_sampled", 0) for r in builds)
    corollary1 = bounds.corollary1_sample_size(
        n, BUILD_PARAMS["k"], BUILD_PARAMS["f"], BUILD_PARAMS["gamma"]
    )
    distinct_s = sum(_durations(records, "distinct.profile")) + sum(
        _durations(records, "distinct.gee")
    )
    return {
        "storage.layout_ms": mean(_durations(records, "storage.layout")) * 1e3,
        "storage.layout_calls": float(len(_durations(records, "storage.layout"))),
        "storage.page_reads": mean(
            (r.io_delta or {}).get("page_reads", 0) for r in analyzes
        ),
        "core.cvb_build_ms": mean(r.duration_s for r in builds) * 1e3,
        "core.cvb_iteration_ms": mean(_durations(records, "cvb.iteration")) * 1e3,
        "core.cvb_iterations": mean(r.attrs.get("iterations", 0) for r in builds),
        "sampling.tuples_per_build": tuples,
        "sampling.sample_over_corollary1": tuples / corollary1 if builds else 0.0,
        "distinct.estimate_ms": distinct_s * 1e3 / len(analyzes) if analyzes else 0.0,
        "engine.analyze_ms": mean(r.duration_s for r in analyzes) * 1e3,
        "durability.put_ms": mean(puts) * 1e3,
        "durability.journal_bytes_per_analyze": journal_bytes / len(puts) if puts else 0.0,
        "durability.checkpoint_ms": mean(_durations(records, "durability.checkpoint")) * 1e3,
    }


def serve_layers(records, cpu_s: float, probes: float) -> dict[str, float]:
    """Server-side per-layer metrics from the spans of a traced window.

    *records* cover the window between the two phase markers; requests are
    the ``serve.handle`` spans other than the marker pings.
    """
    handles = [
        r.duration_s for r in records
        if r.name == "serve.handle" and r.attrs.get("op") != "ping"
    ]
    requests = max(1, len(handles))
    return {
        "serve.handle_us": mean(handles) * 1e6,
        "serve.validate_us": mean(_durations(records, "serve.validate")) * 1e6,
        "serve.index_probes_per_request": probes / requests,
        "serve.cpu_us_per_request": cpu_s * 1e6 / requests,
        "serve.index_build_us": mean(_durations(records, "serve.index_build")) * 1e6,
        "obs.live.telemetry_us": sum(_durations(records, "obs.live.telemetry")) * 1e6 / requests,
        "engine.autostats_check_us": mean(
            _durations(records, "autostats.ensure_fresh", result="fresh")
        ) * 1e6,
        "engine.refreshes": float(
            len(_durations(records, "autostats.ensure_fresh", result="refreshed"))
        ),
        "engine.refresh_ms": mean(
            _durations(records, "autostats.ensure_fresh", result="refreshed")
        ) * 1e3,
    }
