"""Server process of the ``serve_*`` workloads.

Regenerates the workload's table from the seed, hosts it in a
``StatsServer`` behind the TCP front end (``serve_forever``) and, after a
``shutdown`` request, writes its results (peak RSS; with ``--trace 1`` the
per-layer metrics and span self times) to ``--out`` as JSON.  Run by
``perfbench/serve.py`` as::

    python3 -m perfbench.server --workload serve_hot --seed 1 --scale paper \
        --trace 0 --out results.json

In a traced run, two ``ping`` requests from the client bracket the
measured phase; per-layer metrics cover only the spans between them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import threading
import time

from repro.engine.table import Table
from repro.obs import metrics, trace
from repro.serve.server import StatsServer, serve_forever

from . import tracing
from .common import SCALES, make_columns


class _PhaseWindow:
    """Span-log positions, CPU time and probe counts at each ``ping``."""

    def __init__(self, recorder, registry):
        self.recorder, self.registry = recorder, registry
        self.marks: list[tuple[int, float, int]] = []

    def mark(self) -> None:
        probes = self.registry.observations("repro_serve_index_probes")
        self.marks.append((len(self.recorder.records), time.process_time(), len(probes)))

    def layers(self, n: int) -> tuple[dict, dict]:
        """Per-layer metrics and self times of the first marked window."""
        if len(self.marks) < 2:
            return {}, {}
        (r0, cpu0, p0), (r1, cpu1, p1) = self.marks[:2]
        records = self.recorder.records[r0:r1]
        probes = sum(self.registry.observations("repro_serve_index_probes")[p0:p1])
        layers = tracing.build_layers(records, n, journal_bytes=0.0)
        layers.update(tracing.serve_layers(records, cpu1 - cpu0, probes))
        return layers, tracing.self_times(records)


def _phase_handle(original, window):
    """``StatsServer.handle`` inside a root span, marking the window."""

    def handle(self, request):
        op = request.get("op") if isinstance(request, dict) else None
        if op == "ping":
            window.mark()
        with trace.span("serve.handle", op=op):
            return original(self, request)

    return handle


def _exit_with_parent() -> None:
    """Exit as soon as stdin closes: the benchmark process ended or gave up."""
    while os.read(0, 4096):  # raw reads: a buffered reader would hold a lock at exit
        pass
    os._exit(3)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["serve_hot", "serve_churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="paper", choices=sorted(SCALES))
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", help="with --trace 1: write the span log here (JSON lines)")
    args = parser.parse_args(argv)

    threading.Thread(target=_exit_with_parent, daemon=True).start()
    scale = SCALES[args.scale]
    name, columns = make_columns(args.workload, scale, args.seed)
    table = Table(name, columns)
    telemetry = args.workload == "serve_churn"
    results: dict = {}
    if not args.trace:
        server = StatsServer({name: table}, seed=args.seed, telemetry=telemetry)
        serve_forever(server)
    else:
        recorder = tracing.ThreadLocalRecorder()
        registry = metrics.MetricsRegistry()
        window = _PhaseWindow(recorder, registry)
        original = StatsServer.handle
        StatsServer.handle = _phase_handle(original, window)
        metrics.enable(registry)
        trace.start_tracing(recorder)
        try:
            with tracing.layer_spans(tracing.build_targets() + tracing.serve_targets()):
                server = StatsServer({name: table}, seed=args.seed, telemetry=telemetry)
                serve_forever(server)
        finally:
            trace.stop_tracing()
            metrics.disable()
            StatsServer.handle = original
        results["layers"], results["self_times"] = window.layers(table.num_rows)
        if args.spans:
            recorder.write(args.spans)
    results["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w") as handle:
        json.dump(results, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
