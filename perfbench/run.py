"""The repository benchmark: one command, four workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload analyze_random --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that attributes time to layers.  Human-readable tables
go to stdout first; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", default="paper", help="input sizes: paper (default) or tiny")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    # On SIGTERM, unwind normally so server processes and scratch
    # directories are cleaned up by the finally blocks.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import analyze, serve, tracing
    from perfbench.common import (
        END_TO_END, FAMILY_METRICS, LATE_P99_BOUND_MS, PER_LAYER, SCALES,
        SHARED_TABLE_METRICS, WORKLOADS, family, percentile, print_table,
        result_line,
    )

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {WORKLOADS}", file=sys.stderr)
        return 2
    if args.scale not in SCALES or args.seconds <= 0:
        print("perfbench: --scale must be paper or tiny and --seconds positive", file=sys.stderr)
        return 2
    scale = SCALES[args.scale]
    workroot = ROOT / ".perfbench_work"
    workroot.mkdir(exist_ok=True)
    spans = None  # where a traced run writes its span log
    if args.trace:
        spans = ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.jsonl"
        spans.parent.mkdir(exist_ok=True)
    traced = bool(args.trace)
    prefix = family(args.workload)
    if prefix == "analyze":
        report = analyze.run(args.workload, scale, args.seed, args.seconds, spans, workroot)
    else:
        report = serve.run(args.workload, scale, args.scale, args.seed, args.seconds, spans, workroot)

    attempted, failed = report["attempted"], report["failed"]
    p50, p99, rate = list(FAMILY_METRICS[prefix])[:3]  # the family's own names
    values = {
        **report,
        p50: report["p50_ms"],
        p99: report["p99_ms"],
        rate: report["throughput_per_s"],
        "failed_ratio": failed / attempted if attempted else 0.0,
    }
    if not traced:
        values["setup_s"] = percentile(report["setups"], 0.5)
    else:
        del values[rate]  # mixes traced and untraced work
    values["loadgen.late_p99_ms"] = report["late_p99_ms"]
    units = {**END_TO_END, **FAMILY_METRICS[prefix], **SHARED_TABLE_METRICS,
             "loadgen.late_p99_ms": "ms"}
    shown = [name for name in units if name in values and name not in ("p50_ms", "throughput_per_s")]
    title = f"{args.workload} seed={args.seed} ({attempted} ops)"
    if traced:
        title += ", traced run: end-to-end numbers come from --trace 0"
    print_table(title, {name: (values[name], units[name]) for name in shown})
    if prefix == "serve" and report["late_p99_ms"] > LATE_P99_BOUND_MS:
        print(
            f"INVALID: loadgen.late_p99_ms {report['late_p99_ms']:.3f} ms is above "
            f"the {LATE_P99_BOUND_MS} ms bound; the generator, not the server, set the latencies"
        )
    if not traced:
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    else:
        tracing.print_self_times(args.workload, report["self_times"])
        layers = {**report["layers"], "loadgen.late_p99_ms": report["late_p99_ms"]}
        metrics = {name: (layers.get(name, 0.0), unit) for name, unit in PER_LAYER.items()}
        print_table(f"{args.workload} per-layer", metrics)
    print(result_line(attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
