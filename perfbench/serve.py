"""The ``serve_hot`` and ``serve_churn`` workloads (client side).

Set-up starts the server process (``perfbench/server.py``), ANALYZEs every
column over TCP and sends a short warm-up burst; the measured server then
gets :data:`WARMUP_S` more seconds of closed-loop traffic, untimed.  Phase 1
is an open loop at a fixed Poisson rate below saturation; phase 2 is a
closed loop with ``nproc`` connections, each keeping :data:`CLOSED_DEPTH`
requests in flight, and gives the request rate, the median over rounds.  Replies are checked and scored against exact answers
from the generated table after each phase.

``serve_hot`` serves a few large columns that all fit in the cache,
read-only, telemetry off.  ``serve_churn`` serves more columns than the
cache holds, with Zipf popularity, live telemetry on, and a seeded share
of ``modify`` requests that each push a column past the refresh threshold,
so the next read of it rebuilds while other reads continue.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.engine.maintenance import RefreshPolicy
from repro.workloads.zipf import zipf_weights

from . import loadgen
from .common import (
    ColumnTruth,
    all_finite,
    make_columns,
    mean,
    percentile,
    qerror,
    ratio_error,
    rng_for,
)

ROOT = Path(__file__).resolve().parent.parent

#: Estimate mix of ``repro.serve.loadgen.DEFAULT_MIX``.
MIX = (
    ("estimate_range", 0.70),
    ("estimate_equality", 0.15),
    ("estimate_quantile", 0.10),
    ("estimate_distinct", 0.05),
)
CONNECTIONS = len(os.sched_getaffinity(0))  # nproc
OPEN_SHARE = 0.5  # of --seconds; the closed loop gets the rest
#: The open and closed phases alternate in this many rounds, so each phase
#: spans the whole run: host slowdowns last tens of seconds, and a phase
#: confined to one half of the run would catch or miss them whole.
ROUNDS = 8
WARMUP_REQUESTS = 200
#: Closed-loop seconds after the last set-up and before measuring, outside
#: ``setup_s``: the server's first second of traffic runs faster than the
#: rest (its cache and heap are still as set-up left them).
WARMUP_S = 1.0
CLOSED_REQUESTS = 20_000  # the closed loop cycles through these
CLOSED_DEPTH = 16  # requests in flight per closed-loop connection
READY_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Request:
    """One pre-encoded request line and what a correct reply looks like."""

    payload: bytes
    op: str
    n: int
    exact: float | None  # range count, distinct count or modified rows


def _line(obj: dict) -> bytes:
    return (json.dumps(obj, sort_keys=True) + "\n").encode()


def make_requests(workload, table_name, truths, count, seed, stream, modify_share) -> list[Request]:
    """*count* seeded requests over the columns of *truths*."""
    rng = rng_for(seed, 30, stream)
    names = list(truths)
    if workload == "serve_churn":
        popularity = zipf_weights(len(names), 1.0)[rng_for(seed, 31).permutation(len(names))]
    else:
        popularity = np.full(len(names), 1.0 / len(names))
    columns = rng.choice(len(names), size=count, p=popularity)
    picks = np.searchsorted(np.cumsum([w for _, w in MIX]), rng.random(count) * 0.9999999)
    modifies = rng.random(count) < modify_share
    requests = []
    for column_index, pick, modify in zip(columns, picks, modifies):
        column = names[column_index]
        truth = truths[column]
        base = {"table": table_name, "column": column}
        if modify:
            rows = RefreshPolicy().threshold(truth.n)
            requests.append(Request(_line({"op": "modify", "rows": rows, **base}), "modify", truth.n, rows))
            continue
        op = MIX[pick][0]
        exact = None
        if op == "estimate_range":
            lo, hi, counts = truth.range_queries(rng, 1)
            base.update(lo=float(lo[0]), hi=float(hi[0]))
            exact = float(counts[0])
        elif op == "estimate_equality":
            base["value"] = float(truth.sorted[rng.integers(truth.n)])
        elif op == "estimate_quantile":
            base["q"] = float(rng.random())
        else:
            exact = float(truth.distinct)
        requests.append(Request(_line({"op": op, **base}), op, truth.n, exact))
    return requests


class Scores:
    """Output checks and accuracy over the replies of measured phases."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.answers = 0
        self.degraded = 0
        self.qerrors: list[float] = []
        self.distinct_errors: list[float] = []

    def add(self, exchange: loadgen.Exchange, requests: list[Request]) -> None:
        self.attempted += len(exchange.replies)
        self.failed += exchange.extra_lines
        for index, line in zip(exchange.indices, exchange.replies):
            if not self._check(line, requests[index]):
                self.failed += 1

    def _check(self, line, request: Request) -> bool:
        if line is None:
            return False
        try:
            reply = json.loads(line)
        except ValueError:
            return False
        if not isinstance(reply, dict) or reply.get("ok") is not True:
            return False
        result = reply.get("result")
        if reply.get("op") != request.op or not isinstance(result, dict) or not all_finite(reply):
            return False
        if request.op == "modify":
            return result.get("recorded") == request.exact
        self.answers += 1
        self.degraded += result.get("degraded") is True
        if request.op in ("estimate_range", "estimate_equality"):
            rows = result.get("rows")
            if not isinstance(rows, (int, float)) or not 0 <= rows <= request.n:
                return False
            if request.op == "estimate_range":
                self.qerrors.append(float(qerror(rows, request.exact)))
        elif request.op == "estimate_quantile":
            return isinstance(result.get("value"), (int, float))
        else:
            distinct = result.get("distinct")
            if not isinstance(distinct, (int, float)) or distinct <= 0:
                return False
            self.distinct_errors.append(ratio_error(distinct, request.exact))
        return True

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class ServerProcess:
    """The server subprocess: start, wait for its address, stop.

    The server holds the read end of a pipe on stdin and exits when it
    closes, so it cannot outlive the benchmark process.
    """

    def __init__(self, workload, scale_name, seed, workdir, spans=None):
        fd, out = tempfile.mkstemp(suffix=".json", dir=workdir)
        os.close(fd)
        self.out = Path(out)
        cmd = [
            sys.executable, "-m", "perfbench.server", "--workload", workload,
            "--seed", str(seed), "--scale", scale_name, "--out", out,
        ]
        if spans:
            cmd += ["--trace", "1", "--spans", str(spans)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        try:
            self.address = self._wait_ready()
        except BaseException:
            self.kill()
            raise

    def _wait_ready(self):
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline().decode()
                if line.startswith("SERVE_READY"):
                    _, host, port = line.split()
                    return host, int(port)
                if not line:
                    break
        raise RuntimeError(f"server did not become ready (exit code {self.proc.poll()})")

    def request(self, obj: dict) -> dict:
        reply = loadgen.request_lines(self.address, [_line(obj)], 1)[0]
        if reply is None:
            raise RuntimeError(f"no reply to {obj['op']}")
        return json.loads(reply)

    def stop(self) -> dict:
        """Shut the server down over the wire; return its results."""
        try:
            self.request({"op": "shutdown"})
            self.proc.wait(timeout=60)
        finally:
            self.kill()
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited with {self.proc.returncode}")
        return json.loads(self.out.read_text())

    def kill(self) -> None:
        """Close the pipes and make sure the process has ended."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _setup(server: ServerProcess, table_name, truths, warmup: list[Request]) -> None:
    """ANALYZE every column over TCP, one at a time, then a closed warm-up
    burst over ``nproc`` connections."""
    payloads = [_line({"op": "analyze", "table": table_name, "column": c}) for c in truths]
    for column, reply in zip(truths, loadgen.request_lines(server.address, payloads, 1)):
        if reply is None or json.loads(reply).get("ok") is not True:
            raise RuntimeError(f"set-up ANALYZE of {column} failed: {reply!r}")
    replies = loadgen.request_lines(server.address, [r.payload for r in warmup], CONNECTIONS)
    if any(line is None for line in replies):
        raise RuntimeError("warm-up request got no reply")


def _counters(server: ServerProcess) -> dict:
    result = server.request({"op": "status"})["result"]
    return {**result["cache"], **{f"admission_{k}": v for k, v in result["admission"].items()}}


def run(workload, scale, scale_name, seed, seconds, spans, workroot) -> dict:
    """Run one serve workload; returns the run's report dict.  With a
    *spans* path the run is traced and the server writes its span log there."""
    workdir = tempfile.mkdtemp(dir=workroot)
    try:
        return _run(workload, scale, scale_name, seed, seconds, spans, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


class _OpenPhase:
    """Open-loop requests, sent in time slices that can be interleaved."""

    def __init__(self, requests: list[Request], offsets: np.ndarray):
        self.requests, self.offsets = requests, offsets
        self.latency: list[np.ndarray] = []
        self.late: list[np.ndarray] = []
        self.round_trip: list[np.ndarray] = []

    def send(self, address, scores: Scores, begin: float, end: float) -> None:
        """Send the requests due in ``[begin, end)`` of the schedule."""
        index = np.flatnonzero((self.offsets >= begin) & (self.offsets < end))
        requests = [self.requests[i] for i in index]
        exchange = loadgen.open_loop(
            address, [r.payload for r in requests], self.offsets[index] - begin, CONNECTIONS
        )
        scores.add(exchange, requests)
        self.latency.append(exchange.latency_s)
        self.late.append(exchange.late_s)
        self.round_trip.append(exchange.received - exchange.sent)

    def values(self, name: str) -> np.ndarray:
        values = np.concatenate(getattr(self, name)) if getattr(self, name) else np.zeros(0)
        return values[~np.isnan(values)]


def _run(workload, scale, scale_name, seed, seconds, spans, workdir):
    traced = spans is not None
    table_name, columns = make_columns(workload, scale, seed)
    truths = {c: ColumnTruth(v) for c, v in columns.items()}
    del columns
    churn = workload == "serve_churn"
    rate = scale.churn_rate if churn else scale.hot_rate
    share = scale.churn_modify_share if churn else 0.0
    open_s = seconds * (0.5 if traced else OPEN_SHARE)
    offsets = loadgen.arrival_offsets(rng_for(seed, 32), rate, open_s)
    phase1 = make_requests(workload, table_name, truths, len(offsets), seed, 1, share)
    warmup = make_requests(workload, table_name, truths, WARMUP_REQUESTS, seed, 3, share)

    def start(trace_on: bool) -> ServerProcess:
        return ServerProcess(workload, scale_name, seed, workdir, spans if trace_on else None)

    report = {}
    scores = Scores()
    measured = _OpenPhase(phase1, offsets)

    if not traced:
        # Read-only: the closed loop measures read-path capacity.  A refresh
        # stalls its connection, and in a closed loop that also stops the
        # arrivals, so refresh cost is measured in the open loop instead.
        phase2 = make_requests(workload, table_name, truths, CLOSED_REQUESTS, seed, 2, 0.0)
        setups = []
        for trial in range(scale.serve_setups):
            began = time.perf_counter()
            server = start(False)
            try:
                _setup(server, table_name, truths, warmup)
                setups.append(time.perf_counter() - began)
                if trial < scale.serve_setups - 1:
                    server.stop()
                    continue
                loadgen.closed_loop(
                    server.address, [q.payload for q in warmup], CONNECTIONS, WARMUP_S, CLOSED_DEPTH
                )
                completed, rates = 0, []
                for r in range(ROUNDS):
                    measured.send(server.address, scores, r * open_s / ROUNDS, (r + 1) * open_s / ROUNDS)
                    closed = loadgen.closed_loop(
                        server.address, [q.payload for q in phase2], CONNECTIONS,
                        (seconds - open_s) / ROUNDS, CLOSED_DEPTH, start=completed,
                    )
                    scores.add(closed, phase2)
                    done = np.count_nonzero(~np.isnan(closed.received))
                    completed += done
                    rates.append(done / closed.elapsed_s)
                results = server.stop()
            finally:
                server.kill()
        report["setups"] = setups
        # The median round: a host stall that spans one or two rounds
        # moves it less than it moves the whole-phase rate.
        report["throughput_per_s"] = percentile(rates, 0.5)
    else:
        baseline = _OpenPhase(phase1, offsets)
        server = start(False)
        try:
            _setup(server, table_name, truths, warmup)
            baseline.send(server.address, scores, 0.0, open_s)
            server.stop()
        finally:
            server.kill()
        server = start(True)
        try:
            _setup(server, table_name, truths, warmup)
            before = _counters(server)
            server.request({"op": "ping"})
            measured.send(server.address, scores, 0.0, open_s)
            server.request({"op": "ping"})
            after = _counters(server)
            results = server.stop()
        finally:
            server.kill()
        layers = dict(results["layers"])
        delta = {key: after[key] - before[key] for key in after}
        lookups = delta["hits"] + delta["misses"] + delta["refreshes"]
        layers.update({
            "serve.transport_us": mean(measured.values("round_trip")) * 1e6 - layers["serve.handle_us"],
            "serve.cache_hit_ratio": delta["hits"] / lookups if lookups else 0.0,
            "serve.cache_evictions": float(delta["evictions"]),
            "serve.admission_queued": float(delta["admission_queued"]),
            "serve.admission_shed": float(delta["admission_shed"]),
            "obs.trace.overhead_ratio": percentile(measured.values("latency"), 0.5)
            / percentile(baseline.values("latency"), 0.5),
        })
        report["layers"] = layers
        report["self_times"] = results["self_times"]
        report["throughput_per_s"] = 0.0

    latency = measured.values("latency")
    report.update(
        attempted=scores.attempted,
        failed=scores.failed,
        peak_rss_mb=results["peak_rss_mb"],
        p50_ms=percentile(latency, 0.5) * 1e3,
        p99_ms=percentile(latency, 0.99) * 1e3,
        qerror_p50=percentile(scores.qerrors, 0.5),
        qerror_p99=percentile(scores.qerrors, 0.99),
        distinct_ratio_error_mean=mean(scores.distinct_errors),
        degraded_ratio=scores.degraded / scores.answers if scores.answers else 0.0,
        late_p99_ms=percentile(measured.values("late"), 0.99) * 1e3,
    )
    return report
