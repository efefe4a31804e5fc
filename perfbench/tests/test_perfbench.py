"""Tests of the benchmark itself: the metric surface, the output checks,
and the refusal to run without the program.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import math
import shutil
import socket
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from perfbench import loadgen
from perfbench.common import (
    END_TO_END, FAMILY_METRICS, PER_LAYER, WORKLOADS, ColumnTruth, family,
)
from perfbench.serve import Scores, make_requests

ROOT = Path(__file__).resolve().parents[2]


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    out = _run(workload, trace=0)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    table = "\n".join(lines[:-1])
    prefix = family(workload)
    for name, unit in {**FAMILY_METRICS[prefix], "failed_ratio": "ratio"}.items():
        assert f"{name} " in table and table.count(unit) > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_prints_every_per_layer_metric(workload):
    out = _run(workload, trace=1)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == PER_LAYER
    assert result["metrics"]["obs.trace.overhead_ratio"]["value"] > 0
    assert "span self time" in out.stdout


def test_benchmark_json_declares_the_same_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    record = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
    assert list(record["workloads"]) == list(WORKLOADS)
    assert set(record["layer_to_end_to_end"]) == set(PER_LAYER)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("serve_hot", trace=0, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


# ----------------------------------------------------------------------
# Output checks against a stub server
# ----------------------------------------------------------------------


class StubServer:
    """Speaks the JSON-lines protocol with plausible canned answers; can
    corrupt the reply to, or drop the reply line of, one request."""

    def __init__(self, corrupt_at: int | None = None, drop_at: int | None = None):
        self.corrupt_at, self.drop_at = corrupt_at, drop_at
        self.seen = 0
        self.lock = threading.Lock()
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = self.listener.getsockname()
        self.thread = threading.Thread(target=self._accept, daemon=True)
        self.thread.start()

    def _accept(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn):
        with conn, conn.makefile("rwb") as stream:
            for line in stream:
                request = json.loads(line)
                with self.lock:
                    index, self.seen = self.seen, self.seen + 1
                if index == self.drop_at:
                    continue
                result = {"rows": 1.0, "value": 0.0, "distinct": 1.0,
                          "recorded": request.get("rows"), "degraded": False}
                if index == self.corrupt_at:
                    result["rows"] = math.nan
                reply = {"ok": True, "op": request["op"], "result": result}
                stream.write((json.dumps(reply) + "\n").encode())
                stream.flush()

    def close(self):
        self.listener.close()


def _score(stub: StubServer, count: int = 40) -> Scores:
    truths = {"a": ColumnTruth(np.arange(100.0))}
    requests = make_requests("serve_hot", "t", truths, count, seed=5, stream=1, modify_share=0.0)
    offsets = np.arange(count) * 0.002
    exchange = loadgen.open_loop(
        stub.address, [r.payload for r in requests], offsets, connections=1, reply_timeout=2.0,
    )
    scores = Scores()
    scores.add(exchange, requests)
    return scores


def test_honest_stub_passes_every_check():
    stub = StubServer()
    try:
        assert _score(stub).failed == 0
    finally:
        stub.close()


def test_one_corrupt_estimate_raises_failed_ratio():
    stub = StubServer(corrupt_at=7)
    try:
        scores = _score(stub)
    finally:
        stub.close()
    assert scores.failed == 1 and scores.failed_ratio > 0


def test_one_dropped_reply_line_raises_failed_ratio():
    stub = StubServer(drop_at=11)
    try:
        scores = _score(stub)
    finally:
        stub.close()
    assert scores.failed >= 1 and scores.failed_ratio > 0
