"""Runtime proof that the TCP front end builds nothing on its event loop.

``_client_loop`` answers a request on the event loop when
``StatsServer.needs_worker`` says it can neither build nor wait for an
admission slot; the static flow lint cannot see that guard, so this test
checks it at run time.  Spies record the thread of every ANALYZE
(``StatisticsManager.analyze``), admission slot
(``AdmissionController.slot``) and durable catalog write
(``CatalogStore.put``) while two connections drive the server through
every kind of request that may build, plus hostile input and hits.
"""

from __future__ import annotations

import json
import threading

import numpy as np

from repro.durability import CatalogStore
from repro.engine import StatisticsManager, Table
from repro.engine.maintenance import RefreshPolicy
from repro.serve import AdmissionController, StatsServer

X_QUERY = {"op": "estimate_range", "table": "t", "column": "x",
           "lo": 0.0, "hi": 100.0}
Y_QUERY = {"op": "estimate_quantile", "table": "t", "column": "y", "q": 0.5}
HITS = 6


def _spy(monkeypatch, owner, name, calls):
    """Record ``(name, thread)`` for every call of ``owner.name``."""
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append((name, threading.get_ident()))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)


def _ok(response):
    assert response is not None and response["ok"], response
    return response["result"]


def test_builds_run_in_workers_and_hits_on_the_loop(
    front_end, tmp_path, monkeypatch
):
    building: list[tuple[str, int]] = []
    for owner, name in (
        (StatisticsManager, "analyze"),
        (AdmissionController, "slot"),
        (CatalogStore, "put"),
    ):
        _spy(monkeypatch, owner, name, building)
    handled: list[tuple[dict, int]] = []
    handle = StatsServer.handle

    def spy_handle(self, request):
        handled.append((request, threading.get_ident()))
        return handle(self, request)

    monkeypatch.setattr(StatsServer, "handle", spy_handle)

    values = np.arange(20_000)
    server = StatsServer(
        {"t": Table("t", {"x": values, "y": values % 97})},
        store=str(tmp_path / "store"),
        policy=RefreshPolicy(fraction=0.2, floor_rows=100),
        build_params={"k": 8, "f": 0.3},
    )
    front = front_end(server)
    a, b = front.connect(), front.connect()

    assert _ok(a.request(X_QUERY))["version"] == 1  # cold estimate
    assert _ok(b.request(
        {"op": "analyze", "table": "t", "column": "y"}
    ))["version"] == 1
    _ok(a.request({"op": "modify", "table": "t", "column": "x",
                   "rows": 5_000}))
    assert _ok(b.request(X_QUERY))["version"] == 2  # the refresh
    unknown = a.request({"op": "estimate_distinct", "table": "t",
                         "column": "nope"})
    assert not unknown["ok"] and unknown["code"]
    b.send(json.dumps({"op": "ping", "pad": "z" * 100_000}).encode())
    assert b.read()["code"] == "ProtocolError"
    bad = a.request({"op": "analyze", "table": "t", "column": "x",
                     "params": {"k": "a"}})
    assert bad["code"] == "ProtocolError"
    builds = len(building)
    hits_before = server.cache.counters()["hits"]
    seen = len(handled)
    for _ in range(HITS):
        _ok(a.request(X_QUERY))
        _ok(b.request(Y_QUERY))

    loop = front.loop_thread
    assert {name for name, _ in building} == {"analyze", "slot", "put"}
    on_loop = [name for name, thread in building if thread == loop]
    assert on_loop == [], f"built on the event loop: {on_loop}"
    assert len(building) == builds  # the hits built nothing
    assert server.cache.counters()["hits"] - hits_before == 2 * HITS
    hit_threads = {thread for _, thread in handled[seen:]}
    assert hit_threads == {loop}
    # The requests that could build did reach handle() in a worker.
    worker_ops = [
        request.get("op") for request, thread in handled if thread != loop
    ]
    assert worker_ops.count("analyze") == 2
    assert worker_ops.count("estimate_range") == 2
