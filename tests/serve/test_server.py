"""StatsServer: endpoint behaviour, determinism, degraded mode, TCP loop."""

from __future__ import annotations

import json
import socket
import threading
import time
import zlib

import numpy as np
import pytest

from repro.engine import StatisticsManager, Table
from repro.engine.maintenance import RefreshPolicy
from repro.serve import AdmissionController, StatsServer, serve_forever
from repro.serve.protocol import SHUTDOWN_OP
from repro.serve.server import LINE_LIMIT


def _server(**kwargs):
    kwargs.setdefault(
        "policy", RefreshPolicy(fraction=0.2, floor_rows=100)
    )
    kwargs.setdefault("build_params", {"k": 8, "f": 0.3})
    return StatsServer(
        {"t": Table("t", {"x": np.arange(20_000)})}, **kwargs
    )


def _ok(response):
    assert response["ok"], response
    return response["result"]


class TestEndpoints:
    def test_ping(self):
        assert _ok(_server().handle({"op": "ping"})) == {"pong": True}

    def test_analyze_then_estimates(self):
        server = _server()
        built = _ok(server.handle(
            {"op": "analyze", "table": "t", "column": "x"}
        ))
        assert built["k"] == 8
        assert built["version"] == 1
        assert built["admission"] == "admitted"
        assert not built["degraded"]

        rng = _ok(server.handle(
            {"op": "estimate_range", "table": "t", "column": "x",
             "lo": 0.0, "hi": 9_999.0}
        ))
        assert rng["rows"] == pytest.approx(10_000, rel=0.2)
        eq = _ok(server.handle(
            {"op": "estimate_equality", "table": "t", "column": "x",
             "value": 5.0}
        ))
        assert eq["rows"] >= 0
        quant = _ok(server.handle(
            {"op": "estimate_quantile", "table": "t", "column": "x",
             "q": 0.5}
        ))
        assert quant["value"] == pytest.approx(10_000, rel=0.2)
        distinct = _ok(server.handle(
            {"op": "estimate_distinct", "table": "t", "column": "x"}
        ))
        assert distinct["distinct"] > 0

    def test_estimate_cold_builds_on_demand(self):
        server = _server()
        result = _ok(server.handle(
            {"op": "estimate_range", "table": "t", "column": "x",
             "lo": 0.0, "hi": 100.0}
        ))
        assert result["version"] == 1
        assert server.cache.counters()["misses"] == 1

    def test_modify_arms_staleness(self):
        server = _server()
        _ok(server.handle({"op": "analyze", "table": "t", "column": "x"}))
        _ok(server.handle(
            {"op": "modify", "table": "t", "column": "x", "rows": 5_000}
        ))
        result = _ok(server.handle(
            {"op": "estimate_range", "table": "t", "column": "x",
             "lo": 0.0, "hi": 100.0}
        ))
        assert result["version"] == 2  # the touch triggered the refresh
        assert server.cache.counters()["refreshes"] == 1

    def test_status_counts_requests(self):
        server = _server()
        server.handle({"op": "ping"})
        server.handle({"op": "bogus"})  # rejected before counting
        status = _ok(server.handle({"op": "status"}))
        assert status["requests"] == {"ping": 1, "status": 1}
        assert status["tables"] == ["t"]
        assert status["columns"] == {"t": ["x"]}
        assert status["durable"] is False

    def test_error_envelope(self):
        response = _server().handle(
            {"op": "estimate_distinct", "table": "nope", "column": "x"}
        )
        assert not response["ok"]
        assert response["code"] == "StatisticsNotFoundError"
        bad = _server().handle({"op": "bogus"})
        assert not bad["ok"]
        assert bad["code"] == "ProtocolError"


class TestNonFiniteRequests:
    """Meaningless numbers get a typed error, never ``ok: true``."""

    @pytest.mark.parametrize(
        "numbers",
        [
            {"op": "estimate_range", "lo": float("nan"), "hi": 100},
            {"op": "estimate_equality", "value": float("nan")},
            {"op": "estimate_range", "lo": int("9" * 400), "hi": 100},
        ],
        ids=["range_lo_nan", "equality_nan", "range_lo_huge_int"],
    )
    def test_rejected_with_parameter_error(self, numbers):
        server = _server()
        response = server.handle({"table": "t", "column": "x", **numbers})
        assert not response["ok"]
        assert response["code"] == "ParameterError"
        assert server.admission.counters()["admitted"] == 0  # no build ran

    def test_infinite_range_bounds_cover_the_table(self):
        result = _ok(_server().handle(
            {"op": "estimate_range", "table": "t", "column": "x",
             "lo": float("-inf"), "hi": float("inf")}
        ))
        assert result["rows"] == 20_000


class TestDeterminism:
    def test_same_seed_builds_identical_statistics(self):
        responses = []
        for _ in range(2):
            server = _server(seed=7)
            responses.append(_ok(server.handle(
                {"op": "analyze", "table": "t", "column": "x"}
            )))
        assert responses[0] == responses[1]

    def test_build_rng_depends_on_build_number_not_arrival(self):
        server_a = _server(seed=7)
        _ok(server_a.handle({"op": "analyze", "table": "t", "column": "x"}))
        _ok(server_a.handle(
            {"op": "modify", "table": "t", "column": "x", "rows": 5_000}
        ))
        second_a = _ok(server_a.handle(
            {"op": "estimate_distinct", "table": "t", "column": "x"}
        ))

        server_b = _server(seed=7)
        _ok(server_b.handle({"op": "analyze", "table": "t", "column": "x"}))
        # Interleave unrelated requests: the second build must not care.
        for _ in range(5):
            _ok(server_b.handle({"op": "ping"}))
        _ok(server_b.handle(
            {"op": "modify", "table": "t", "column": "x", "rows": 5_000}
        ))
        second_b = _ok(server_b.handle(
            {"op": "estimate_distinct", "table": "t", "column": "x"}
        ))
        assert second_a == second_b


class TestLazyBuildRng:
    """The refresh RNG is built only when a rebuild actually runs."""

    def test_cache_hit_builds_no_generator(self, monkeypatch):
        server = _server()
        query = {"op": "estimate_range", "table": "t", "column": "x",
                 "lo": 0.0, "hi": 100.0}
        _ok(server.handle(query))  # cold build + cache install
        built = []
        real = np.random.default_rng

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        for _ in range(5):
            _ok(server.handle(query))
        assert server.cache.counters()["hits"] == 5
        assert built == []

    def test_refresh_uses_the_build_number_seed(self):
        server = _server(seed=7)
        _ok(server.handle({"op": "analyze", "table": "t", "column": "x"}))
        first = server.auto.manager.statistics("t", "x")
        _ok(server.handle(
            {"op": "modify", "table": "t", "column": "x", "rows": 5_000}
        ))
        answer = _ok(server.handle(
            {"op": "estimate_distinct", "table": "t", "column": "x"}
        ))
        assert answer["version"] == 2
        refreshed = server.auto.manager.statistics("t", "x")
        seed = [7, zlib.crc32(b"t"), zlib.crc32(b"x"), 2]
        reference = StatisticsManager().analyze(
            server.tables["t"], "x", rng=np.random.default_rng(seed),
            method=first.method, **first.build_params,
        )
        assert refreshed.sample.tobytes() == reference.sample.tobytes()
        assert (refreshed.histogram.separators.tobytes()
                == reference.histogram.separators.tobytes())
        assert refreshed.distinct_estimate == reference.distinct_estimate
        assert answer["distinct"] == reference.distinct_estimate


class TestDegradedMode:
    def test_shed_analyze_serves_last_known_good(self):
        server = _server(
            admission=AdmissionController(max_inflight=1, max_queue=0)
        )
        _ok(server.handle({"op": "analyze", "table": "t", "column": "x"}))
        server.admission.try_acquire()  # hold the only build slot
        try:
            result = _ok(server.handle(
                {"op": "analyze", "table": "t", "column": "x"}
            ))
        finally:
            server.admission.release()
        assert result["admission"] == "shed"
        assert result["degraded"] is True
        assert result["pages_read"] == 0
        assert server.degraded_served == 1

    def test_shed_cold_build_is_overload(self):
        server = _server(
            admission=AdmissionController(max_inflight=1, max_queue=0)
        )
        server.admission.try_acquire()
        try:
            response = server.handle(
                {"op": "analyze", "table": "t", "column": "x"}
            )
        finally:
            server.admission.release()
        assert not response["ok"]
        assert response["code"] == "ServerOverloadError"


class TestWarmStart:
    def test_store_round_trip_serves_without_rebuild(self, tmp_path):
        store_dir = str(tmp_path / "store")
        first = _server(store=store_dir, seed=3)
        _ok(first.handle({"op": "analyze", "table": "t", "column": "x"}))
        want = _ok(first.handle(
            {"op": "estimate_range", "table": "t", "column": "x",
             "lo": 0.0, "hi": 9_999.0}
        ))
        first.checkpoint()

        warm = _server(store=store_dir, seed=3)
        got = _ok(warm.handle(
            {"op": "estimate_range", "table": "t", "column": "x",
             "lo": 0.0, "hi": 9_999.0}
        ))
        assert got == want
        assert warm.admission.counters()["admitted"] == 0  # no rebuild
        assert _ok(warm.handle({"op": "status"}))["durable"] is True


class TestTcpFrontEnd:
    def test_json_lines_round_trip_and_shutdown(self, tmp_path):
        ready = tmp_path / "ready"
        server = _server(seed=5)
        thread = threading.Thread(
            target=serve_forever,
            kwargs={"server": server, "ready_path": str(ready)},
            daemon=True,
        )
        thread.start()
        deadline = time.monotonic() + 10.0
        while not ready.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        token = ready.read_text().split()
        assert token[0] == "SERVE_READY"
        host, port = token[1], int(token[2])

        with socket.create_connection((host, port), timeout=5.0) as sock:
            stream = sock.makefile("rwb")

            def roundtrip(payload):
                stream.write((json.dumps(payload) + "\n").encode())
                stream.flush()
                return json.loads(stream.readline())

            assert _ok(roundtrip({"op": "ping"})) == {"pong": True}
            built = _ok(roundtrip(
                {"op": "analyze", "table": "t", "column": "x"}
            ))
            assert built["version"] == 1
            stream.write(b"this is not json\n")
            stream.flush()
            garbage = json.loads(stream.readline())
            assert not garbage["ok"]
            assert garbage["code"] == "ProtocolError"
            # An integer literal beyond float range: exactly one typed
            # error line, and the connection keeps serving.
            stream.write(
                b'{"op": "estimate_range", "table": "t", "column": "x", '
                b'"lo": ' + b"9" * 400 + b', "hi": 1}\n'
            )
            stream.flush()
            overflow = json.loads(stream.readline())
            assert not overflow["ok"]
            assert overflow["code"] == "ParameterError"
            assert _ok(roundtrip({"op": "ping"})) == {"pong": True}
            # Undeclared or out-of-range build parameters: one typed error
            # line each, and the connection keeps serving.
            for params, code in (
                ({"bogus": 1}, "ProtocolError"),
                ({"k": float("nan")}, "ProtocolError"),
                ({"k": 10**300}, "ParameterError"),
            ):
                rejected = roundtrip({"op": "analyze", "table": "t",
                                      "column": "x", "params": params})
                assert not rejected["ok"]
                assert rejected["code"] == code
                assert _ok(roundtrip({"op": "ping"})) == {"pong": True}
            bye = roundtrip({"op": SHUTDOWN_OP})
            assert _ok(bye) == {"stopping": True}
        thread.join(timeout=10.0)
        assert not thread.is_alive()


class TestOversizeLines:
    """A line over the stream limit gets one typed error line."""

    def test_newline_found_keeps_the_connection(self, front_end):
        client = front_end(_server()).connect()
        client.send(json.dumps({"op": "ping", "pad": "x" * 100_000}).encode())
        rejected = client.read()
        assert rejected["code"] == "ProtocolError"
        assert f"{LINE_LIMIT}-byte limit" in rejected["error"]
        assert _ok(client.request({"op": "ping"})) == {"pong": True}

    def test_no_newline_within_the_limit_closes(self, front_end):
        front = front_end(_server())
        client = front.connect()

        def send_endless_line():
            try:
                client.sock.sendall(b"y" * (32 * LINE_LIMIT))
            except OSError:  # the server closed while we were sending
                pass

        sender = threading.Thread(target=send_endless_line, daemon=True)
        sender.start()
        rejected = client.read()
        assert rejected["code"] == "ProtocolError"
        assert f"{LINE_LIMIT}-byte limit" in rejected["error"]
        try:
            assert client.read() is None  # closed after the one error line
        except ConnectionResetError:  # closed with our bytes still unread
            pass
        sender.join(timeout=10.0)
        assert _ok(front.connect().request({"op": "ping"})) == {"pong": True}


class TestNeedsWorker:
    """Only requests that can build or wait for admission leave the loop."""

    def test_routing(self):
        server = _server()
        query = {"op": "estimate_range", "table": "t", "column": "x",
                 "lo": 0.0, "hi": 100.0}
        analyze = {"op": "analyze", "table": "t", "column": "x"}
        assert server.needs_worker(analyze)
        assert server.needs_worker(query)  # cold: the lookup would build
        _ok(server.handle(query))
        assert not server.needs_worker(query)  # a hit
        assert server.needs_worker(analyze)  # always may build
        _ok(server.handle(
            {"op": "modify", "table": "t", "column": "x", "rows": 5_000}
        ))
        assert server.needs_worker(query)  # stale: the lookup refreshes
        _ok(server.handle(query))
        assert not server.needs_worker(query)
        # A build outside the cache leaves its entry out of date.
        server.auto.analyze(server.tables["t"], "x", k=8, f=0.3)
        assert server.needs_worker(query)
        _ok(server.handle(query))
        assert not server.needs_worker(query)

    def test_requests_that_cannot_build_stay_on_the_loop(self):
        server = _server()
        for request in (
            {"op": "ping"}, {"op": "status"}, {"op": "stats"},
            {"op": "health"}, {"op": "watch"},
            {"op": "modify", "table": "t", "column": "x", "rows": 5},
            {"op": "estimate_distinct", "table": "nope", "column": "x"},
            {"op": "estimate_distinct", "table": ["t"], "column": "x"},
            {"op": ["estimate_distinct"]}, {"op": "bogus"}, {"table": "t"},
            [1, 2], "ping", None,
        ):
            assert not server.needs_worker(request), request

    def test_unknown_column_may_wait_for_admission(self):
        server = _server()
        assert server.needs_worker(
            {"op": "estimate_distinct", "table": "t", "column": "nope"}
        )
