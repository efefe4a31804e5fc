"""Shared fixtures for the serving tests: a live TCP front end."""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.serve import serve_forever
from repro.serve.protocol import SHUTDOWN_OP


class LineClient:
    """One JSON-lines connection to the TCP front end."""

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.stream = self.sock.makefile("rwb")

    def send(self, line: bytes) -> None:
        """Write *line* plus the newline that ends it."""
        self.stream.write(line + b"\n")
        self.stream.flush()

    def read(self) -> dict | None:
        """The next response line, decoded; ``None`` once the server closed."""
        line = self.stream.readline()
        return json.loads(line) if line else None

    def request(self, payload) -> dict | None:
        """Send one request object and read its response."""
        self.send(json.dumps(payload).encode())
        return self.read()

    def close(self) -> None:
        self.stream.close()
        self.sock.close()


class FrontEnd:
    """A ``serve_forever`` thread: its address and its event loop's thread."""

    def __init__(self, server, ready_path):
        self.thread = threading.Thread(
            target=serve_forever,
            kwargs={"server": server, "ready_path": str(ready_path)},
            daemon=True,
        )
        self.thread.start()
        deadline = time.monotonic() + 10.0
        while not ready_path.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        token = ready_path.read_text().split()
        assert token[0] == "SERVE_READY"
        self.host, self.port = token[1], int(token[2])
        self.clients: list[LineClient] = []

    @property
    def loop_thread(self) -> int:
        """``threading.get_ident()`` of the thread running the event loop."""
        return self.thread.ident

    def connect(self) -> LineClient:
        client = LineClient(self.host, self.port)
        self.clients.append(client)
        return client


@pytest.fixture
def front_end(tmp_path):
    """Factory: ``front_end(server)`` serves *server* over TCP until the
    test ends, then sends ``shutdown`` and joins the serving thread."""
    started: list[FrontEnd] = []

    def start(server) -> FrontEnd:
        front = FrontEnd(server, tmp_path / f"ready-{len(started)}")
        started.append(front)
        return front

    yield start
    for front in started:
        for client in front.clients:
            client.close()
        if front.thread.is_alive():
            client = LineClient(front.host, front.port)
            client.request({"op": SHUTDOWN_OP})
            client.close()
        front.thread.join(timeout=10.0)
        assert not front.thread.is_alive()
