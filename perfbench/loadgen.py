"""Open- and closed-loop request generators over the JSON-lines TCP protocol.

``repro.serve.loadgen.LoadGenerator`` is closed-loop with a sequential
churn phase, so it cannot hold a fixed arrival rate while refreshes run.
:func:`open_loop` sends on a seeded schedule from one process and one
busy-polling thread: it writes each request when it falls due (pipelined,
never waiting for replies) and reads the reply lines of every connection
in order.  Latency is timed from the due time, so a stall also counts
against the requests queued behind it; how late the generator itself
wrote is reported separately.

Payloads are pre-encoded request lines; replies come back as raw lines and
are checked by the caller after the phase, outside the timed region.
"""

from __future__ import annotations

import collections
import math
import selectors
import socket
import threading
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Exchange:
    """Timings and raw replies of one phase, indexed by request."""

    due: np.ndarray  # absolute perf_counter() time each request was due
    sent: np.ndarray  # when it was written (NaN: never)
    received: np.ndarray  # when its reply line arrived (NaN: never)
    replies: list  # raw reply lines (None: missing)
    indices: list  # payload index of each request
    extra_lines: int = 0  # reply lines beyond one per request
    elapsed_s: float = 0.0

    @property
    def latency_s(self) -> np.ndarray:
        """Reply time minus due time, for the requests that got a reply."""
        done = ~np.isnan(self.received)
        return self.received[done] - self.due[done]

    @property
    def late_s(self) -> np.ndarray:
        """Send time minus due time: how late the generator wrote."""
        done = ~np.isnan(self.sent)
        return self.sent[done] - self.due[done]


def arrival_offsets(rng: np.random.Generator, rate: float, duration: float) -> np.ndarray:
    """Poisson arrival offsets (seconds) at *rate* per second over *duration*."""
    expected = int(rate * duration * 1.5) + 16
    gaps = rng.exponential(1.0 / rate, expected)
    offsets = np.cumsum(gaps)
    return offsets[offsets < duration]


def _connect(address, timeout: float) -> socket.socket:
    sock = socket.create_connection(address, timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def open_loop(
    address, payloads: list[bytes], offsets: np.ndarray, connections: int,
    reply_timeout: float = 30.0, settle_s: float = 0.1,
) -> Exchange:
    """Send ``payloads[i]`` at ``start + offsets[i]`` over *connections*
    connections (request ``i`` on connection ``i % connections``).

    One thread drives every connection and busy-polls them: it never
    sleeps, so neither a send falling due nor a reply arriving waits for a
    timer or thread wake-up, whose delay on a shared virtual machine moves
    with the host's load rather than with the server.  After the last
    reply it listens *settle_s* longer for reply lines nobody asked for.
    """
    count = len(offsets)
    sent = np.full(count, np.nan)
    received = np.full(count, np.nan)
    replies: list = [None] * count
    socks = [_connect(address, reply_timeout) for _ in range(connections)]
    selector = selectors.DefaultSelector()
    for c, sock in enumerate(socks):
        sock.setblocking(False)
        selector.register(sock, selectors.EVENT_READ, c)
    waiting = [collections.deque() for _ in socks]  # sent, reply not yet read
    outbox = [b""] * connections  # bytes the socket did not take yet
    partial = [b""] * connections  # an unfinished reply line
    live = connections
    extra = 0
    start = time.perf_counter() + 0.05
    due = start + np.asarray(offsets, dtype=np.float64)
    give_up = (due[-1] if count else start) + reply_timeout
    stop_at = math.inf  # set once every reply is in
    next_i = 0
    try:
        while live:
            now = time.perf_counter()
            while next_i < count and due[next_i] <= now:
                c = next_i % connections
                sent[next_i] = now
                outbox[c] += payloads[next_i]
                waiting[c].append(next_i)
                next_i += 1
            for c, sock in enumerate(socks):
                if outbox[c]:
                    try:
                        outbox[c] = outbox[c][sock.send(outbox[c]):]
                    except BlockingIOError:
                        pass
                    except OSError:
                        outbox[c] = b""  # the connection died; its replies count as missing
            for key, _ in selector.select(0):
                c = key.data
                try:
                    chunk = socks[c].recv(65536)
                except BlockingIOError:
                    continue
                except OSError:
                    chunk = b""
                if not chunk:
                    selector.unregister(socks[c])
                    live -= 1
                    continue
                arrived = time.perf_counter()
                lines = (partial[c] + chunk).split(b"\n")
                partial[c] = lines.pop()
                for line in lines:
                    if waiting[c]:
                        i = waiting[c].popleft()
                        received[i] = arrived
                        replies[i] = line
                    else:
                        extra += 1
            if next_i == count and not any(waiting) and stop_at == math.inf:
                stop_at = now + settle_s
            if now > stop_at or now > give_up:
                break
    finally:
        selector.close()
        for sock in socks:
            sock.close()
    elapsed = time.perf_counter() - start
    return Exchange(due, sent, received, replies, list(range(count)), extra, elapsed)


def closed_loop(
    address, payloads: list[bytes], connections: int, duration: float,
    depth: int = 1, reply_timeout: float = 30.0, start: int = 0,
) -> Exchange:
    """Each of *connections* connections keeps *depth* requests in flight,
    sending the next as soon as a reply arrives, for *duration* seconds;
    connection ``c`` walks ``payloads[start + c::connections]`` cyclically.

    One thread drives every connection.  With ``depth > 1`` the server
    finds its next request already waiting when it finishes one, so the
    rate measures the server's work rather than how fast an idle CPU
    wakes up.
    """
    socks = [_connect(address, reply_timeout) for _ in range(connections)]
    selector = selectors.DefaultSelector()
    for c, sock in enumerate(socks):
        selector.register(sock, selectors.EVENT_READ, c)
    waiting = [collections.deque() for _ in socks]  # (payload index, sent)
    partial = [b""] * connections
    position = [start + c for c in range(connections)]
    log: list[tuple] = []  # (payload index, sent, received, reply line)
    extra = 0

    def send(c: int, count: int) -> None:
        now = time.perf_counter()
        chunk = []
        for _ in range(count):
            index = position[c] % len(payloads)
            position[c] += connections
            waiting[c].append((index, now))
            chunk.append(payloads[index])
        try:
            socks[c].sendall(b"".join(chunk))
        except OSError:
            pass  # the connection died; its replies count as missing

    began = time.perf_counter()
    deadline = began + duration
    try:
        for c in range(connections):
            send(c, depth)
        while any(waiting) and time.perf_counter() < deadline + reply_timeout:
            for key, _ in selector.select(1.0):
                c = key.data
                try:
                    chunk = socks[c].recv(65536)
                except OSError:
                    chunk = b""
                if not chunk:
                    selector.unregister(socks[c])
                    log.extend((index, sent, math.nan, None) for index, sent in waiting[c])
                    waiting[c].clear()
                    continue
                arrived = time.perf_counter()
                lines = (partial[c] + chunk).split(b"\n")
                partial[c] = lines.pop()
                answered = 0
                for line in lines:
                    if waiting[c]:
                        index, sent = waiting[c].popleft()
                        log.append((index, sent, arrived, line))
                        answered += 1
                    else:
                        extra += 1
                if answered and arrived < deadline:
                    send(c, answered)
    finally:
        selector.close()
        for sock in socks:
            sock.close()
    elapsed = time.perf_counter() - began
    for pending in waiting:
        log.extend((index, sent, math.nan, None) for index, sent in pending)
    sent = np.array([entry[1] for entry in log], dtype=np.float64)
    return Exchange(
        due=sent.copy(),
        sent=sent,
        received=np.array([entry[2] for entry in log], dtype=np.float64),
        replies=[entry[3] for entry in log],
        indices=[entry[0] for entry in log],
        extra_lines=extra,
        elapsed_s=elapsed,
    )


def request_lines(address, payloads: list[bytes], connections: int, timeout: float = 120.0) -> list:
    """Send every payload once, closed-loop over *connections* connections
    (used for set-up); returns the reply lines in payload order."""
    replies: list = [None] * len(payloads)
    socks = [_connect(address, timeout) for _ in range(connections)]

    def client(c: int) -> None:
        reader = socks[c].makefile("rb")
        try:
            for i in range(c, len(payloads), connections):
                socks[c].sendall(payloads[i])
                replies[i] = reader.readline() or None
        except OSError:
            pass
        finally:
            reader.close()

    threads = [threading.Thread(target=client, args=(c,), daemon=True) for c in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout + 5)
    for sock in socks:
        sock.close()
    return replies
