"""Regression: the accept loop must never block the event loop.

``repro lint --flow`` (CON102) found ``_serve_async`` calling
``atomic_write_text`` (fsync + rename) and ``server.checkpoint``
directly on the event loop — one slow disk write would stall every
connected client.  Both now run via ``asyncio.to_thread``; this test
pins that shape statically so the blocking form cannot quietly return.

``_client_loop`` calls ``server.handle`` on the loop only where
``server.needs_worker`` said the request cannot build or wait (the one
``CON102`` suppression); the pin below keeps that call under its guard
and keeps the ``to_thread`` branch beside it.
"""

from __future__ import annotations

import ast
import pathlib

SERVER_PY = (
    pathlib.Path(__file__).resolve().parents[2]
    / "src" / "repro" / "serve" / "server.py"
)

#: callables _serve_async may only run through asyncio.to_thread.
OFFLOADED = {"checkpoint", "atomic_write_text"}


def _async_defs():
    tree = ast.parse(SERVER_PY.read_text())
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.AsyncFunctionDef)
    ]


def _tail(func: ast.AST) -> str | None:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


class TestServeAsyncStaysNonBlocking:
    def test_blocking_helpers_are_never_called_directly(self):
        for fn in _async_defs():
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    called = _tail(node.func)
                    assert called not in OFFLOADED, (
                        f"async def {fn.name} calls {called}() directly "
                        "on the event loop; wrap it in asyncio.to_thread"
                    )

    def test_checkpoint_and_ready_file_go_through_to_thread(self):
        [serve] = [f for f in _async_defs() if f.name == "_serve_async"]
        offloaded = set()
        for node in ast.walk(serve):
            if not isinstance(node, ast.Call):
                continue
            if _tail(node.func) != "to_thread":
                continue
            for arg in node.args:
                name = _tail(arg)
                if name in OFFLOADED:
                    offloaded.add(name)
        assert offloaded == OFFLOADED, (
            "_serve_async no longer offloads its checkpoint/ready-file "
            f"writes via asyncio.to_thread (saw {sorted(offloaded)})"
        )


class TestClientLoopRoutesBuildsToWorkers:
    def _guards(self, loop):
        """The ``if server.needs_worker(...)`` statements of *loop*."""
        return [
            node for node in ast.walk(loop)
            if isinstance(node, ast.If)
            and isinstance(node.test, ast.Call)
            and _tail(node.test.func) == "needs_worker"
        ]

    def test_direct_handle_only_under_the_needs_worker_guard(self):
        [loop] = [f for f in _async_defs() if f.name == "_client_loop"]
        [guard] = self._guards(loop)
        direct = [
            node for node in ast.walk(loop)
            if isinstance(node, ast.Call) and _tail(node.func) == "handle"
        ]
        guarded = [
            node for stmt in guard.orelse for node in ast.walk(stmt)
            if isinstance(node, ast.Call) and _tail(node.func) == "handle"
        ]
        assert len(direct) == 1 and direct == guarded, (
            "_client_loop calls handle() on the event loop outside the "
            "else branch of `if server.needs_worker(request)`"
        )

    def test_requests_that_may_build_still_go_through_to_thread(self):
        [loop] = [f for f in _async_defs() if f.name == "_client_loop"]
        [guard] = self._guards(loop)
        offloaded = [
            node for stmt in guard.body for node in ast.walk(stmt)
            if isinstance(node, ast.Call) and _tail(node.func) == "to_thread"
            and node.args and _tail(node.args[0]) == "handle"
        ]
        assert len(offloaded) == 1, (
            "the needs_worker branch of _client_loop no longer runs "
            "server.handle through asyncio.to_thread"
        )
