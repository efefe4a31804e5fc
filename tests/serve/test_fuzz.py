"""Hostile-input fuzzing of the server's "never raises on bad input" contract.

Seeded hypothesis runs (``derandomize=True``) push arbitrary JSON values
through ``StatsServer.handle`` and arbitrary byte lines through the TCP
front end.  Every request must get exactly one well-formed response line;
the connection is never dropped; an ``ok: true`` answer never carries a
non-finite number; and every error names its ``code``.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Table
from repro.engine.maintenance import RefreshPolicy
from repro.serve import ENDPOINTS, StatsServer
from repro.serve.protocol import ANALYZE_PARAMS, OPTIONAL_FIELDS, SHUTDOWN_OP
from repro.serve.server import _encode

FUZZ = settings(derandomize=True, deadline=None, database=None)

SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=12)
)
VALUES = st.recursive(
    SCALARS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=8), children, max_size=4)
    ),
    max_leaves=10,
)
#: Field values that pass validation often enough to reach the handlers.
FIELD_VALUES = {
    "table": st.sampled_from(["t", "nope"]),
    "column": st.sampled_from(["x", "y", "nope"]),
    "rows": st.integers(),
    "cursor": st.integers(),
    "params": st.dictionaries(
        st.sampled_from([*ANALYZE_PARAMS, "rng", "bogus"]),
        SCALARS | st.sampled_from(["cvb", "record", "fullscan", "sorted"]),
        max_size=3,
    ),
}
NUMBERS = st.integers() | st.floats()


def _shaped(op: str):
    """Requests for *op* with its declared fields, mostly well-typed."""
    def value(field):
        return FIELD_VALUES.get(field, NUMBERS) | SCALARS

    return st.builds(
        lambda required, optional: {"op": op, **required, **optional},
        st.fixed_dictionaries(
            {field: value(field) for field in ENDPOINTS[op].fields}
        ),
        st.fixed_dictionaries(
            {}, optional={
                field: value(field) for field in OPTIONAL_FIELDS.get(op, {})
            },
        ),
    )


REQUESTS = st.sampled_from(sorted(ENDPOINTS)).flatmap(_shaped) | st.builds(
    lambda op, fields: {"op": op, **fields},
    st.sampled_from(sorted(ENDPOINTS)) | VALUES,
    st.dictionaries(st.text(max_size=8), VALUES, max_size=4),
)

def _server():
    values = np.arange(2_000)
    return StatsServer(
        {"t": Table("t", {"x": values, "y": values % 7})},
        policy=RefreshPolicy(fraction=0.2, floor_rows=100),
        build_params={"k": 8, "f": 0.3},
    )


def _check(response) -> None:
    """One well-formed response: a single line, typed errors, finite ok."""
    assert response is not None, "the connection was dropped"
    assert isinstance(response["ok"], bool)
    assert _encode(response).count(b"\n") == 1
    if response["ok"]:
        json.dumps(response, allow_nan=False)  # raises on NaN/±inf
    else:
        assert isinstance(response["code"], str) and response["code"]
        assert isinstance(response["error"], str)


def test_handle_answers_arbitrary_json():
    server = _server()

    @settings(FUZZ, max_examples=200)
    @given(REQUESTS | VALUES)
    def run(request):
        _check(server.handle(request))

    run()


def _not_shutdown(request) -> bool:
    return not (isinstance(request, dict) and request.get("op") == SHUTDOWN_OP)


LINES = (
    st.binary(max_size=200).map(lambda raw: raw.replace(b"\n", b""))
    | REQUESTS.filter(_not_shutdown).map(lambda r: json.dumps(r).encode())
)


def test_tcp_front_end_answers_every_line(front_end):
    client = front_end(_server()).connect()

    @settings(FUZZ, max_examples=100)
    @given(st.lists(LINES, min_size=1, max_size=5))
    def run(batch):
        for line in batch:  # pipelined: all lines, then all answers
            client.send(line)
        for _ in batch:
            _check(client.read())

    run()
    # Nesting too deep for the JSON decoder is malformed input as well.
    client.send(b"[" * 60_000)
    assert client.read()["code"] == "ProtocolError"
    assert client.request({"op": "ping"})["ok"]
