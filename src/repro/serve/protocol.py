"""The served request/response surface: declared endpoints + validation.

Requests and responses are JSON objects (one per line over the TCP
transport).  A request names its endpoint in ``op`` plus the endpoint's
declared fields; a response is::

    {"ok": true,  "op": <endpoint>, "result": <endpoint-specific object>}
    {"ok": false, "op": <endpoint>, "error": <message>, "code": <type>}

The endpoint table below is the single source of truth: the server
dispatches from it, the ``repro_serve_requests_total{endpoint=...}``
metric label set mirrors it, and ``docs/SERVING.md`` is diffed against it
by ``tests/serve/test_docs.py`` — an endpoint cannot be added, renamed or
re-typed without the doc (and this docstring's schema) moving in lockstep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dataclass_fields

from ..core.adaptive import CVBConfig
from ..engine.statistics import BUILD_METHODS
from ..exceptions import ParameterError, ReproError
from ..storage.layout import LAYOUT_NAMES

__all__ = [
    "ProtocolError",
    "EndpointSpec",
    "ENDPOINTS",
    "ANALYZE_PARAMS",
    "MAX_K",
    "SHUTDOWN_OP",
    "validate_request",
]


class ProtocolError(ReproError):
    """A malformed request: unknown op, missing field, or wrong type."""


@dataclass(frozen=True)
class EndpointSpec:
    """Declaration of one endpoint: name, required fields, and meaning.

    ``fields`` maps field name to the accepted Python types; every listed
    field is required (the ``params`` field of ``analyze`` is the one
    optional field, declared separately).
    """

    name: str
    fields: dict
    help: str


#: Optional-field declarations, keyed by endpoint name.
OPTIONAL_FIELDS: dict[str, dict] = {
    "analyze": {"params": dict},
    "watch": {"cursor": int},
}

_NUMERIC = (int, float)

#: Numeric fields that may be ``±inf``: the open bounds of ``estimate_range``.
OPEN_BOUNDS = frozenset({"lo", "hi"})

#: Largest bucket count an ``analyze`` request may ask for: a build
#: allocates O(k) per histogram and samples O(k) tuples, so an unbounded
#: ``k`` would let one request make the server allocate gigabytes.
MAX_K = 10_000

#: Build parameters an ``analyze`` request may set in ``params``, with
#: their accepted types: the JSON-typed arguments of
#: :meth:`~repro.engine.statistics.StatisticsManager.analyze` and
#: :class:`~repro.core.adaptive.CVBConfig`.  Their ranges are the ones
#: ``CVBConfig`` enforces (``k`` also at most :data:`MAX_K`); ``method``
#: and ``layout`` take the names the engine declares.
ANALYZE_PARAMS: dict[str, type | tuple] = {
    "k": int,
    "f": _NUMERIC,
    "gamma": _NUMERIC,
    "method": str,
    "layout": str,
    "validation": str,
    "metric": str,
    "max_sampled_fraction": _NUMERIC,
}

_CVB_FIELDS = frozenset(field.name for field in dataclass_fields(CVBConfig))

#: Every request endpoint the server answers, keyed by op name.
ENDPOINTS: dict[str, EndpointSpec] = {
    spec.name: spec
    for spec in [
        EndpointSpec(
            "ping", {},
            "Liveness probe; returns \"pong\".",
        ),
        EndpointSpec(
            "status", {},
            "Server snapshot: tables served, cache and admission counters, "
            "request totals.",
        ),
        EndpointSpec(
            "analyze", {"table": str, "column": str},
            "Build (or rebuild) statistics for one column via the "
            "admission-controlled ANALYZE path; optional `params` sets "
            "build parameters (k, f, gamma, method, layout, validation, "
            "metric, max_sampled_fraction).",
        ),
        EndpointSpec(
            "estimate_range", {"table": str, "column": str,
                               "lo": _NUMERIC, "hi": _NUMERIC},
            "Estimated row count in the closed range [lo, hi].",
        ),
        EndpointSpec(
            "estimate_equality", {"table": str, "column": str,
                                  "value": _NUMERIC},
            "Estimated row count equal to `value` (self-join density "
            "estimator).",
        ),
        EndpointSpec(
            "estimate_quantile", {"table": str, "column": str,
                                  "q": _NUMERIC},
            "Estimated column value at quantile q in [0, 1].",
        ),
        EndpointSpec(
            "estimate_distinct", {"table": str, "column": str},
            "Estimated number of distinct values (GEE, as built).",
        ),
        EndpointSpec(
            "modify", {"table": str, "column": str, "rows": int},
            "Report `rows` modified rows, feeding the staleness policy.",
        ),
        EndpointSpec(
            "stats", {},
            "Telemetry snapshot, split into a `logical` section "
            "(interleaving-invariant counters, series totals, error-rate "
            "SLOs) and a `wall` section (latency sketch quantiles, "
            "windows, latency SLOs, shift verdict).",
        ),
        EndpointSpec(
            "health", {},
            "Liveness + objective verdict: `ok` until a declared SLO "
            "has burned for `burn_windows` consecutive evaluations, "
            "then `degraded`.",
        ),
        EndpointSpec(
            "watch", {},
            "Incremental stats delta: telemetry windows with index >= "
            "the optional `cursor`, plus the next cursor to poll from "
            "(long-poll-free tailing over the same JSON-lines "
            "transport).",
        ),
    ]
}

#: Transport-level op: asks the TCP server to stop accepting and exit its
#: serve loop.  Not a statistics request — it bypasses the endpoint table
#: and the request metrics (documented in docs/SERVING.md).
SHUTDOWN_OP = "shutdown"


def validate_request(request: object) -> tuple[str, dict]:
    """Check *request* against the endpoint table; return ``(op, fields)``.

    ``fields`` holds exactly the declared (required + present optional)
    fields, numbers as floats, so handlers can unpack without
    re-validating; ``params`` holds only checked build parameters
    (:data:`ANALYZE_PARAMS`).  Raises :class:`ProtocolError` (malformed
    input) or :class:`ParameterError` (a number or build parameter out of
    range) — the server maps both to an ``ok: false`` response rather
    than a dropped connection.
    """
    if not isinstance(request, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(request).__name__}"
        )
    op = request.get("op")
    if not isinstance(op, str):
        raise ProtocolError("request is missing the string field 'op'")
    spec = ENDPOINTS.get(op)
    if spec is None:
        known = ", ".join(sorted(ENDPOINTS))
        raise ProtocolError(f"unknown op {op!r}; expected one of: {known}")
    fields: dict = {}
    for field, types in spec.fields.items():
        if field not in request:
            raise ProtocolError(f"op {op!r} requires field {field!r}")
        fields[field] = _typed(op, field, request[field], types)
    for field, types in OPTIONAL_FIELDS.get(op, {}).items():
        if field in request:
            fields[field] = _typed(op, field, request[field], types)
    unknown = sorted(
        set(request) - {"op"} - set(spec.fields)
        - set(OPTIONAL_FIELDS.get(op, {}))
    )
    if unknown:
        raise ProtocolError(
            f"op {op!r} got unexpected fields: {', '.join(unknown)}"
        )
    if "params" in fields:
        fields["params"] = _build_params(fields["params"])
    return op, fields


def _typed(op: str, field: str, value: object, types: type | tuple) -> object:
    """*value* checked against *types* (never a bool); numbers as floats."""
    if not isinstance(value, types) or isinstance(value, bool):
        raise ProtocolError(
            f"field {field!r} of op {op!r} has the wrong type "
            f"({type(value).__name__})"
        )
    if types is _NUMERIC:
        return _number(op, field, value)
    return value


def _build_params(params: dict) -> dict:
    """The ``params`` of an ``analyze`` request, checked against
    :data:`ANALYZE_PARAMS`: unknown names and wrong types raise
    :class:`ProtocolError`, out-of-range values :class:`ParameterError`."""
    checked = {}
    for name, value in params.items():
        types = ANALYZE_PARAMS.get(name)
        if types is None:
            raise ProtocolError(
                f"op 'analyze' got an unexpected build parameter {name!r}; "
                f"expected some of: {', '.join(ANALYZE_PARAMS)}"
            )
        checked[name] = _typed("analyze", f"params.{name}", value, types)
    for name, choices in (("method", BUILD_METHODS), ("layout", LAYOUT_NAMES)):
        if name in checked and checked[name] not in choices:
            raise ParameterError(f"params.{name} must be one of {choices}")
    k = checked.get("k", 1)
    if k > MAX_K:
        raise ParameterError(f"params.k must be at most {MAX_K}, got {k}")
    CVBConfig(k=k, **{
        name: value for name, value in checked.items()
        if name in _CVB_FIELDS and name != "k"
    })
    return checked


def _number(op: str, field: str, value: int | float) -> float:
    """*value* as a float; NaN, ``±inf`` outside :data:`OPEN_BOUNDS` and
    integers too large for a float raise :class:`ParameterError`."""
    try:
        number = float(value)
    except OverflowError:
        raise ParameterError(
            f"field {field!r} of op {op!r} is too large for a float"
        ) from None
    if math.isnan(number) or (math.isinf(number) and field not in OPEN_BOUNDS):
        raise ParameterError(f"field {field!r} of op {op!r} cannot be {number}")
    return number
