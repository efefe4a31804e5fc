"""Protocol validation: the declared endpoint table is enforced literally."""

from __future__ import annotations

import math

import pytest

from repro.exceptions import ParameterError
from repro.serve import ENDPOINTS, ProtocolError, validate_request
from repro.serve.protocol import (
    ANALYZE_PARAMS, MAX_K, OPTIONAL_FIELDS, SHUTDOWN_OP,
)


class TestValidRequests:
    def test_every_endpoint_validates_with_sample_fields(self):
        samples = {str: "name", int: 3, (int, float): 1.5}
        for name, spec in ENDPOINTS.items():
            request = {"op": name}
            for field, types in spec.fields.items():
                request[field] = samples[types]
            op, fields = validate_request(request)
            assert op == name
            assert set(fields) == set(spec.fields)

    def test_optional_params_passed_through(self):
        op, fields = validate_request(
            {"op": "analyze", "table": "t", "column": "x",
             "params": {"k": 32}}
        )
        assert op == "analyze"
        assert fields["params"] == {"k": 32}

    def test_optional_params_omittable(self):
        _, fields = validate_request(
            {"op": "analyze", "table": "t", "column": "x"}
        )
        assert "params" not in fields

    def test_int_accepted_where_float_declared(self):
        _, fields = validate_request(
            {"op": "estimate_quantile", "table": "t", "column": "x", "q": 1}
        )
        assert fields["q"] == 1

    def test_watch_cursor_passed_through(self):
        op, fields = validate_request({"op": "watch", "cursor": 3})
        assert op == "watch"
        assert fields["cursor"] == 3

    def test_watch_cursor_omittable(self):
        _, fields = validate_request({"op": "watch"})
        assert "cursor" not in fields


class TestRejection:
    def test_non_dict_rejected(self):
        with pytest.raises(ProtocolError):
            validate_request(["op", "ping"])

    def test_missing_op_rejected(self):
        with pytest.raises(ProtocolError):
            validate_request({"table": "t"})

    def test_unknown_op_rejected(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            validate_request({"op": "drop_table"})

    def test_shutdown_is_not_an_endpoint(self):
        """The transport-level shutdown op bypasses the endpoint table."""
        assert SHUTDOWN_OP not in ENDPOINTS
        with pytest.raises(ProtocolError):
            validate_request({"op": SHUTDOWN_OP})

    def test_missing_field_rejected(self):
        with pytest.raises(ProtocolError, match="requires field"):
            validate_request({"op": "estimate_range", "table": "t",
                              "column": "x", "lo": 0.0})

    def test_wrong_type_rejected(self):
        with pytest.raises(ProtocolError, match="wrong type"):
            validate_request({"op": "modify", "table": "t", "column": "x",
                              "rows": "many"})

    def test_bool_not_accepted_as_number(self):
        with pytest.raises(ProtocolError, match="wrong type"):
            validate_request({"op": "modify", "table": "t", "column": "x",
                              "rows": True})

    def test_wrong_optional_type_rejected(self):
        with pytest.raises(ProtocolError, match="wrong type"):
            validate_request({"op": "analyze", "table": "t", "column": "x",
                              "params": [1, 2]})

    def test_unknown_fields_rejected(self):
        with pytest.raises(ProtocolError, match="unexpected fields"):
            validate_request({"op": "ping", "extra": 1})

    def test_unknown_fields_rejected_on_telemetry_endpoints(self):
        for op in ("stats", "health", "watch"):
            with pytest.raises(ProtocolError, match="unexpected fields"):
                validate_request({"op": op, "extra": 1})

    def test_watch_cursor_wrong_type_rejected(self):
        with pytest.raises(ProtocolError, match="wrong type"):
            validate_request({"op": "watch", "cursor": "0"})

    def test_watch_cursor_bool_rejected(self):
        with pytest.raises(ProtocolError, match="wrong type"):
            validate_request({"op": "watch", "cursor": True})


#: An integer literal ``json.loads`` accepts but no float can hold.
HUGE = int("9" * 400)

NAN, INF = float("nan"), float("inf")


def _estimate(op, **numbers):
    return {"op": op, "table": "t", "column": "x", **numbers}


class TestNonFiniteNumbers:
    """NaN is never a number the server answers for; ±inf only as an open
    range bound; integers beyond float range are rejected, not overflowed."""

    @pytest.mark.parametrize(
        "request_, message",
        [
            (_estimate("estimate_range", lo=NAN, hi=5), "'lo'.*cannot be nan"),
            (_estimate("estimate_range", lo=0, hi=NAN), "'hi'.*cannot be nan"),
            (_estimate("estimate_equality", value=NAN), "'value'.*cannot be nan"),
            (_estimate("estimate_quantile", q=NAN), "'q'.*cannot be nan"),
            (_estimate("estimate_equality", value=INF), "'value'.*cannot be -?inf"),
            (_estimate("estimate_equality", value=-INF), "'value'.*cannot be -?inf"),
            (_estimate("estimate_quantile", q=INF), "'q'.*cannot be -?inf"),
            (_estimate("estimate_range", lo=HUGE, hi=5), "'lo'.*too large"),
            (_estimate("estimate_range", lo=0, hi=-HUGE), "'hi'.*too large"),
            (_estimate("estimate_equality", value=HUGE), "'value'.*too large"),
            (_estimate("estimate_quantile", q=HUGE), "'q'.*too large"),
        ],
        ids=[
            "range_lo_nan", "range_hi_nan", "equality_nan", "quantile_nan",
            "equality_inf", "equality_neg_inf", "quantile_inf",
            "range_lo_huge_int", "range_hi_huge_neg_int",
            "equality_huge_int", "quantile_huge_int",
        ],
    )
    def test_rejected_with_parameter_error(self, request_, message):
        with pytest.raises(ParameterError, match=message):
            validate_request(request_)

    def test_infinite_range_bounds_accepted(self):
        _, fields = validate_request(
            _estimate("estimate_range", lo=-INF, hi=INF)
        )
        assert fields["lo"] == -INF and fields["hi"] == INF

    def test_numeric_fields_arrive_as_floats(self):
        _, fields = validate_request(_estimate("estimate_range", lo=1, hi=2**60))
        assert type(fields["lo"]) is float and fields["lo"] == 1.0
        assert fields["hi"] == float(2**60)
        assert not math.isnan(fields["hi"])


def _analyze(params):
    return {"op": "analyze", "table": "t", "column": "x", "params": params}


class TestAnalyzeParams:
    """``params`` carries only the declared build parameters, typed and in
    range; anything else is a typed error, never an exception in the build."""

    def test_every_declared_parameter_accepted(self):
        params = {
            "k": MAX_K, "f": 1, "gamma": 0.5, "method": "record",
            "layout": "sorted", "validation": "one_per_block",
            "metric": "count", "max_sampled_fraction": 0.5,
        }
        assert set(params) == set(ANALYZE_PARAMS)
        _, fields = validate_request(_analyze(params))
        assert fields["params"] == params
        assert type(fields["params"]["f"]) is float

    @pytest.mark.parametrize(
        "params, code, message",
        [
            ({"bogus": 1}, ProtocolError, "unexpected build parameter 'bogus'"),
            ({"rng": 1}, ProtocolError, "unexpected build parameter 'rng'"),
            ({"heapfile": None}, ProtocolError, "unexpected build parameter"),
            ({"record_sample_size": 10}, ProtocolError,
             "unexpected build parameter"),
            ({"k": "a"}, ProtocolError, "'params.k'.*wrong type"),
            ({"f": "x"}, ProtocolError, "'params.f'.*wrong type"),
            ({"k": 1e300}, ProtocolError, "'params.k'.*wrong type"),
            ({"k": NAN}, ProtocolError, "'params.k'.*wrong type"),
            ({"k": 8.0}, ProtocolError, "'params.k'.*wrong type"),
            ({"k": True}, ProtocolError, "'params.k'.*wrong type"),
            ({"method": 1}, ProtocolError, "'params.method'.*wrong type"),
            ({"k": MAX_K + 1}, ParameterError, "at most"),
            ({"k": HUGE}, ParameterError, "at most"),
            ({"k": 0}, ParameterError, "k must be positive"),
            ({"f": NAN}, ParameterError, "'params.f'.*cannot be nan"),
            ({"f": INF}, ParameterError, "'params.f'.*cannot be inf"),
            ({"f": HUGE}, ParameterError, "'params.f'.*too large"),
            ({"f": 2}, ParameterError, "f must be in"),
            ({"f": 0}, ParameterError, "f must be in"),
            ({"gamma": 1}, ParameterError, "gamma must be in"),
            ({"max_sampled_fraction": 0}, ParameterError,
             "max_sampled_fraction must be in"),
            ({"method": "bogus"}, ParameterError, "params.method must be one of"),
            ({"layout": "bogus"}, ParameterError, "params.layout must be one of"),
            ({"validation": "x"}, ParameterError, "validation must be one of"),
            ({"metric": "x"}, ParameterError, "metric must be one of"),
        ],
        ids=[
            "unknown", "rng", "heapfile", "record_sample_size", "k_str",
            "f_str", "k_huge_float", "k_nan", "k_float", "k_bool",
            "method_int", "k_over_max", "k_huge_int", "k_zero", "f_nan",
            "f_inf", "f_huge_int", "f_above_one", "f_zero", "gamma_one",
            "fraction_zero", "method_unknown", "layout_unknown",
            "validation_unknown", "metric_unknown",
        ],
    )
    def test_rejected_with_a_typed_error(self, params, code, message):
        with pytest.raises(code, match=message):
            validate_request(_analyze(params))


class TestDeclarations:
    def test_optional_fields_only_for_declared_endpoints(self):
        assert set(OPTIONAL_FIELDS) <= set(ENDPOINTS)

    def test_every_endpoint_has_help(self):
        for spec in ENDPOINTS.values():
            assert spec.help.strip()
