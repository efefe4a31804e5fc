"""Byte-identity regression for the CVB build and the ANALYZE statistics.

SHA-256 digests of every build output a simplification must not move —
the CVB accumulated sample, the histogram's separators and counts, the
per-round iteration records, and the distinct/density statistics — are
pinned in ``golden/build_digests.json`` over layouts {random, sorted,
partial} × validation {full_increment, one_per_block} × metric
{fractional, count} at two seeds and two columns, and checked under both
kernel modes.  Regenerate (only after an *intentional* output change)
with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/integration/test_build_digests.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core import kernels
from repro.engine.statistics import StatisticsManager
from repro.engine.table import Table

GOLDEN = Path(__file__).parent / "golden" / "build_digests.json"

LAYOUTS = ("random", "sorted", "partial")
VALIDATIONS = ("full_increment", "one_per_block")
METRICS = ("fractional", "count")
SEEDS = (1, 2)
COLUMNS = ("zipf", "real")


def _table() -> Table:
    rng = np.random.default_rng(20260101)
    n = 200_000
    return Table(
        "digests",
        {
            # Heavy duplicates: adjacent separators coincide.
            "zipf": rng.zipf(1.6, size=n).astype(np.int64),
            # Near-continuous floats with ties, both signed zeros included.
            "real": np.concatenate(
                [np.round(rng.normal(0.0, 3.0, size=n - 2), 2), [-0.0, 0.0]]
            ),
        },
    )


def _sha(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def _array_digest(values: np.ndarray) -> str:
    values = np.ascontiguousarray(values)
    return _sha(values.dtype.str.encode(), values.tobytes())


def _case_digests(table: Table, column: str, layout: str, validation: str,
                  metric: str, seed: int) -> dict[str, str]:
    stats = StatisticsManager().analyze(
        table,
        column,
        k=10,
        f=0.25,
        layout=layout,
        rng=seed,
        validation=validation,
        metric=metric,
    )
    cvb = stats.cvb_result
    histogram = cvb.histogram
    iterations = [dataclasses.astuple(it) for it in cvb.iterations]
    return {
        "sample": _array_digest(cvb.sample),
        "separators": _array_digest(histogram.separators),
        "counts": _sha(
            _array_digest(histogram.counts).encode(),
            _array_digest(histogram.eq_counts).encode(),
            repr((histogram.min_value, histogram.max_value)).encode(),
        ),
        "iterations": _sha(repr(iterations).encode()),
        "statistics": _sha(
            repr(
                (stats.distinct_estimate, stats.selfjoin_density, stats.density)
            ).encode()
        ),
    }


def _all_digests() -> dict[str, dict[str, str]]:
    table = _table()
    return {
        f"{column}/{layout}/{validation}/{metric}/seed{seed}": _case_digests(
            table, column, layout, validation, metric, seed
        )
        for column in COLUMNS
        for layout in LAYOUTS
        for validation in VALIDATIONS
        for metric in METRICS
        for seed in SEEDS
    }


@pytest.mark.parametrize("mode", kernels.KERNEL_MODES)
def test_build_outputs_match_golden_digests(mode):
    with kernels.use_kernels(mode):
        actual = _all_digests()
    if os.environ.get("REPRO_REGEN_GOLDEN") and mode == "vector":
        GOLDEN.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n")
    expected = json.loads(GOLDEN.read_text())
    assert actual.keys() == expected.keys()
    drifted = sorted(key for key in expected if actual[key] != expected[key])
    assert not drifted, (
        f"build outputs drifted from {GOLDEN.name}: {drifted}; if the change "
        "is intentional, regenerate with REPRO_REGEN_GOLDEN=1"
    )
