"""Property tests: ``value_counts`` is ``np.unique(..., return_counts=True)``.

The run-length counter feeds GEE's frequency profile and both self-join
density forms, so it must agree with ``np.unique`` count for count and
dtype for dtype — on sorted input (the CVB sample), unsorted input (a raw
column), page-run-shuffled input (sorted pages in random page order, the
shape of a partially clustered heap file), and the float corner cases
``np.unique`` defines: NaNs collapse into one value, ``-0.0`` equals
``0.0``.  Both kernel modes run every case, since the sortedness probe
differs between them.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.distinct.frequency import value_counts
from repro.exceptions import EmptyDataError

FLOAT_POOL = (-2.5, -0.0, 0.0, 1.0, np.nextafter(1.0, 2.0), 3.75, np.nan, np.inf)


@st.composite
def samples(draw) -> np.ndarray:
    """Small-alphabet int or float arrays (so runs and ties are common)."""
    size = draw(st.integers(min_value=1, max_value=400))
    if draw(st.booleans()):
        pool = st.integers(min_value=-5, max_value=5)
        values = np.asarray(draw(st.lists(pool, min_size=size, max_size=size)),
                            dtype=np.int64)
    else:
        pool = st.sampled_from(FLOAT_POOL)
        values = np.asarray(draw(st.lists(pool, min_size=size, max_size=size)),
                            dtype=np.float64)
    shape = draw(st.sampled_from(("sorted", "unsorted", "page_runs")))
    if shape == "sorted":
        return np.sort(values)
    if shape == "page_runs":
        page = draw(st.integers(min_value=1, max_value=32))
        ordered = np.sort(values)
        pages = [ordered[i:i + page] for i in range(0, ordered.size, page)]
        order = draw(st.permutations(range(len(pages))))
        return np.concatenate([pages[i] for i in order])
    return values


def _assert_matches_unique(values: np.ndarray) -> None:
    expected = np.unique(values, return_counts=True)[1]
    for mode in kernels.KERNEL_MODES:
        with kernels.use_kernels(mode):
            got = value_counts(values.copy())
        assert got.dtype == expected.dtype, mode
        assert np.array_equal(got, expected), (mode, got, expected)


@given(values=samples())
@settings(max_examples=300, deadline=None)
def test_value_counts_matches_np_unique(values):
    _assert_matches_unique(values)


@pytest.mark.parametrize(
    "values",
    [
        np.array([np.nan]),
        np.array([np.nan, np.nan, np.nan]),
        np.array([1.0, np.nan, -0.0, np.nan, 0.0, 1.0]),
        np.array([-0.0, 0.0, -0.0]),
        np.array([7]),
        np.full(50, 3, dtype=np.int64),
        np.full(50, -0.0),
        np.array([np.inf, np.nan, -np.inf, np.inf]),
    ],
    ids=[
        "one_nan",
        "all_nan",
        "nan_and_signed_zeros",
        "signed_zeros",
        "single_int",
        "single_value_int",
        "single_value_neg_zero",
        "infinities_and_nan",
    ],
)
def test_value_counts_corner_cases(values):
    _assert_matches_unique(values)


@pytest.mark.parametrize("mode", kernels.KERNEL_MODES)
def test_value_counts_rejects_empty(mode):
    with kernels.use_kernels(mode):
        with pytest.raises(EmptyDataError):
            value_counts(np.array([], dtype=np.float64))
