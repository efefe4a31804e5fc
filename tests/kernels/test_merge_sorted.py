"""Property tests: ``merge_sorted`` is the stable sort of the concatenation.

The CVB accumulation step must produce exactly the bytes of
``np.sort(np.concatenate([a, b]), kind="stable")`` — ``a``'s copies of a
tied value first, signed zeros in their stable order, the promoted dtype
for mixed int/float operands — and, when one side is empty, the other.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels

POOLS = {
    "int": st.integers(min_value=-4, max_value=4),
    "float": st.sampled_from((-1.5, -0.0, 0.0, 2.0, np.nextafter(2.0, 3.0), np.inf)),
}
DTYPES = {"int": np.int64, "float": np.float64}


@st.composite
def sorted_operand(draw, kind: str) -> np.ndarray:
    values = draw(st.lists(POOLS[kind], max_size=300))
    return np.sort(np.asarray(values, dtype=DTYPES[kind]), kind="stable")


@st.composite
def operands(draw) -> tuple[np.ndarray, np.ndarray]:
    kind_a = draw(st.sampled_from(sorted(POOLS)))
    kind_b = draw(st.sampled_from(sorted(POOLS)))
    return draw(sorted_operand(kind_a)), draw(sorted_operand(kind_b))


@given(pair=operands())
@settings(max_examples=300, deadline=None)
def test_merge_is_stable_sort_of_concatenation(pair):
    a, b = pair
    merged = kernels.merge_sorted(a.copy(), b.copy())
    if a.size == 0:
        expected = b
    elif b.size == 0:
        expected = a
    else:
        expected = np.sort(np.concatenate([a, b]), kind="stable")
        assert merged.dtype == np.result_type(a, b)
    assert merged.dtype == expected.dtype
    assert merged.tobytes() == expected.tobytes()

