"""Vectorized hot-path kernels, with a scalar twin for each registered one.

The sampling → sort → separator-extraction → error-metric pipeline is where
every figure and bench scenario spends its time.  This module rewrites those
inner loops as numpy-batched **kernels** while keeping the original
per-record implementations alive as their **scalar** twins:

- :func:`gather_pages` — materialise many page payloads at once (the batched
  page-draw behind :meth:`~repro.storage.heapfile.HeapFile.read_pages` and
  :class:`~repro.sampling.block_sampler.BlockSampleStream`);
- :func:`equi_height_separators_unsorted` — separator extraction from an
  *unsorted* column (Section 2.1's positions, Section 5's duplicate
  handling): an ``O(n)`` sortedness probe skips the sort outright,
  ``np.partition`` selects the order statistic in the regime where
  selection beats numpy's SIMD sort, and the sort is the fallback;
- :func:`separator_counts` — bucket counts, per-separator equal-value
  counts and extrema of a column against fixed separators, counting
  through run-boundary ``searchsorted`` diffs on the sorted column (the
  probe again skips the sort whenever the caller's column already is);
- :func:`ensure_sorted` — sorted view used by the Δmax/f′ metrics, skipping
  the re-sort when the input is already ordered (the CVB accumulated
  sample always is);
- :func:`one_per_block_draws` — the per-block representative draws of the
  Section 4.2 validation twist, batched through one ``Generator.integers``
  call.

Every kernel has a ``scalar`` and a ``vector`` implementation registered in
:data:`KERNELS`; ``REPRO_KERNELS=scalar|vector`` (or the
:func:`use_kernels` override) selects which one runs.  The two
implementations are **bit-identical by contract**: same output arrays,
same dtypes on every code path callers compare, same exceptions on
degenerate input, and — for :func:`one_per_block_draws` — the same number
of draws consumed from the same RNG stream.  The differential harness in
``tests/kernels/`` enforces the contract on generated Zipf, Unif-Dup,
adversarial near-duplicate and degenerate datasets, and the bench baseline
gate (``repro bench --compare``) proves logical costs are mode-inert.

This module sits at the bottom of the stack on purpose: it imports nothing
but numpy and the exception types, so storage, sampling, core and engine
can all call in without cycles.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

from ..exceptions import EmptyDataError, ParameterError

__all__ = [
    "KERNEL_MODES",
    "KERNELS",
    "kernel_mode",
    "kernel_names",
    "use_kernels",
    "vectorized",
    "gather_pages",
    "equi_height_separator_positions",
    "equi_height_separators_unsorted",
    "separator_counts",
    "eq_counts_sorted",
    "merge_sorted",
    "ensure_sorted",
    "one_per_block_draws",
]

#: The two implementation families selectable via ``$REPRO_KERNELS``.
KERNEL_MODES = ("scalar", "vector")

#: Environment variable naming the active implementation family.
ENV_VAR = "REPRO_KERNELS"

#: In-process override installed by :func:`use_kernels`; wins over the
#: environment so tests and the bench CLI can pin a mode without mutating
#: ``os.environ``.
_OVERRIDE: str | None = None


def kernel_mode() -> str:
    """The active kernel mode: override, else ``$REPRO_KERNELS``, else vector.

    The vectorized kernels are the default because they are proven
    bit-identical to the scalar twins by the differential harness; set
    ``REPRO_KERNELS=scalar`` to fall back to the reference implementations.
    """
    if _OVERRIDE is not None:
        return _OVERRIDE
    mode = os.environ.get(ENV_VAR, "vector")
    if mode not in KERNEL_MODES:
        raise ParameterError(
            f"{ENV_VAR} must be one of {KERNEL_MODES}, got {mode!r}"
        )
    return mode


def vectorized() -> bool:
    """True when the vector kernel family is active."""
    return kernel_mode() == "vector"


@contextmanager
def use_kernels(mode: str) -> Iterator[None]:
    """Pin the kernel mode for a ``with`` block (reentrant, test-friendly).

    Overrides ``$REPRO_KERNELS`` without touching the process environment,
    and restores the previous override on exit — the differential harness
    runs every kernel pair under both modes this way.
    """
    global _OVERRIDE
    if mode not in KERNEL_MODES:
        raise ParameterError(
            f"kernel mode must be one of {KERNEL_MODES}, got {mode!r}"
        )
    previous = _OVERRIDE
    _OVERRIDE = mode
    try:
        yield
    finally:
        _OVERRIDE = previous


#: name → ``{"scalar": impl, "vector": impl}``.  Populated by
#: :func:`_kernel`; the docs-sync test walks this registry, so every entry
#: must be described in docs/ARCHITECTURE.md.
KERNELS: dict[str, dict[str, Callable]] = {}


def kernel_names() -> list[str]:
    """Registered kernel-pair names, in registration order."""
    return list(KERNELS)


def _kernel(name: str, scalar: Callable, vector: Callable) -> None:
    """Register one scalar/vector implementation pair under *name*."""
    if name in KERNELS:
        raise ParameterError(f"duplicate kernel registration {name!r}")
    KERNELS[name] = {"scalar": scalar, "vector": vector}


def _impl(name: str) -> Callable:
    """The active implementation of kernel *name*."""
    return KERNELS[name][kernel_mode()]


# ----------------------------------------------------------------------
# gather_pages — batched page payload materialisation
# ----------------------------------------------------------------------


def _page_extents(
    page_ids: np.ndarray, blocking_factor: int, num_records: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-page half-open record ranges ``[lo, hi)`` for *page_ids*."""
    ids = np.asarray(page_ids, dtype=np.int64)
    lo = ids * blocking_factor
    hi = np.minimum(lo + blocking_factor, num_records)
    return lo, hi


def _gather_pages_scalar(
    values: np.ndarray, page_ids: np.ndarray, blocking_factor: int
) -> np.ndarray:
    """Reference: slice one page at a time and concatenate."""
    n = values.size
    chunks = []
    for pid in page_ids:
        lo = int(pid) * blocking_factor
        hi = min(lo + blocking_factor, n)
        chunks.append(values[lo:hi])
    if not chunks:
        return values[:0]
    return np.concatenate(chunks)


def _gather_pages_vector(
    values: np.ndarray, page_ids: np.ndarray, blocking_factor: int
) -> np.ndarray:
    """Batched: one fancy-index gather for the whole page set."""
    lo, hi = _page_extents(page_ids, blocking_factor, values.size)
    if lo.size == 0:
        return values[:0]
    sizes = hi - lo
    if sizes.min() == blocking_factor:
        # All pages full: a dense 2-D gather is one vectorised operation.
        index = lo[:, None] + np.arange(blocking_factor, dtype=np.int64)
        return values[index].reshape(-1)
    # General case (a short trailing page in the set): repeat each page's
    # base offset over its size and add the running intra-page rank.
    total = int(sizes.sum())
    starts = np.cumsum(sizes) - sizes
    index = np.repeat(lo - starts, sizes) + np.arange(total, dtype=np.int64)
    return values[index]


def gather_pages(
    values: np.ndarray, page_ids: np.ndarray, blocking_factor: int
) -> np.ndarray:
    """Concatenated payloads of *page_ids* over a page-ordered *values* array.

    Pure computation — no I/O accounting: callers charge reads themselves
    (see :meth:`~repro.storage.heapfile.HeapFile.read_pages`).  Page order
    is preserved and duplicate ids are gathered again, exactly like reading
    the pages one at a time.
    """
    return _impl("gather_pages")(values, page_ids, blocking_factor)


_kernel("gather_pages", _gather_pages_scalar, _gather_pages_vector)


# ----------------------------------------------------------------------
# Separator extraction from unsorted values
# ----------------------------------------------------------------------


def equi_height_separator_positions(m: int, k: int) -> np.ndarray:
    """0-based order-statistic positions of the ``k-1`` separators.

    Separator ``s_j`` is the value at (1-based) position ``ceil(j*m/k)``
    (Section 2.1); shared by both implementations and by
    :func:`repro.core.histogram.equi_height_separators`.
    """
    positions = np.ceil(np.arange(1, k) * m / k).astype(np.int64)
    return np.clip(positions - 1, 0, m - 1)


def _is_sorted(values: np.ndarray) -> bool:
    """``O(n)`` non-decreasing probe; NaNs fail it (comparisons are false)."""
    return values.size < 2 or bool(np.all(values[1:] >= values[:-1]))


def _check_separator_args(values: np.ndarray, k: int) -> None:
    """Shared validation so both implementations raise identically."""
    if k <= 0:
        raise ParameterError(f"k must be positive, got {k}")
    if values.size == 0:
        raise EmptyDataError("cannot build a histogram over an empty value set")


def _separators_unsorted_scalar(values: np.ndarray, k: int) -> np.ndarray:
    """Reference: full sort, then index the separator positions."""
    _check_separator_args(values, k)
    positions = equi_height_separator_positions(values.size, k)
    return np.sort(values)[positions]


def _separators_unsorted_vector(values: np.ndarray, k: int) -> np.ndarray:
    """Adaptive: probe, select, or sort — whichever is measured fastest.

    An ``O(n)`` sortedness probe reads the separators straight out of an
    already-ordered column.  For a single separator, ``np.partition``
    introselect beats a full sort.  Beyond that, numpy's SIMD-accelerated
    ``np.sort`` is empirically faster than multi-position introselect at
    every measured ``(n, k)``, so the sort *is* the vector kernel there.
    The selected order statistics are identical by definition on all three
    routes.
    """
    _check_separator_args(values, k)
    positions = equi_height_separator_positions(values.size, k)
    if positions.size == 0:
        return values[:0]
    if _is_sorted(values):
        return values[positions]
    if positions.size == 1:
        return np.partition(values, positions)[positions]
    return np.sort(values)[positions]


def equi_height_separators_unsorted(values: np.ndarray, k: int) -> np.ndarray:
    """The ``k-1`` equi-height separators of an **unsorted** value array.

    Same order statistics as
    :func:`repro.core.histogram.equi_height_separators` applied to
    ``np.sort(values)``, without requiring the caller to sort.
    """
    return _impl("separators_unsorted")(np.asarray(values), k)


_kernel(
    "separators_unsorted",
    _separators_unsorted_scalar,
    _separators_unsorted_vector,
)


# ----------------------------------------------------------------------
# Counting against fixed separators
# ----------------------------------------------------------------------


def eq_counts_sorted(
    sorted_values: np.ndarray, separators: np.ndarray
) -> np.ndarray:
    """Count of *sorted_values* equal to each separator; repeats carry zero.

    For a run of repeated separators only the first carries the equal count
    (the SQL Server EQ_ROWS convention, Section 5).  Shared helper: the
    scalar :func:`separator_counts` twin and the sorted-input histogram
    constructors both use it.
    """
    lo = np.searchsorted(sorted_values, separators, side="left")
    hi = np.searchsorted(sorted_values, separators, side="right")
    eq = (hi - lo).astype(np.int64)
    if separators.size > 1:
        repeat = np.concatenate(([False], separators[1:] == separators[:-1]))
        eq[repeat] = 0
    return eq


def _bucket_counts(values: np.ndarray, separators: np.ndarray) -> np.ndarray:
    """Bucket counts of *values* under the ``(s_{j-1}, s_j]`` convention."""
    k = separators.size + 1
    return np.bincount(
        np.searchsorted(separators, values, side="left"), minlength=k
    ).astype(np.int64)


def _separator_counts_scalar(
    values: np.ndarray, separators: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Reference: sort the column, then count through ``searchsorted``."""
    counts = _bucket_counts(values, separators)
    sorted_values = np.sort(values)
    eq = eq_counts_sorted(sorted_values, separators)
    return counts, eq, float(sorted_values[0]), float(sorted_values[-1])


def _separator_counts_vector(
    values: np.ndarray, separators: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Adaptive: count through run boundaries on the sorted column.

    The sortedness probe skips the sort whenever the caller's column is
    already ordered (the Figure 5/7 ground-truth recounts and the CVB
    accumulated sample always are), collapsing the whole kernel to
    ``O(k log n)``.  Otherwise one SIMD sort — measurably cheaper than the
    per-element ``searchsorted``-into-separators scan the scalar twin
    layers on top of its own sort — feeds the same boundary diffs.  Bucket
    ``j`` holds ``#(v <= s_j) - #(v <= s_{j-1})``, which is exactly the
    scalar twin's ``(s_{j-1}, s_j]`` bincount convention.
    """
    sorted_values = values if _is_sorted(values) else np.sort(values)
    upper = np.searchsorted(sorted_values, separators, side="right")
    bounds = np.concatenate(([0], upper, [sorted_values.size]))
    counts = np.diff(bounds).astype(np.int64)
    eq = eq_counts_sorted(sorted_values, separators)
    return counts, eq, float(sorted_values[0]), float(sorted_values[-1])


def separator_counts(
    values: np.ndarray, separators: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """``(bucket_counts, eq_counts, min, max)`` of unsorted *values*.

    The counting step of
    :meth:`~repro.core.histogram.EquiHeightHistogram.from_separators`:
    partition *values* by the (non-decreasing) *separators*, count the
    values exactly equal to each separator (first of a repeated run carries
    the count), and report the observed extrema.
    """
    values = np.asarray(values)
    if values.size == 0:
        raise EmptyDataError("cannot count an empty value set")
    return _impl("separator_counts")(values, np.asarray(separators))


_kernel(
    "separator_counts", _separator_counts_scalar, _separator_counts_vector
)


# ----------------------------------------------------------------------
# merge_sorted — the CVB increment step
# ----------------------------------------------------------------------


def merge_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Merge two **sorted** arrays into one sorted array.

    The CVB accumulation step (Section 7.1, extension 2), with no scalar
    twin.  The stable sort is a timsort: it merges the two runs of the
    concatenation in one linear pass (4–12× faster than a ``searchsorted``
    rank scatter from 10 k to 5 M elements), ``a``'s copies of a tie first,
    and sorting in place keeps the peak at one output array.  An empty side
    returns the other as-is.
    """
    if a.size == 0:
        return b
    if b.size == 0:
        return a
    merged = np.concatenate([a, b])
    merged.sort(kind="stable")
    return merged


# ----------------------------------------------------------------------
# ensure_sorted — sorted views for the error metrics
# ----------------------------------------------------------------------


def _ensure_sorted_scalar(values: np.ndarray) -> np.ndarray:
    """Reference: always sort (what the metrics historically did)."""
    return np.sort(values)


def _ensure_sorted_vector(values: np.ndarray) -> np.ndarray:
    """Batched: an ``O(n)`` sortedness probe skips the ``O(n log n)`` sort.

    The f′ metric re-validates the CVB accumulated sample every round, and
    that sample is maintained sorted — detecting this saves the dominant
    cost of the validation step.  NaNs make the probe fail (comparisons are
    false), falling back to the sort, so behaviour matches the scalar twin
    on every input.
    """
    if _is_sorted(values):
        return values
    return np.sort(values)


def ensure_sorted(values: np.ndarray) -> np.ndarray:
    """*values* in non-decreasing order (a copy only when sorting is needed).

    Callers must treat the result as read-only: the vector implementation
    returns the input itself when it is already sorted.
    """
    return _impl("ensure_sorted")(np.asarray(values))


_kernel("ensure_sorted", _ensure_sorted_scalar, _ensure_sorted_vector)


# ----------------------------------------------------------------------
# one_per_block_draws — decorrelated validation representatives
# ----------------------------------------------------------------------


def _one_per_block_scalar(
    generator: np.random.Generator, sizes: np.ndarray
) -> np.ndarray:
    """Reference: one ``integers`` call per block, in block order."""
    draws = [int(generator.integers(0, int(size))) for size in sizes]
    return np.asarray(draws, dtype=np.int64)


def _one_per_block_vector(
    generator: np.random.Generator, sizes: np.ndarray
) -> np.ndarray:
    """Batched: one ``integers`` call with a per-block bound array.

    numpy's ``Generator.integers`` consumes the bit stream element-wise, so
    the batched call draws exactly the same values in the same order as the
    scalar twin's loop — the differential harness pins this by comparing
    post-call generator states.
    """
    if sizes.size == 0:
        return np.zeros(0, dtype=np.int64)
    return generator.integers(0, sizes, dtype=np.int64)


def one_per_block_draws(
    generator: np.random.Generator, sizes: np.ndarray
) -> np.ndarray:
    """One uniform index draw per block, given the per-block tuple counts.

    Implements the random-representative selection of the Section 4.2
    cross-validation twist.  Every entry of *sizes* must be positive; the
    caller filters empty blocks (which draw nothing) beforehand.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.size and sizes.min() <= 0:
        raise ParameterError("block sizes must be positive to draw from")
    return _impl("one_per_block")(generator, sizes)


_kernel("one_per_block", _one_per_block_scalar, _one_per_block_vector)
