"""Heap file: the simulated on-disk table.

A :class:`HeapFile` stores one column's values in page order (the physical
layout already applied) and charges one page read per page fetched, which is
the cost unit the paper reports ("number of disk blocks sampled", Figure 4).

The backing store is either a single contiguous numpy array already in page
order (``read_page`` returns a view, so scanning or sampling a million-page
file allocates almost nothing), or the column's values in any order plus a
read-only ``order`` array of row ids in page order.  The second form is how
a :class:`~repro.engine.table.Table` lays a column out without copying it:
every column of the table shares one row order, the way all attributes of a
row share a page, and a read gathers only the rows of the pages it fetches.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .._rng import RngLike
from ..core import kernels
from ..exceptions import ParameterError
from .iostats import IOStats
from .layout import apply_layout
from .page import Page
from .record import RecordSpec

__all__ = ["HeapFile"]


class HeapFile:
    """A read-only heap file over one attribute column.

    Construct with :meth:`from_values`, which applies a physical layout,
    directly from an array already in page order, or from values plus an
    *order*: row ids in page order (page ``p`` holds
    ``values[order[p * b:(p + 1) * b]]``).  Both forms answer every access
    path with the same payloads and the same :class:`IOStats` charges.
    """

    def __init__(
        self,
        laid_out_values: np.ndarray,
        blocking_factor: int,
        spec: RecordSpec | None = None,
        order: np.ndarray | None = None,
    ):
        values = np.asarray(laid_out_values)
        if values.ndim != 1:
            raise ParameterError(
                f"heap file values must be one-dimensional, got shape {values.shape}"
            )
        if blocking_factor <= 0:
            raise ParameterError(
                f"blocking_factor must be positive, got {blocking_factor}"
            )
        if order is not None and np.shape(order) != values.shape:
            raise ParameterError(
                f"order must hold one row id per value, got shape "
                f"{np.shape(order)} for {values.size} values"
            )
        self._values = values
        self._order = order
        self._blocking_factor = int(blocking_factor)
        self._spec = spec
        self.iostats = IOStats()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_values(
        cls,
        values: np.ndarray,
        layout: str = "random",
        rng: RngLike = None,
        spec: RecordSpec | None = None,
        blocking_factor: int | None = None,
        cluster_fraction: float = 0.2,
    ) -> "HeapFile":
        """Lay out *values* and wrap them in a heap file.

        Parameters
        ----------
        values:
            The column's multiset, in any order.
        layout:
            One of :data:`repro.storage.layout.LAYOUT_NAMES`.
        spec:
            Record/page geometry; defaults to 64-byte records in 8 KB pages.
        blocking_factor:
            Overrides ``spec.blocking_factor`` when experiments need an exact
            records-per-page count.
        cluster_fraction:
            Only used by the ``partial`` layout.
        """
        spec, blocking_factor = _geometry(spec, blocking_factor)
        laid_out = apply_layout(
            values, layout=layout, rng=rng, cluster_fraction=cluster_fraction
        )
        return cls(laid_out, blocking_factor=blocking_factor, spec=spec)

    @classmethod
    def from_order(
        cls,
        values: np.ndarray,
        order: np.ndarray,
        spec: RecordSpec | None = None,
        blocking_factor: int | None = None,
    ) -> "HeapFile":
        """Wrap *values* read through *order* (row ids in page order).

        Costs O(1): nothing is copied, so one *order* can back a heap file
        per column.  Equivalent on every access path to
        ``HeapFile(values[order], ...)``; *spec* and *blocking_factor* as
        in :meth:`from_values`.
        """
        spec, blocking_factor = _geometry(spec, blocking_factor)
        return cls(values, blocking_factor=blocking_factor, spec=spec, order=order)

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    @property
    def num_records(self) -> int:
        """Total records stored (the paper's ``n``)."""
        return int(self._values.size)

    @property
    def blocking_factor(self) -> int:
        """Records per page (the paper's ``b``)."""
        return self._blocking_factor

    @property
    def num_pages(self) -> int:
        """Number of pages, including a possibly short last page."""
        b = self._blocking_factor
        return (self.num_records + b - 1) // b

    @property
    def spec(self) -> RecordSpec | None:
        """Record geometry, when known."""
        return self._spec

    def page_bounds(self, page_id: int) -> tuple[int, int]:
        """Half-open record-index range ``[lo, hi)`` stored on *page_id*."""
        if not 0 <= page_id < self.num_pages:
            raise ParameterError(
                f"page_id {page_id} out of range [0, {self.num_pages})"
            )
        lo = page_id * self._blocking_factor
        hi = min(lo + self._blocking_factor, self.num_records)
        return lo, hi

    # ------------------------------------------------------------------
    # Access paths (all charged to iostats)
    # ------------------------------------------------------------------

    def read_page(self, page_id: int) -> np.ndarray:
        """All values on *page_id*; costs one page read."""
        lo, hi = self.page_bounds(page_id)
        self.iostats.record_read(page_id)
        return self._slice(lo, hi)

    def read_pages(self, page_ids: Sequence[int]) -> np.ndarray:
        """Concatenated values of *page_ids*, charged one read each.

        This is the block-sampling access path: page order is preserved as
        given, duplicate ids are read (and charged) again.
        """
        if len(page_ids) == 0:
            return self.empty_payload()
        if kernels.vectorized() and type(self).read_page is HeapFile.read_page:
            # Batched fast path: one gather + one accounting call.  Gated on
            # read_page not being overridden so fault-injecting subclasses
            # keep their per-page semantics.
            ids = np.asarray(page_ids, dtype=np.int64)
            bad = (ids < 0) | (ids >= self.num_pages)
            if bad.any():
                first = int(ids[bad][0])
                raise ParameterError(
                    f"page_id {first} out of range [0, {self.num_pages})"
                )
            payload = self._gather(ids)
            self.iostats.record_reads(ids)
            return payload
        chunks = [self.read_page(int(pid)) for pid in page_ids]
        return np.concatenate(chunks)

    def read_record(self, record_index: int):
        """One record by global index; costs a read of its whole page.

        This is what makes record-level sampling expensive: fetching a single
        tuple still pulls a full page off disk (Section 4 of the paper).
        """
        if not 0 <= record_index < self.num_records:
            raise ParameterError(
                f"record_index {record_index} out of range [0, {self.num_records})"
            )
        page_id = record_index // self._blocking_factor
        self.iostats.record_read(page_id)
        if self._order is not None:
            record_index = self._order[record_index]
        return self._values[record_index]

    def scan(self) -> np.ndarray:
        """Full scan; costs one read per page, returns all values."""
        if kernels.vectorized():
            self.iostats.record_reads(range(self.num_pages))
        else:
            for page_id in range(self.num_pages):
                self.iostats.record_read(page_id)
        return self.values_unaccounted()

    def iter_pages(self) -> Iterator[np.ndarray]:
        """Iterate page payloads in order, charging each page."""
        for page_id in range(self.num_pages):
            yield self.read_page(page_id)

    def materialize_page(self, page_id: int) -> Page:
        """A :class:`Page` object for *page_id* (charged as one read)."""
        payload = self.read_page(page_id)
        return Page.from_values(page_id, payload, capacity=self._blocking_factor)

    # ------------------------------------------------------------------
    # Unaccounted access (oracle / ground truth only)
    # ------------------------------------------------------------------

    def values_unaccounted(self) -> np.ndarray:
        """All values without touching the I/O counters.

        Only for ground-truth computation in experiments; library code paths
        must use :meth:`scan` / :meth:`read_page`.  An order-backed file
        gathers all n values here, so this costs O(n).
        """
        if self._order is None:
            return self._values
        return self._values[self._order]

    def empty_payload(self) -> np.ndarray:
        """The zero-page payload (right dtype, no values, no charge)."""
        return self._values[:0]

    def _slice(self, lo: int, hi: int) -> np.ndarray:
        """Values at page-order positions ``[lo, hi)``, uncharged."""
        if self._order is None:
            return self._values[lo:hi]
        return self._values[self._order[lo:hi]]

    def _gather(self, page_ids: np.ndarray) -> np.ndarray:
        """Concatenated payloads of validated *page_ids*, uncharged."""
        b = self._blocking_factor
        if self._order is None:
            return kernels.gather_pages(self._values, page_ids, b)
        return self._values[kernels.gather_pages(self._order, page_ids, b)]

    def __repr__(self) -> str:
        return (
            f"HeapFile(records={self.num_records}, pages={self.num_pages}, "
            f"blocking_factor={self.blocking_factor})"
        )


def _geometry(
    spec: RecordSpec | None, blocking_factor: int | None
) -> tuple[RecordSpec, int]:
    """Default record geometry: 64-byte records in 8 KB pages."""
    if spec is None:
        spec = RecordSpec()
    if blocking_factor is None:
        blocking_factor = spec.blocking_factor
    return spec, blocking_factor
