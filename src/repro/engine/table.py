"""Minimal table/column abstractions.

The engine layer plays the role of the SQL Server catalog surrounding the
paper's prototype: a :class:`Table` owns named :class:`Column` value arrays
and can present any column as a simulated on-disk heap file with a chosen
physical layout.

Like the paper's SQL Server 7.0 tables (Section 7), a table has one fixed
physical order: its ``random`` layout is a row order drawn once, seeded by
the table's name, and shared by every column — all attributes of a row sit
on the same page.  Presenting a column in that layout copies nothing, so an
ANALYZE costs work proportional to the pages it reads, not to n.
"""

from __future__ import annotations

import threading
import zlib

import numpy as np

from .._rng import RngLike
from ..exceptions import CatalogError, ParameterError
from ..storage.heapfile import HeapFile
from ..storage.record import RecordSpec

__all__ = ["Column", "Table"]


class Column:
    """A named attribute with its value multiset."""

    def __init__(self, name: str, values: np.ndarray):
        if not name:
            raise ParameterError("column name must be non-empty")
        values = np.asarray(values)
        if values.ndim != 1:
            raise ParameterError(
                f"column values must be one-dimensional, got shape {values.shape}"
            )
        self.name = name
        self._values = values

    @property
    def values(self) -> np.ndarray:
        """The column's values as a numpy array."""
        return self._values

    @property
    def num_rows(self) -> int:
        """Number of rows in the column."""
        return int(self._values.size)

    def sorted_values(self) -> np.ndarray:
        """Values in domain order (ground truth for experiments)."""
        return np.sort(self._values)

    def __repr__(self) -> str:
        return f"Column({self.name!r}, rows={self.num_rows})"


class Table:
    """A named collection of equal-length columns."""

    def __init__(self, name: str, columns: dict[str, np.ndarray] | None = None):
        if not name:
            raise ParameterError("table name must be non-empty")
        self.name = name
        self._columns: dict[str, Column] = {}
        self._row_order: np.ndarray | None = None
        self._row_order_lock = threading.Lock()
        if columns:
            for col_name, values in columns.items():
                self.add_column(col_name, values)

    def add_column(self, name: str, values: np.ndarray) -> Column:
        """Add a column; all columns must have the same row count."""
        if name in self._columns:
            raise CatalogError(
                f"table {self.name!r} already has a column {name!r}"
            )
        column = Column(name, values)
        if self._columns:
            existing = next(iter(self._columns.values()))
            if column.num_rows != existing.num_rows:
                raise ParameterError(
                    f"column {name!r} has {column.num_rows} rows; table "
                    f"{self.name!r} has {existing.num_rows}"
                )
        self._columns[name] = column
        return column

    def column(self, name: str) -> Column:
        """Fetch a column by name (raises when missing)."""
        if name not in self._columns:
            raise CatalogError(
                f"table {self.name!r} has no column {name!r}"
            )
        return self._columns[name]

    @property
    def column_names(self) -> list[str]:
        """Column names, in declaration order."""
        return list(self._columns)

    @property
    def num_rows(self) -> int:
        """Number of rows in the table."""
        if not self._columns:
            return 0
        return next(iter(self._columns.values())).num_rows

    @property
    def layout_seed(self) -> int:
        """Seed of the table's physical layout: ``crc32(name)``."""
        return zlib.crc32(self.name.encode())

    def row_order(self) -> np.ndarray:
        """The table's random physical row order: row ids in page order.

        Drawn once, on first use, as
        ``default_rng(layout_seed).permutation(num_rows)`` and then shared,
        read-only, by every column.  Columns cannot change the row count
        (:meth:`add_column` enforces equal lengths), so the order never goes
        stale.  Thread-safe: concurrent first callers get the same array.
        """
        order = self._row_order
        if order is None:
            if not self._columns:
                raise CatalogError(f"table {self.name!r} has no columns")
            with self._row_order_lock:
                order = self._row_order
                if order is None:
                    order = np.random.default_rng(self.layout_seed).permutation(
                        self.num_rows
                    )
                    order.flags.writeable = False
                    self._row_order = order
        return order

    def to_heapfile(
        self,
        column_name: str,
        layout: str = "random",
        rng: RngLike = None,
        spec: RecordSpec | None = None,
        blocking_factor: int | None = None,
        cluster_fraction: float = 0.2,
    ) -> HeapFile:
        """Present *column_name* as a simulated on-disk heap file.

        Without *rng* the column takes the table's own physical layout:
        ``random`` reads the column through the cached :meth:`row_order`
        (O(1), nothing copied); other layouts are materialised per call,
        seeded by :attr:`layout_seed`, so every call sees the same pages.
        An explicit *rng* lays out a fresh copy exactly like
        :meth:`HeapFile.from_values`.  Every call returns a new heap file
        with its own :class:`~repro.storage.iostats.IOStats`.
        """
        column = self.column(column_name)
        if rng is None:
            if layout == "random":
                return HeapFile.from_order(
                    column.values,
                    self.row_order(),
                    spec=spec,
                    blocking_factor=blocking_factor,
                )
            rng = self.layout_seed
        return HeapFile.from_values(
            column.values,
            layout=layout,
            rng=rng,
            spec=spec,
            blocking_factor=blocking_factor,
            cluster_fraction=cluster_fraction,
        )

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, rows={self.num_rows}, "
            f"columns={self.column_names})"
        )
