"""The table's stored row order: one physical layout, read through, shared.

A :class:`~repro.engine.table.Table` lays its ``random`` layout out once as
a read-only row order that every column's heap file reads through.  These
tests pin that the order is drawn once and shared, that reading through it
is indistinguishable from reading a materialised copy, and that ANALYZE's
``rng`` now seeds sampling only.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import kernels
from repro.engine import StatisticsManager, Table
from repro.exceptions import CatalogError, ParameterError
from repro.storage import HeapFile
from repro.storage.faults import FaultPolicy, FaultyHeapFile, resilient_scan

N = 10_007  # short last page at every blocking factor used below


def _table(name: str = "orders") -> Table:
    rng = np.random.default_rng(3)
    return Table(
        name,
        {
            "qty": np.arange(N),
            "price": np.round(rng.normal(0.0, 50.0, N), 1),
        },
    )


class TestSharedOrder:
    def test_one_read_only_order_across_columns_and_analyses(self):
        table = _table()
        manager = StatisticsManager()
        order = table.row_order()
        assert not order.flags.writeable
        np.testing.assert_array_equal(np.sort(order), np.arange(N))
        for column, seed in (("qty", 1), ("price", 2), ("qty", 3)):
            manager.analyze(table, column, k=10, f=0.3, rng=seed)
            assert table.row_order() is order
            assert table.to_heapfile(column)._order is order

    def test_order_is_keyed_by_table_name(self):
        first = _table("orders").row_order()
        again = _table("orders").row_order()
        other = _table("lineitem").row_order()
        np.testing.assert_array_equal(first, again)
        assert not np.array_equal(first, other)

    def test_every_call_gets_fresh_iostats(self):
        table = _table()
        a = table.to_heapfile("qty")
        a.read_pages([0, 1, 2])
        b = table.to_heapfile("qty")
        assert a.iostats.page_reads == 3
        assert b.iostats.page_reads == 0

    def test_table_without_columns_has_no_order(self):
        with pytest.raises(CatalogError):
            Table("empty").row_order()

    def test_concurrent_first_use_draws_one_order(self):
        expected = _table().row_order()
        table = _table()
        barrier = threading.Barrier(4)
        seen = []

        def first_use():
            barrier.wait()
            seen.append(table.row_order())

        threads = [threading.Thread(target=first_use) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(seen) == 4
        assert all(order is seen[0] for order in seen)
        np.testing.assert_array_equal(seen[0], expected)

    def test_random_layout_equals_materialising_with_the_layout_seed(self):
        table = _table()
        wrapped = table.to_heapfile("price", blocking_factor=64)
        laid_out = HeapFile.from_values(
            table.column("price").values, rng=table.layout_seed,
            blocking_factor=64,
        )
        np.testing.assert_array_equal(
            wrapped.values_unaccounted(), laid_out.values_unaccounted()
        )

    def test_other_layouts_are_seeded_by_the_table(self):
        table = _table()
        for layout in ("sorted", "partial", "value_runs"):
            np.testing.assert_array_equal(
                table.to_heapfile("price", layout=layout).values_unaccounted(),
                table.to_heapfile("price", layout=layout).values_unaccounted(),
            )


class TestExplicitRng:
    @pytest.mark.parametrize("layout", ["random", "sorted", "partial"])
    def test_explicit_rng_is_bit_identical_to_from_values(self, layout):
        table = _table()
        values = table.column("price").values
        hf = table.to_heapfile("price", layout=layout, rng=11,
                               blocking_factor=50)
        reference = HeapFile.from_values(values, layout=layout, rng=11,
                                         blocking_factor=50)
        assert hf._order is None
        out = hf.values_unaccounted()
        ref = reference.values_unaccounted()
        assert out.dtype == ref.dtype
        assert out.tobytes() == ref.tobytes()


def _pair(blocking_factor: int = 64):
    """(order-backed, materialised) heap files over the same pages."""
    table = _table()
    values = table.column("price").values
    order = table.row_order()
    wrapped = table.to_heapfile("price", blocking_factor=blocking_factor)
    materialised = HeapFile(values[order], blocking_factor=blocking_factor)
    return wrapped, materialised


@pytest.mark.parametrize("mode", kernels.KERNEL_MODES)
class TestOrderBackedEqualsMaterialised:
    def _check(self, wrapped, materialised, read):
        out, ref = read(wrapped), read(materialised)
        np.testing.assert_array_equal(out, ref)
        assert np.asarray(out).dtype == np.asarray(ref).dtype
        assert wrapped.iostats.snapshot() == materialised.iostats.snapshot()

    def test_every_access_path(self, mode):
        ids = np.random.default_rng(5).integers(0, N // 64 + 1, 40)
        ids[-1] = N // 64  # include the short last page
        readers = [
            lambda hf: hf.read_page(3),
            lambda hf: hf.read_page(hf.num_pages - 1),
            lambda hf: hf.read_pages(ids),
            lambda hf: hf.read_pages([]),
            lambda hf: hf.read_record(N - 1),
            lambda hf: hf.read_record(777),
            lambda hf: hf.scan(),
            lambda hf: np.concatenate(list(hf.iter_pages())),
            lambda hf: hf.materialize_page(5).values(),
            lambda hf: hf.values_unaccounted(),
            lambda hf: hf.empty_payload(),
        ]
        with kernels.use_kernels(mode):
            wrapped, materialised = _pair()
            for read in readers:
                self._check(wrapped, materialised, read)

    def test_out_of_range_reads_rejected_alike(self, mode):
        with kernels.use_kernels(mode):
            wrapped, _ = _pair()
            with pytest.raises(ParameterError):
                wrapped.read_pages([0, wrapped.num_pages])
            with pytest.raises(ParameterError):
                wrapped.read_record(N)

    def test_fault_wrapped_files_read_the_same_pages(self, mode):
        policy = FaultPolicy(corrupt_fraction=0.1, seed=9)
        with kernels.use_kernels(mode):
            wrapped, materialised = _pair()
            faulty_wrapped = FaultyHeapFile(wrapped, policy)
            faulty_materialised = FaultyHeapFile(materialised, policy)
            assert faulty_wrapped._order is wrapped._order
            assert faulty_wrapped.corrupt_pages == faulty_materialised.corrupt_pages
            for read in (
                resilient_scan,
                FaultyHeapFile.readable_values_unaccounted,
            ):
                self._check(faulty_wrapped, faulty_materialised, read)
            clean = min(
                set(range(wrapped.num_pages)) - faulty_wrapped.corrupt_pages
            )
            self._check(
                faulty_wrapped, faulty_materialised,
                lambda hf: hf.read_page(clean),
            )


class TestAnalyzeRngSeedsSamplingOnly:
    def test_analysis_is_independent_of_earlier_analyses(self):
        fresh = StatisticsManager().analyze(
            _table(), "price", k=10, f=0.2, rng=42
        )
        table = _table()
        manager = StatisticsManager()
        manager.analyze(table, "qty", k=10, f=0.2, rng=1)
        manager.analyze(table, "price", k=10, f=0.2, rng=7)
        later = manager.analyze(table, "price", k=10, f=0.2, rng=42)
        np.testing.assert_array_equal(
            fresh.histogram.separators, later.histogram.separators
        )
        np.testing.assert_array_equal(fresh.sample, later.sample)
        assert fresh.pages_read == later.pages_read
        assert fresh.io == later.io

    def test_analyze_reads_through_the_stored_order(self):
        table = _table()
        StatisticsManager().analyze(table, "qty", k=10, f=0.2, rng=1)
        assert table._row_order is table.row_order()
