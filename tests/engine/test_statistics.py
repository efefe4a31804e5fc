"""Tests for the StatisticsManager (ANALYZE) pipeline."""

import numpy as np
import pytest

from repro.engine import StatisticsManager, Table
from repro.exceptions import ParameterError, StatisticsNotFoundError
from repro.storage import HeapFile
from repro.storage.faults import RetryPolicy


@pytest.fixture
def orders_table():
    rng = np.random.default_rng(0)
    n = 20_000
    return Table(
        "orders",
        {
            "qty": np.arange(n),
            "price": np.repeat(np.arange(n // 10), 10)[rng.permutation(n)],
        },
    )


class TestAnalyze:
    def test_cvb_builds_statistics(self, orders_table):
        manager = StatisticsManager()
        stats = manager.analyze(orders_table, "qty", k=20, f=0.25, rng=1)
        assert stats.method == "cvb"
        assert stats.histogram.k == 20
        assert stats.n == 20_000
        assert 0 < stats.sampling_rate <= 1
        assert stats.pages_read > 0

    def test_fullscan_is_exact(self, orders_table):
        manager = StatisticsManager()
        stats = manager.analyze(
            orders_table, "qty", k=20, method="fullscan", rng=1
        )
        assert stats.sample_size == 20_000
        assert stats.distinct_estimate == 20_000
        assert stats.density == 0.0
        np.testing.assert_array_equal(
            stats.histogram.counts, np.full(20, 1000)
        )

    def test_record_method_uses_bounded_sample(self, orders_table):
        manager = StatisticsManager()
        stats = manager.analyze(
            orders_table,
            "qty",
            k=10,
            method="record",
            record_sample_size=2_000,
            rng=2,
        )
        assert stats.sample_size == 2_000
        # Record-level sampling pays one page read per tuple.
        assert stats.pages_read == 2_000

    def test_unknown_method_rejected(self, orders_table):
        with pytest.raises(ParameterError):
            StatisticsManager().analyze(orders_table, "qty", method="magic")

    def test_density_reflects_duplication(self, orders_table):
        manager = StatisticsManager()
        distinct = manager.analyze(
            orders_table, "qty", k=10, method="fullscan", rng=3
        )
        duplicated = manager.analyze(
            orders_table, "price", k=10, method="fullscan", rng=3
        )
        assert duplicated.density > distinct.density

    def test_statistics_stored_in_catalog(self, orders_table):
        manager = StatisticsManager()
        manager.analyze(orders_table, "qty", k=10, f=0.3, rng=4)
        fetched = manager.statistics("orders", "qty")
        assert fetched.column_name == "qty"
        with pytest.raises(StatisticsNotFoundError):
            manager.statistics("orders", "ghost")

    def test_custom_heapfile_reused(self, orders_table):
        manager = StatisticsManager()
        hf = orders_table.to_heapfile("qty", layout="random", rng=5,
                                      blocking_factor=40)
        stats = manager.analyze(orders_table, "qty", k=10, f=0.3,
                                heapfile=hf, rng=6)
        assert stats.pages_read <= hf.num_pages


class TestEmptyColumn:
    """Every method rejects an empty column with the typed error CVB uses."""

    @pytest.mark.parametrize("method", ["cvb", "record", "fullscan"])
    def test_empty_table_rejected(self, method):
        table = Table("t", {"x": np.zeros(0)})
        with pytest.raises(ParameterError, match="empty"):
            StatisticsManager().analyze(table, "x", method=method)

    @pytest.mark.parametrize("method", ["cvb", "record", "fullscan"])
    def test_empty_table_rejected_on_resilient_path(self, method):
        table = Table("t", {"x": np.zeros(0)})
        with pytest.raises(ParameterError, match="empty"):
            StatisticsManager().analyze(
                table, "x", method=method, retry=RetryPolicy()
            )


class TestPagesReadPerBuild:
    """pages_read counts this build's reads, not the file's lifetime."""

    @pytest.mark.parametrize("method", ["record", "fullscan"])
    def test_reused_heapfile_reports_per_build_reads(self, method):
        hf = HeapFile.from_values(np.arange(20_000), rng=0, blocking_factor=128)
        table = Table("t", {"x": np.arange(20_000)})
        manager = StatisticsManager()
        first = manager.analyze(
            table, "x", k=10, method=method, heapfile=hf, rng=1
        )
        second = manager.analyze(
            table, "x", k=10, method=method, heapfile=hf, rng=1
        )
        assert first.pages_read == second.pages_read
        assert first.pages_read == first.io["page_reads"]
        assert hf.iostats.page_reads == 2 * first.pages_read
        if method == "fullscan":
            assert first.pages_read == hf.num_pages


class TestConsumption:
    def test_estimate_range_reasonable(self, orders_table):
        manager = StatisticsManager()
        manager.analyze(orders_table, "qty", k=50, f=0.2, rng=7)
        est = manager.estimate_range("orders", "qty", 0, 9_999)
        assert est == pytest.approx(10_000, rel=0.15)

    def test_estimate_distinct(self, orders_table):
        manager = StatisticsManager()
        manager.analyze(orders_table, "price", k=20, f=0.25, rng=8)
        est = manager.estimate_distinct("orders", "price")
        # 2,000 true distinct values, each duplicated 10 times.
        assert 500 <= est <= 20_000

    def test_estimate_equality_uses_density(self, orders_table):
        manager = StatisticsManager()
        stats = manager.analyze(
            orders_table, "price", k=20, method="fullscan", rng=9
        )
        # Each price occurs exactly 10 times; density-based estimate should
        # land near 10.
        assert stats.estimate_equality(42) == pytest.approx(10, rel=0.3)

    def test_summary_mentions_method_and_rate(self, orders_table):
        manager = StatisticsManager()
        stats = manager.analyze(orders_table, "qty", k=10, f=0.3, rng=10)
        text = stats.summary()
        assert "orders.qty" in text
        assert "cvb" in text


class TestCompressedHistogramAccessor:
    def test_built_from_stored_sample(self, orders_table):
        manager = StatisticsManager()
        stats = manager.analyze(orders_table, "price", k=20, f=0.25, rng=30)
        compressed = stats.compressed_histogram()
        assert compressed.total == pytest.approx(stats.n, rel=0.05)

    def test_skewed_column_gets_singletons(self):
        import numpy as np

        from repro.workloads import make_dataset

        dataset = make_dataset("zipf4", 50_000, rng=31)
        table = Table("t", {"x": dataset.values})
        manager = StatisticsManager()
        stats = manager.analyze(table, "x", k=20, f=0.25, rng=32)
        compressed = stats.compressed_histogram()
        assert len(compressed.singletons) >= 1
        # The hot value's estimate is far better than plain interpolation
        # at coarse k would allow.
        distinct, counts = np.unique(dataset.values, return_counts=True)
        hot = float(distinct[counts.argmax()])
        truth = int(counts.max())
        est = compressed.estimate_equality(hot)
        assert est == pytest.approx(truth, rel=0.25)

    def test_missing_sample_rejected(self, orders_table):
        from repro.exceptions import ParameterError

        manager = StatisticsManager()
        stats = manager.analyze(orders_table, "qty", k=10, f=0.3, rng=33)
        stats.sample = None
        with pytest.raises(ParameterError):
            stats.compressed_histogram()



class TestAnalyzeAll:
    def test_every_column_analyzed(self, orders_table):
        manager = StatisticsManager()
        results = manager.analyze_all(orders_table, k=10, f=0.3, rng=40)
        assert set(results) == {"qty", "price"}
        for name, stats in results.items():
            assert stats.column_name == name
            assert stats.histogram.k == 10
        assert len(manager.catalog) == 2

    def test_columns_get_independent_streams(self, orders_table):
        manager = StatisticsManager()
        results = manager.analyze_all(orders_table, k=10, f=0.3, rng=41)
        # Different columns, different samples — not byte-identical runs.
        assert not np.array_equal(
            results["qty"].sample, results["price"].sample
        )

    def test_deterministic(self, orders_table):
        a = StatisticsManager().analyze_all(orders_table, k=10, f=0.3, rng=42)
        b = StatisticsManager().analyze_all(orders_table, k=10, f=0.3, rng=42)
        assert a["qty"].histogram == b["qty"].histogram


class TestQuantilePassthrough:
    def test_quantiles_from_sampled_statistics(self, orders_table):
        manager = StatisticsManager()
        stats = manager.analyze(orders_table, "qty", k=50, f=0.2, rng=50)
        # qty is 0..19999 uniform: quantiles are linear.
        for q in (0.1, 0.5, 0.9):
            assert stats.estimate_quantile(q) == pytest.approx(
                q * 20_000, rel=0.05
            )

    def test_quantile_survives_serialization(self, orders_table):
        from repro.engine.serialization import (
            statistics_from_json,
            statistics_to_json,
        )

        manager = StatisticsManager()
        stats = manager.analyze(orders_table, "qty", k=20, f=0.3, rng=51)
        reloaded = statistics_from_json(statistics_to_json(stats))
        assert reloaded.estimate_quantile(0.5) == pytest.approx(
            stats.estimate_quantile(0.5)
        )
