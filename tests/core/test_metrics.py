"""Tests for metrics and storage accounting."""

import pytest

from repro.core.metrics import BREAKDOWN_CATEGORIES, Metrics, StorageAccountant


class TestStorageAccountant:
    def test_empty_efficiency_is_one(self):
        assert StorageAccountant().efficiency() == 1.0

    def test_replication_efficiency(self):
        acc = StorageAccountant(original=100, replica=100)
        assert acc.efficiency() == 0.5

    def test_erasure_efficiency(self):
        acc = StorageAccountant(original=300, parity=100)
        assert acc.efficiency() == 0.75

    def test_would_be_efficiency(self):
        acc = StorageAccountant(original=100)
        assert acc.would_be_efficiency(d_replica=100) == 0.5
        assert acc.efficiency() == 1.0  # unchanged

    def test_would_be_with_original_delta(self):
        acc = StorageAccountant(original=100, replica=50)
        assert acc.would_be_efficiency(d_original=50) == pytest.approx(150 / 200)

    def test_would_be_efficiency_no_originals(self):
        # an empty accountant projecting zero deltas stays at the 1.0 convention
        assert StorageAccountant().would_be_efficiency() == 1.0
        # redundancy with no originals: efficiency collapses to 0
        assert StorageAccountant().would_be_efficiency(d_replica=100) == 0.0

    def test_register_gauges(self):
        from repro.obs.registry import MetricsRegistry

        acc = StorageAccountant(original=100, replica=50)
        reg = MetricsRegistry()
        acc.register_gauges(reg)
        snap = reg.snapshot()
        assert snap["storage.original_bytes"] == 100
        assert snap["storage.replica_bytes"] == 50
        assert snap["storage.efficiency"] == pytest.approx(100 / 150)
        # gauges are live, not snapshots at registration time
        acc.parity = 50
        assert reg.snapshot()["storage.parity_bytes"] == 50


class TestMetrics:
    def test_breakdown_categories_initialized(self):
        m = Metrics()
        assert set(m.breakdown) == set(BREAKDOWN_CATEGORIES)

    def test_add_time(self):
        m = Metrics()
        m.add_time("encode", 1.5)
        m.add_time("encode", 0.5)
        assert m.breakdown["encode"] == 2.0

    def test_unknown_category_rejected(self):
        with pytest.raises(KeyError):
            Metrics().add_time("quantum", 1.0)

    def test_counters(self):
        m = Metrics()
        m.count("x")
        m.count("x", 2)
        assert m.counters["x"] == 3

    def test_record_put_get(self):
        m = Metrics()
        m.record_put(0.1)
        m.record_put(0.3)
        m.record_get(0.05)
        assert m.put_stat.n == 2
        assert m.put_stat.mean == pytest.approx(0.2)
        assert m.get_stat.n == 1

    def test_recording_requests_retains_no_samples(self):
        """A long-running server's metrics must not grow per request."""
        import tracemalloc

        m = Metrics()
        m.record_put(1e-3)  # first-use allocations happen before the window
        m.record_get(1e-3)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for i in range(1, 10_000):
                m.record_put(1e-3 + i * 1e-7)
                m.record_get(2e-3 + i * 1e-7)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert m.put_stat.n == m.get_stat.n == 10_000
        assert m.put_hist.n == m.get_hist.n == 10_000
        assert after - before < 64 * 1024

    def test_write_efficiency(self):
        m = Metrics()
        m.record_put(0.1)
        m.storage.original = 100
        m.storage.replica = 100
        assert m.write_efficiency() == pytest.approx(0.1 / 0.5)

    def test_snapshot_structure(self):
        m = Metrics()
        m.record_put(0.1)
        m.count("encodes")
        snap = m.snapshot()
        assert snap["put_n"] == 1
        assert "breakdown" in snap and "counters" in snap
        assert snap["counters"]["encodes"] == 1

    def test_extra_categories(self):
        m = Metrics()
        m.register_category("recovery_sweep")
        m.register_category("recovery_burst")
        m.add_time("recovery_sweep", 2.0)
        assert m.breakdown["recovery_sweep"] == 2.0
        # base categories come first, extras append — dict shape is stable
        assert list(m.breakdown)[: len(BREAKDOWN_CATEGORIES)] == list(BREAKDOWN_CATEGORIES)

    def test_register_category_idempotent(self):
        m = Metrics()
        with pytest.raises(KeyError):
            m.add_time("recovery_rebalance", 1.0)
        m.register_category("recovery_rebalance")
        m.add_time("recovery_rebalance", 1.0)
        m.register_category("recovery_rebalance")  # re-register keeps the tally
        assert m.breakdown["recovery_rebalance"] == 1.0

    def test_default_breakdown_shape_unchanged(self):
        # golden benchmark JSONs depend on exactly these keys by default
        assert tuple(Metrics().breakdown) == BREAKDOWN_CATEGORIES

    def test_snapshot_percentile_keys(self):
        m = Metrics()
        for i in range(100):
            m.record_put(0.01 * (i + 1))
        snap = m.snapshot()
        pct = snap["put_percentiles_s"]
        assert set(pct) == {"p50", "p95", "p99", "max"}
        assert pct["max"] == pytest.approx(1.0)
        assert pct["p50"] <= pct["p95"] <= pct["p99"] <= pct["max"]
        # no gets recorded: percentile dict is present but empty-safe
        gpct = snap["get_percentiles_s"]
        assert gpct["max"] == 0.0

    def test_empty_snapshot(self):
        snap = Metrics().snapshot()
        assert snap["put_n"] == 0
        assert snap["storage_efficiency"] == 1.0
        assert snap["counters"] == {}

    def test_counters_creation_order(self):
        m = Metrics()
        for name in ("zeta", "alpha", "mid"):
            m.count(name)
        m.count("zeta")
        assert list(m.counters) == ["zeta", "alpha", "mid"]
        assert dict(m.counters) == {"zeta": 2, "alpha": 1, "mid": 1}

    def test_shared_registry(self):
        m = Metrics()
        reg = m.registry
        m.count("encodes", 3)
        assert reg.counter("encodes").value == 3
        assert reg.histogram("put_response_s") is m.put_hist
