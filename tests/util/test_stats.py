"""Tests for streaming statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.util.stats import RunningStat, TimeSeries, percentile


class TestRunningStat:
    def test_empty(self):
        s = RunningStat()
        assert s.n == 0
        assert s.mean == 0.0
        assert s.variance == 0.0

    def test_single_value(self):
        s = RunningStat()
        s.add(5.0)
        assert s.mean == 5.0
        assert s.variance == 0.0
        assert s.min == 5.0 and s.max == 5.0

    def test_matches_numpy(self):
        data = [1.5, 2.7, -3.1, 4.0, 0.0, 9.9]
        s = RunningStat()
        s.extend(data)
        assert math.isclose(s.mean, np.mean(data))
        assert math.isclose(s.variance, np.var(data, ddof=1))
        assert s.min == min(data) and s.max == max(data)
        assert math.isclose(s.total, sum(data))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=100))
    def test_welford_matches_numpy_property(self, data):
        s = RunningStat()
        s.extend(data)
        assert math.isclose(s.mean, float(np.mean(data)), rel_tol=1e-9, abs_tol=1e-6)
        assert math.isclose(
            s.variance, float(np.var(data, ddof=1)), rel_tol=1e-6, abs_tol=1e-4
        )

    @given(
        st.lists(st.floats(-1e5, 1e5), min_size=1, max_size=50),
        st.lists(st.floats(-1e5, 1e5), min_size=1, max_size=50),
    )
    def test_merge_equals_sequential(self, a, b):
        sa, sb, sc = RunningStat(), RunningStat(), RunningStat()
        sa.extend(a)
        sb.extend(b)
        sc.extend(a + b)
        merged = sa.merge(sb)
        assert merged.n == sc.n
        assert math.isclose(merged.mean, sc.mean, rel_tol=1e-9, abs_tol=1e-6)
        assert math.isclose(merged._m2, sc._m2, rel_tol=1e-6, abs_tol=1e-3)

    def test_merge_with_empty(self):
        s = RunningStat()
        s.extend([1, 2, 3])
        merged = s.merge(RunningStat())
        assert merged.n == 3 and math.isclose(merged.mean, 2.0)


class TestTimeSeries:
    def test_add_and_arrays(self):
        ts = TimeSeries("x")
        ts.add(0.0, 1.0)
        ts.add(1.0, 3.0)
        t, v = ts.as_arrays()
        assert list(t) == [0.0, 1.0] and list(v) == [1.0, 3.0]
        assert len(ts) == 2
        assert ts.mean() == 2.0

    def test_bucket_mean(self):
        ts = TimeSeries()
        for t, v in [(0.1, 1), (0.2, 3), (1.5, 10), (2.5, 7)]:
            ts.add(t, v)
        means = ts.bucket_mean([0, 1, 2, 3])
        assert means[0] == 2.0
        assert means[1] == 10.0
        assert means[2] == 7.0

    def test_bucket_mean_empty_bucket_is_nan(self):
        ts = TimeSeries()
        ts.add(0.5, 1.0)
        means = ts.bucket_mean([0, 1, 2])
        assert means[0] == 1.0
        assert np.isnan(means[1])

    def test_bucket_mean_empty_series(self):
        means = TimeSeries().bucket_mean([0, 1, 2])
        assert np.isnan(means).all()

    def test_bucket_mean_sample_on_final_edge_kept(self):
        # Regression: a sample landing exactly on the last edge used to be
        # silently dropped; it belongs to the (closed) final bucket.
        ts = TimeSeries()
        ts.add(1.5, 4.0)
        ts.add(2.0, 8.0)  # exactly on the final edge
        means = ts.bucket_mean([0, 1, 2])
        assert np.isnan(means[0])
        assert means[1] == 6.0

    def test_bucket_mean_interior_edges_half_open(self):
        # Only the *final* edge is closed; an interior edge sample still
        # belongs to the bucket it opens.
        ts = TimeSeries()
        ts.add(1.0, 5.0)
        means = ts.bucket_mean([0, 1, 2])
        assert np.isnan(means[0])
        assert means[1] == 5.0

    def test_bucket_mean_beyond_range_still_dropped(self):
        ts = TimeSeries()
        ts.add(2.5, 99.0)
        ts.add(-1.0, 99.0)
        means = ts.bucket_mean([0, 1, 2])
        assert np.isnan(means).all()


class TestPercentileAndSummarize:
    def test_percentile_empty(self):
        assert percentile([], 95) == 0.0

    def test_percentile_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3
