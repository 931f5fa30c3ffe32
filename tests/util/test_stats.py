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

    def test_single_value(self):
        s = RunningStat()
        s.add(5.0)
        assert s.mean == 5.0

    def test_matches_numpy(self):
        data = [1.5, 2.7, -3.1, 4.0, 0.0, 9.9]
        s = RunningStat()
        for x in data:
            s.add(x)
        assert math.isclose(s.mean, np.mean(data))
        assert math.isclose(s.total, sum(data))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=100))
    def test_welford_matches_numpy_property(self, data):
        s = RunningStat()
        for x in data:
            s.add(x)
        assert math.isclose(s.mean, float(np.mean(data)), rel_tol=1e-9, abs_tol=1e-6)


class TestTimeSeries:
    def test_add_and_arrays(self):
        ts = TimeSeries("x")
        ts.add(0.0, 1.0)
        ts.add(1.0, 3.0)
        assert ts.times == [0.0, 1.0] and ts.values == [1.0, 3.0]
        assert len(ts) == 2


class TestPercentileAndSummarize:
    def test_percentile_empty(self):
        assert percentile([], 95) == 0.0

    def test_percentile_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3
