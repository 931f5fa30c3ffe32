"""Tests for the hot/cold classifier (recency, spatial, temporal lookahead)."""

import pytest

from repro.core.classifier import ClassifierConfig, HotColdClassifier
from repro.staging.domain import Domain


def make(domain_shape=(12,), block=(4,), **cfg):
    domain = Domain(domain_shape, block)
    return HotColdClassifier(domain, ClassifierConfig(**cfg)), domain


class TestConfigValidation:
    def test_bad_window(self):
        with pytest.raises(ValueError):
            ClassifierConfig(hot_window_steps=0)

    def test_bad_spatial(self):
        with pytest.raises(ValueError):
            ClassifierConfig(spatial_radius=-1)

    def test_bad_history(self):
        with pytest.raises(ValueError):
            ClassifierConfig(history_len=1)


class TestRecency:
    def test_never_written_is_cold(self):
        clf, _ = make()
        assert not clf.is_hot(("v", 0), 5)

    def test_recent_write_is_hot(self):
        clf, _ = make(hot_window_steps=3)
        clf.record_write(("v", 0), step=5)
        assert clf.recency_hot(("v", 0), 5)
        assert clf.recency_hot(("v", 0), 7)

    def test_old_write_expires(self):
        clf, _ = make(hot_window_steps=3, spatial_radius=0, temporal_lookahead=False)
        clf.record_write(("v", 0), step=0)
        assert not clf.is_hot(("v", 0), 5)

    def test_threshold_two(self):
        clf, _ = make(hot_window_steps=4, hot_threshold=2)
        clf.record_write(("v", 0), step=0)
        assert not clf.recency_hot(("v", 0), 1)
        clf.record_write(("v", 0), step=1)
        assert clf.recency_hot(("v", 0), 1)


class TestSpatialLocality:
    def test_neighbor_promoted(self):
        clf, _ = make(spatial_radius=1, spatial_ttl_steps=2)
        clf.record_write(("v", 1), step=3)
        assert clf.spatial_hot(("v", 0), 3)
        assert clf.spatial_hot(("v", 2), 3)
        assert clf.is_hot(("v", 2), 3)

    def test_non_neighbor_not_promoted(self):
        clf, _ = make(domain_shape=(20,), spatial_radius=1)
        clf.record_write(("v", 0), step=0)
        assert not clf.spatial_hot(("v", 3), 0)

    def test_ttl_expiry(self):
        clf, _ = make(spatial_radius=1, spatial_ttl_steps=1)
        clf.record_write(("v", 1), step=0)
        assert clf.spatial_hot(("v", 0), 1)
        assert not clf.spatial_hot(("v", 0), 2)

    def test_spatial_disabled(self):
        clf, _ = make(spatial_radius=0)
        clf.record_write(("v", 1), step=0)
        assert not clf.spatial_hot(("v", 0), 0)

    def test_different_variables_isolated(self):
        clf, _ = make(spatial_radius=1)
        clf.record_write(("a", 1), step=0)
        assert not clf.spatial_hot(("b", 0), 0)


class TestTemporalLookahead:
    def test_period_detection(self):
        clf, _ = make()
        for step in (0, 4, 8):
            clf.record_write(("v", 0), step=step)
        assert clf.detect_period(("v", 0)) == 4

    def test_period_requires_three_writes(self):
        clf, _ = make()
        clf.record_write(("v", 0), 0)
        clf.record_write(("v", 0), 4)
        assert clf.detect_period(("v", 0)) is None

    def test_irregular_intervals_no_period(self):
        clf, _ = make()
        for step in (0, 3, 8):
            clf.record_write(("v", 0), step=step)
        assert clf.detect_period(("v", 0)) is None

    def test_predicted_hot_before_next_write(self):
        clf, _ = make(hot_window_steps=1, spatial_radius=0)
        for step in (0, 4, 8):
            clf.record_write(("v", 0), step=step)
        # Next write predicted at 12; promoted one step before.
        assert clf.predicted_hot(("v", 0), 11)
        assert clf.predicted_hot(("v", 0), 12)
        assert not clf.predicted_hot(("v", 0), 9)
        assert not clf.predicted_hot(("v", 0), 13)

    def test_lookahead_disabled(self):
        clf, _ = make(temporal_lookahead=False)
        for step in (0, 4, 8):
            clf.record_write(("v", 0), step=step)
        assert not clf.predicted_hot(("v", 0), 12)

    def test_period_adapts_to_recent_tail(self):
        clf, _ = make()
        for step in (0, 10, 12, 14):
            clf.record_write(("v", 0), step=step)
        assert clf.detect_period(("v", 0)) == 2


class TestMissAccounting:
    def test_miss_ratio_empty(self):
        clf, _ = make()
        assert clf.miss_ratio() == 0.0

    def test_miss_ratio_counts_cold_writes(self):
        clf, _ = make()
        clf.record_write(("v", 0), 0, was_hot=True)
        clf.record_write(("v", 0), 1, was_hot=False)
        clf.record_write(("v", 0), 2, was_hot=False)
        assert clf.miss_ratio() == pytest.approx(2 / 3)

    def test_none_skips_accounting(self):
        clf, _ = make()
        clf.record_write(("v", 0), 0, was_hot=None)
        assert clf.writes_total == 0


class TestAdvance:
    def test_advance_garbage_collects(self):
        clf, _ = make(domain_shape=(40,), spatial_radius=1, spatial_ttl_steps=0)
        for b in range(10):
            clf.record_write(("v", b), step=0)
        clf.advance(100)
        assert all(v >= 100 for v in clf._spatial_hot_until.values()) or not clf._spatial_hot_until


from hypothesis import given, settings, strategies as st


class TestClassifierProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        steps=st.lists(st.integers(0, 30), min_size=1, max_size=10),
        query=st.integers(0, 32),
    )
    def test_recency_monotone_in_writes(self, steps, query):
        """Adding more writes can only make an entity hotter, never colder."""
        clf_few, _ = make(domain_shape=(12,), spatial_radius=0, temporal_lookahead=False)
        clf_many, _ = make(domain_shape=(12,), spatial_radius=0, temporal_lookahead=False)
        for s in sorted(steps)[:-1]:
            clf_few.record_write(("v", 0), s)
        for s in sorted(steps):
            clf_many.record_write(("v", 0), s)
        if clf_few.is_hot(("v", 0), query):
            assert clf_many.is_hot(("v", 0), query)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 50), min_size=3, max_size=8, unique=True))
    def test_period_detection_requires_regularity(self, steps):
        clf, _ = make()
        ordered = sorted(steps)
        for s in ordered:
            clf.record_write(("v", 0), s)
        period = clf.detect_period(("v", 0))
        if period is not None:
            gaps = [b - a for a, b in zip(ordered[:-1], ordered[1:])]
            assert gaps[-1] == gaps[-2] == period

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 100), st.integers(1, 10))
    def test_miss_ratio_bounds(self, n_hot, n_cold):
        clf, _ = make()
        for i in range(n_hot):
            clf.record_write(("v", 0), i, was_hot=True)
        for i in range(n_cold):
            clf.record_write(("v", 0), n_hot + i, was_hot=False)
        assert 0.0 <= clf.miss_ratio() <= 1.0
        assert clf.miss_ratio() == pytest.approx(n_cold / (n_hot + n_cold))
