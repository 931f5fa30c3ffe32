"""Tests for the structured event log."""

import pytest

from repro.util.eventlog import Event, EventLog


class TestEventLog:
    def test_emit_and_len(self):
        log = EventLog()
        log.emit(1.0, "put", source="s0", nbytes=10)
        log.emit(2.0, "get", source="s1")
        assert len(log) == 2

    def test_event_fields(self):
        log = EventLog()
        ev = log.emit(1.5, "encode", source="s3", stripe=7)
        assert ev.t == 1.5
        assert ev.kind == "encode"
        assert ev.source == "s3"
        assert ev.data == {"stripe": 7}

    def test_count(self):
        log = EventLog()
        log.emit(0, "a")
        log.emit(0, "a")
        assert log.count("a") == 2
        assert log.count("zzz") == 0

    def test_capacity_bound(self):
        log = EventLog(capacity=2)
        for i in range(5):
            log.emit(i, "x")
        assert len(log) == 2

    def test_ring_keeps_newest(self):
        """A bounded log is a ring buffer: oldest events drop first."""
        log = EventLog(capacity=3)
        for i in range(7):
            log.emit(float(i), "x", seq=i)
        assert [e.t for e in log] == [4.0, 5.0, 6.0]
        assert log.dropped == 4

    def test_dropped_counter_stays_zero_under_capacity(self):
        log = EventLog(capacity=10)
        for i in range(10):
            log.emit(i, "x")
        assert log.dropped == 0
        log.emit(10, "x")
        assert log.dropped == 1

    def test_unbounded_never_drops(self):
        log = EventLog()
        for i in range(1000):
            log.emit(i, "x")
        assert len(log) == 1000 and log.dropped == 0
        assert log.capacity is None

    def test_capacity_property_and_validation(self):
        assert EventLog(capacity=5).capacity == 5
        with pytest.raises(ValueError):
            EventLog(capacity=0)

    def test_clear(self):
        log = EventLog()
        log.emit(0, "x")
        log.clear()
        assert len(log) == 0

    def test_events_are_frozen(self):
        log = EventLog()
        ev = log.emit(0, "x")
        with pytest.raises(AttributeError):
            ev.kind = "y"
