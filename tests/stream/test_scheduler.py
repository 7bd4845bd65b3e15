"""Unit tests for :mod:`repro.stream.scheduler`."""

from __future__ import annotations

import pytest

from repro.stream.events import EventKind, StreamRecord
from repro.stream.scheduler import EventScheduler

RECORD = StreamRecord(indices=(0,), value=1.0, time=0.0)


class TestEventScheduler:
    def test_events_pop_in_time_order(self):
        scheduler = EventScheduler()
        scheduler.schedule(5.0, EventKind.SHIFT, RECORD, 1)
        scheduler.schedule(1.0, EventKind.ARRIVAL, RECORD, 0)
        scheduler.schedule(3.0, EventKind.SHIFT, RECORD, 1)
        times = [scheduler.pop().time for _ in range(len(scheduler))]
        assert times == [1.0, 3.0, 5.0]
        assert len(scheduler) == 0

    def test_ties_break_by_insertion_order(self):
        scheduler = EventScheduler()
        first = scheduler.schedule(2.0, EventKind.SHIFT, RECORD, 1)
        second = scheduler.schedule(2.0, EventKind.EXPIRY, RECORD, 2)
        # The heap stores raw tuples, so pop() materialises equal (not
        # identical) WindowEvent objects.
        assert scheduler.pop() == first
        assert scheduler.pop() == second

    def test_raw_roundtrip_matches_schedule(self):
        scheduler = EventScheduler()
        scheduler.push_raw(1.0, EventKind.ARRIVAL, RECORD, 0)
        event = scheduler.pop()
        assert event.time == 1.0
        assert event.sequence == 0
        assert event.kind is EventKind.ARRIVAL
        assert event.record is RECORD
        assert event.step == 0

    def test_begin_end_drain_roundtrip(self):
        scheduler = EventScheduler()
        scheduler.schedule(2.0, EventKind.SHIFT, RECORD, 1)
        heap, sequence = scheduler.begin_drain()
        assert heap[0] == (2.0, 0, EventKind.SHIFT, RECORD, 1)
        scheduler.end_drain(sequence + 3)
        assert scheduler.schedule(3.0, EventKind.EXPIRY, RECORD, 2).sequence == 4
        with pytest.raises(ValueError):
            scheduler.end_drain(0)  # counter may only advance

    def test_peek_time(self):
        scheduler = EventScheduler()
        assert scheduler.peek_time() is None
        scheduler.schedule(4.0, EventKind.ARRIVAL, RECORD, 0)
        assert scheduler.peek_time() == 4.0
        assert len(scheduler) == 1

    def test_sequence_numbers_increase(self):
        scheduler = EventScheduler()
        first = scheduler.schedule(1.0, EventKind.ARRIVAL, RECORD, 0)
        second = scheduler.schedule(1.0, EventKind.ARRIVAL, RECORD, 0)
        assert second.sequence > first.sequence
