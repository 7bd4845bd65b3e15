"""The reference event drain both stream engines are checked and timed against.

This is the per-event loop :meth:`ContinuousStreamProcessor.events` ran
before both engines drained the scheduler through one method: Algorithm 1's
event order written out one event at a time, through the scheduler's public
calls (:meth:`EventScheduler.schedule` and :meth:`EventScheduler.pop`),
:meth:`Delta.from_event` and :meth:`TensorWindow.apply_delta`.  It shares no
drain code with the engines, so it is the oracle of
``tests/stream/test_batched_equivalence.py`` and the denominator of the
engine-replay bar in ``benchmarks/bench_update_micro.py``.

Run it on a freshly built processor (or one restored from a checkpoint):
it drives the processor's own window, scheduler, pending records and event
counter, exactly as the old ``events()`` did.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.stream.deltas import Delta
from repro.stream.events import EventKind, WindowEvent
from repro.stream.processor import ContinuousStreamProcessor


def reference_events(
    processor: ContinuousStreamProcessor,
    end_time: float | None = None,
    max_events: int | None = None,
) -> Iterator[tuple[WindowEvent, Delta]]:
    """Yield ``(event, delta)`` pairs, applying each delta before yielding it."""
    window_length = processor.config.window_length
    period = processor.config.period
    kind_by_step = tuple(
        WindowEvent.kind_for_step(step, window_length)
        for step in range(window_length + 1)
    )
    emitted = 0
    while True:
        if max_events is not None and emitted >= max_events:
            return
        next_arrival_time = (
            processor._future_records[-1].time
            if processor._future_records
            else None
        )
        next_scheduled_time = processor._scheduler.peek_time()
        if next_arrival_time is None and next_scheduled_time is None:
            return
        # Scheduled (shift/expiry) events win ties against new arrivals so
        # old mass has moved before a simultaneous new arrival is applied.
        take_scheduled = next_arrival_time is None or (
            next_scheduled_time is not None
            and next_scheduled_time <= next_arrival_time
        )
        next_time = next_scheduled_time if take_scheduled else next_arrival_time
        if end_time is not None and next_time > end_time:
            # Stop *before* touching any state: popping first and undoing
            # the pop would consume a sequence number (arrivals are
            # scheduled-then-popped), making a paused-and-resumed run
            # number simultaneous events differently from an
            # uninterrupted one.  Leaving the event in place keeps
            # resuming with a later end_time exactly equivalent.
            return
        if take_scheduled:
            event = processor._scheduler.pop()
        else:
            record = processor._future_records.pop()
            event = processor._scheduler.schedule(
                record.time, EventKind.ARRIVAL, record, step=0
            )
            processor._scheduler.pop()  # immediately consume the arrival we queued
        delta = Delta.from_event(event, window_length)
        processor._window.apply_delta(delta)
        next_step = event.step + 1
        if next_step <= window_length:
            processor._scheduler.schedule(
                event.record.time + next_step * period,
                kind_by_step[next_step],
                event.record,
                next_step,
            )
        emitted += 1
        processor._n_events_emitted += 1
        yield event, delta


def reference_run(
    processor: ContinuousStreamProcessor,
    end_time: float | None = None,
    max_events: int | None = None,
) -> int:
    """Apply events through :func:`reference_events`; return how many."""
    count = 0
    for _ in reference_events(processor, end_time=end_time, max_events=max_events):
        count += 1
    return count
