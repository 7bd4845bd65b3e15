"""The processor's trusted bootstrap builds exactly the validated window.

``ContinuousStreamProcessor._bootstrap`` adds the initial window's records
through ``SparseTensor._add_trusted`` and schedules their next events with
``EventScheduler.push_raw``.  The reference here takes the validated path —
``TensorWindow.add_entry`` and ``EventScheduler.schedule`` per record, in
stream order — and everything observable must match exactly: the storage
order and values of ``items()``, the running squared norm, the version
counter, the inverted-index slices, the scheduler heap and the pending
records.
"""

from __future__ import annotations

import math

import pytest

from repro.data.generators import generate_synthetic_stream
from repro.stream.events import StreamRecord, WindowEvent
from repro.stream.processor import ContinuousStreamProcessor
from repro.stream.scheduler import EventScheduler
from repro.stream.stream import MultiAspectStream
from repro.stream.window import TensorWindow, WindowConfig


def reference_bootstrap(stream, config, start_time):
    """The initial window and scheduler built through the validated calls."""
    window = TensorWindow(config)
    scheduler = EventScheduler()
    pending = []
    length, period = config.window_length, config.period
    for record in stream:
        if record.time > start_time:
            pending.append(record)
            continue
        offset = int(math.floor((start_time - record.time) / period + 1e-9))
        if offset >= length:
            continue
        window.add_entry(record.indices, length - 1 - offset, record.value)
        step = offset + 1
        scheduler.schedule(
            record.time + step * period,
            WindowEvent.kind_for_step(step, length),
            record,
            step,
        )
    pending.reverse()
    return window, scheduler, pending


def assert_same_bootstrap(stream, config, start_time=None):
    processor = ContinuousStreamProcessor(stream, config, start_time=start_time)
    window, scheduler, pending = reference_bootstrap(
        stream, config, processor.start_time
    )
    built, expected = processor.window.tensor, window.tensor
    assert list(built.items()) == list(expected.items())
    assert built._squared_norm == expected._squared_norm
    assert built.version == expected.version
    for mode, length in enumerate(config.shape):
        for index in range(length):
            assert list(built.mode_slice(mode, index)) == list(
                expected.mode_slice(mode, index)
            )
    assert processor._scheduler.snapshot() == scheduler.snapshot()
    assert processor._future_records == pending
    return processor


@pytest.mark.parametrize("start_offset", [None, 0.0, 37.5, 1e9, -1e9])
def test_synthetic_stream(small_stream, small_window_config, start_offset):
    start_time = (
        None if start_offset is None else small_stream.start_time + start_offset
    )
    assert_same_bootstrap(small_stream, small_window_config, start_time)


def test_cancelling_and_expired_records():
    # Same coordinate and unit (t=31..34 all fall in unit 1 at t0=50):
    # +2.5 then -2.5 drops the entry, and the later +1.0 re-inserts it at
    # the end of the storage order.  The records at t=0 and t=20 have
    # expired before streaming starts (offsets 5 and exactly W=3).
    records = [
        StreamRecord((0, 1), 4.0, 0.0),
        StreamRecord((1, 1), 1.0, 20.0),
        StreamRecord((0, 0), 2.5, 31.0),
        StreamRecord((1, 0), 0.5, 31.5),
        StreamRecord((0, 0), -2.5, 32.0),
        StreamRecord((2, 1), 1e-8, 33.0),
        StreamRecord((0, 0), 1.0, 34.0),
        StreamRecord((2, 1), -3.0, 45.0),
        StreamRecord((1, 1), 2.0, 61.0),
    ]
    stream = MultiAspectStream(records, mode_sizes=(3, 2))
    config = WindowConfig(mode_sizes=(3, 2), window_length=3, period=10.0)
    processor = assert_same_bootstrap(stream, config, start_time=50.0)
    assert processor.n_pending_records == 1
    assert list(processor.window.tensor.items()) == [
        ((1, 0, 1), 0.5),
        ((2, 1, 1), 1e-8),
        ((0, 0, 1), 1.0),
        ((2, 1, 2), -3.0),
    ]


def test_larger_stream_with_four_modes():
    stream = generate_synthetic_stream(
        mode_sizes=(6, 5, 4),
        rank=3,
        n_records=1500,
        period=5.0,
        records_per_period=60.0,
        seed=3,
    )
    config = WindowConfig(mode_sizes=(6, 5, 4), window_length=6, period=5.0)
    assert_same_bootstrap(stream, config)
