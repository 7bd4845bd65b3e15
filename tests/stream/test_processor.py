"""Unit tests for the event-driven continuous tensor model (Algorithm 1)."""

from __future__ import annotations

import math

import pytest

from repro.exceptions import ConfigurationError
from repro.stream.events import EventKind, StreamRecord
from repro.stream.processor import ContinuousStreamProcessor
from repro.stream.stream import MultiAspectStream
from repro.stream.window import WindowConfig
from repro.tensor.sparse import SparseTensor


def oracle_window(
    stream: MultiAspectStream, config: WindowConfig, time: float
) -> SparseTensor:
    """Brute-force construction of D(time, W) straight from Definition 4."""
    tensor = SparseTensor(config.shape)
    for record in stream:
        if record.time > time:
            continue
        elapsed = time - record.time
        offset = int(math.floor(elapsed / config.period + 1e-9))
        if offset >= config.window_length:
            continue
        unit = config.window_length - 1 - offset
        tensor.add((*record.indices, unit), record.value)
    return tensor


class TestBootstrap:
    def test_initial_window_matches_oracle(self, tiny_stream):
        config = WindowConfig(mode_sizes=(3, 2), window_length=3, period=10.0)
        start = 25.0
        processor = ContinuousStreamProcessor(tiny_stream, config, start_time=start)
        expected = oracle_window(tiny_stream, config, start)
        assert processor.window.tensor.allclose(expected)

    def test_default_start_time_covers_one_window_span(self, tiny_stream):
        config = WindowConfig(mode_sizes=(3, 2), window_length=3, period=10.0)
        processor = ContinuousStreamProcessor(tiny_stream, config)
        assert processor.start_time == tiny_stream.start_time + config.span

    def test_records_after_start_are_pending(self, tiny_stream):
        config = WindowConfig(mode_sizes=(3, 2), window_length=3, period=10.0)
        processor = ContinuousStreamProcessor(tiny_stream, config, start_time=12.0)
        assert processor.n_pending_records == 2  # records at t=21 and t=33

    def test_empty_stream_rejected(self):
        config = WindowConfig(mode_sizes=(2,), window_length=2, period=1.0)
        with pytest.raises(ConfigurationError):
            ContinuousStreamProcessor(MultiAspectStream([]), config)

    def test_mode_size_mismatch_rejected(self, tiny_stream):
        config = WindowConfig(mode_sizes=(4, 4), window_length=3, period=10.0)
        with pytest.raises(ConfigurationError):
            ContinuousStreamProcessor(tiny_stream, config)


class TestEventReplay:
    def test_each_record_causes_w_plus_one_events(self, tiny_stream):
        config = WindowConfig(mode_sizes=(3, 2), window_length=3, period=10.0)
        processor = ContinuousStreamProcessor(
            tiny_stream, config, start_time=-1.0
        )  # nothing in the initial window
        events = list(processor.events())
        assert len(events) == len(tiny_stream) * (config.window_length + 1)
        arrivals = [e for e, _ in events if e.kind is EventKind.ARRIVAL]
        expiries = [e for e, _ in events if e.kind is EventKind.EXPIRY]
        assert len(arrivals) == len(tiny_stream)
        assert len(expiries) == len(tiny_stream)

    def test_events_are_chronological(self, small_processor):
        previous = -math.inf
        for event, _ in small_processor.events(max_events=500):
            assert event.time >= previous
            previous = event.time

    def test_window_matches_oracle_throughout_replay(self, tiny_stream):
        config = WindowConfig(mode_sizes=(3, 2), window_length=3, period=10.0)
        processor = ContinuousStreamProcessor(tiny_stream, config, start_time=10.0)
        # Several events can fire at the same instant (e.g. two records with
        # equal timestamps); the Definition-4 oracle only applies once every
        # event of that instant has been processed, so compare the snapshot of
        # the last event at each distinct timestamp.
        snapshots = [
            (event.time, processor.window.tensor.copy())
            for event, _ in processor.events()
        ]
        for position, (time, snapshot) in enumerate(snapshots):
            is_last_at_time = (
                position == len(snapshots) - 1 or snapshots[position + 1][0] > time
            )
            if not is_last_at_time:
                continue
            expected = oracle_window(tiny_stream, config, time)
            assert snapshot.allclose(expected), (
                f"window diverged from Definition 4 at event time {time}"
            )

    def test_window_empties_after_everything_expires(self, tiny_stream):
        config = WindowConfig(mode_sizes=(3, 2), window_length=3, period=10.0)
        processor = ContinuousStreamProcessor(tiny_stream, config, start_time=-1.0)
        processor.run()
        assert processor.window.nnz == 0

    def test_max_events_limits_emission(self, small_processor):
        events = list(small_processor.events(max_events=17))
        assert len(events) == 17

    def test_end_time_stops_and_resumes(self, tiny_stream):
        config = WindowConfig(mode_sizes=(3, 2), window_length=3, period=10.0)
        processor = ContinuousStreamProcessor(tiny_stream, config, start_time=10.0)
        first = list(processor.events(end_time=25.0))
        assert all(event.time <= 25.0 for event, _ in first)
        rest = list(processor.events())
        assert all(event.time > 25.0 - 1e-9 for event, _ in rest)
        # Together they process every scheduled event exactly once.
        final_expected = oracle_window(tiny_stream, config, rest[-1][0].time)
        assert processor.window.tensor.allclose(final_expected)

    def test_run_returns_event_count(self, tiny_stream):
        config = WindowConfig(mode_sizes=(3, 2), window_length=2, period=10.0)
        processor = ContinuousStreamProcessor(tiny_stream, config, start_time=-1.0)
        assert processor.run() == len(tiny_stream) * 3

    def test_delta_matches_window_change(self, small_stream, small_window_config):
        """Applying the yielded delta to the previous window state gives the new state."""
        processor = ContinuousStreamProcessor(small_stream, small_window_config)
        previous = processor.window.tensor.copy()
        for event, delta in processor.events(max_events=200):
            for coordinate, value in delta.entries:
                previous.add(coordinate, value)
            assert previous.allclose(processor.window.tensor)
