"""Property-based equivalence suite for the batched event engine.

The batched engine (``ContinuousStreamProcessor.iter_batches`` /
``run_batched`` / ``ContinuousCPD.update_batch``) promises *exact*
equivalence with the per-event path:

* pure replay leaves the tensor window **bit-identical** to applying every
  delta one at a time (the grouped scatter-add reproduces the same float
  operations in the same order, including drop-tolerance snapping), and
* every SliceNStitch variant driven through ``update_batch`` produces
  bit-identical factor matrices to the per-event ``events()`` + ``update``
  loop: both engines run the same per-event update rule on the same window
  states.

These properties are checked on random seeded streams with float values and
irregular float timestamps, across batch windows from "simultaneous events
only" to several periods.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import SNSConfig
from repro.core.registry import ALGORITHMS, create_algorithm
from repro.stream.events import StreamRecord
from repro.stream.processor import ContinuousStreamProcessor
from repro.stream.stream import MultiAspectStream
from repro.stream.window import WindowConfig
from repro.tensor.sparse import SparseTensor

import pytest


@st.composite
def stream_and_config(draw):
    """A small random stream plus a compatible window configuration."""
    n_modes = draw(st.integers(min_value=1, max_value=2))
    mode_sizes = tuple(
        draw(st.integers(min_value=2, max_value=4)) for _ in range(n_modes)
    )
    window_length = draw(st.integers(min_value=1, max_value=4))
    period = float(draw(st.integers(min_value=1, max_value=4)))
    n_records = draw(st.integers(min_value=2, max_value=18))
    records = []
    time = 0.0
    for _ in range(n_records):
        # Mix exact collisions (increment 0) with irregular float gaps.
        time += draw(
            st.one_of(
                st.just(0.0),
                st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
            )
        )
        indices = tuple(
            draw(st.integers(min_value=0, max_value=size - 1)) for size in mode_sizes
        )
        value = draw(
            st.one_of(
                st.integers(min_value=-5, max_value=5).map(float),
                st.floats(
                    min_value=-10.0,
                    max_value=10.0,
                    allow_nan=False,
                    allow_infinity=False,
                ),
            )
        )
        records.append(StreamRecord(indices=indices, value=value, time=time))
    stream = MultiAspectStream(records, mode_sizes=mode_sizes)
    config = WindowConfig(
        mode_sizes=mode_sizes, window_length=window_length, period=period
    )
    start_time = float(draw(st.integers(min_value=0, max_value=int(time) + 2)))
    batch_window = draw(
        st.one_of(
            st.just(0.0),
            st.just(None),  # default: one period
            st.floats(min_value=0.0, max_value=3.0 * period, allow_nan=False),
        )
    )
    return stream, config, start_time, batch_window


def event_key(event):
    """All event fields (WindowEvent equality only compares time/sequence)."""
    return (event.time, event.sequence, event.kind, event.record, event.step)


def window_entries(processor):
    return dict(processor.window.tensor.items())


@given(stream_and_config())
@settings(max_examples=60, deadline=None)
def test_pure_replay_is_bit_identical(case):
    stream, config, start_time, batch_window = case
    sequential = ContinuousStreamProcessor(stream, config, start_time=start_time)
    sequential.run()
    batched = ContinuousStreamProcessor(stream, config, start_time=start_time)
    n_batched = batched.run_batched(batch_window=batch_window)
    assert n_batched == sequential.n_events_emitted
    assert batched.n_events_emitted == sequential.n_events_emitted
    assert window_entries(batched) == window_entries(sequential)
    assert batched.window.n_deltas_applied == sequential.window.n_deltas_applied
    assert not batched.has_pending_events


@given(stream_and_config())
@settings(max_examples=60, deadline=None)
def test_batched_event_stream_matches_per_event_stream(case):
    stream, config, start_time, batch_window = case
    sequential = ContinuousStreamProcessor(stream, config, start_time=start_time)
    expected = [event_key(event) for event, _ in sequential.events()]
    batched = ContinuousStreamProcessor(stream, config, start_time=start_time)
    observed = []
    for batch in batched.iter_batches(batch_window=batch_window):
        assert batch.n_events > 0
        assert batch.start_time <= batch.end_time
        observed.extend(event_key(event) for event in batch.events)
        batched.window.apply_batch(batch)
    assert observed == expected


@given(stream_and_config())
@settings(max_examples=40, deadline=None)
def test_batch_deltas_match_per_event_deltas(case):
    stream, config, start_time, batch_window = case
    sequential = ContinuousStreamProcessor(stream, config, start_time=start_time)
    expected = [delta.entries for _, delta in sequential.events()]
    batched = ContinuousStreamProcessor(stream, config, start_time=start_time)
    observed = []
    entry_total = 0
    for batch in batched.iter_batches(batch_window=batch_window):
        observed.extend(delta.entries for delta in batch.deltas)
        # The COO view carries exactly the per-delta entries, in event order.
        flattened = [
            ((*index_row, int(unit)), value)
            for index_row, unit, value in zip(
                batch.indices.tolist(), batch.units.tolist(), batch.values.tolist()
            )
        ]
        assert flattened == [
            (coordinate, value)
            for delta in batch.deltas
            for coordinate, value in delta.entries
        ]
        entry_total += batch.nnz
        batched.window.apply_batch(batch)
    assert observed == expected
    assert entry_total == sum(len(entries) for entries in expected)


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
@given(case=stream_and_config())
@settings(max_examples=15, deadline=None)
def test_models_reach_identical_factors(name, case):
    stream, config, start_time, batch_window = case
    rank = 2
    rng = np.random.default_rng(7)
    factors = [
        rng.standard_normal((size, rank)) * 0.1 for size in config.shape
    ]
    sns_config = SNSConfig(rank=rank, theta=3, eta=100.0, seed=11)

    sequential = ContinuousStreamProcessor(stream, config, start_time=start_time)
    model_sequential = create_algorithm(name, sns_config)
    model_sequential.initialize(sequential.window, factors)
    for _, delta in sequential.events():
        model_sequential.update(delta)

    batched = ContinuousStreamProcessor(stream, config, start_time=start_time)
    model_batched = create_algorithm(name, sns_config)
    model_batched.initialize(batched.window, factors)
    batched.run_batched(model=model_batched, batch_window=batch_window)

    assert window_entries(batched) == window_entries(sequential)
    assert model_batched.n_updates == model_sequential.n_updates
    for factor_sequential, factor_batched in zip(
        model_sequential.factors, model_batched.factors
    ):
        assert np.array_equal(factor_batched, factor_sequential, equal_nan=True)


@given(stream_and_config(), st.integers(min_value=1, max_value=10))
@settings(max_examples=40, deadline=None)
def test_run_batched_respects_max_events(case, max_events):
    stream, config, start_time, batch_window = case
    sequential = ContinuousStreamProcessor(stream, config, start_time=start_time)
    n_sequential = sequential.run(max_events=max_events)
    batched = ContinuousStreamProcessor(stream, config, start_time=start_time)
    n_batched = batched.run_batched(max_events=max_events, batch_window=batch_window)
    assert n_batched == n_sequential
    assert window_entries(batched) == window_entries(sequential)


@given(stream_and_config(), st.floats(min_value=0.0, max_value=30.0, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_run_batched_respects_end_time(case, horizon):
    stream, config, start_time, batch_window = case
    end_time = start_time + horizon
    sequential = ContinuousStreamProcessor(stream, config, start_time=start_time)
    n_sequential = sequential.run(end_time=end_time)
    batched = ContinuousStreamProcessor(stream, config, start_time=start_time)
    n_batched = batched.run_batched(end_time=end_time, batch_window=batch_window)
    assert n_batched == n_sequential
    assert window_entries(batched) == window_entries(sequential)
    # Both processors must also agree on what is still pending.
    assert batched.n_pending_records == sequential.n_pending_records
    assert batched.has_pending_events == sequential.has_pending_events


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=2),
            st.one_of(
                st.floats(
                    min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False
                ),
                # Adversarial near-drop-tolerance magnitudes.
                st.floats(
                    min_value=-1e-11, max_value=1e-11, allow_nan=False
                ),
            ),
        ),
        min_size=0,
        max_size=40,
    )
)
@settings(max_examples=80, deadline=None)
def test_add_batch_matches_sequential_adds(entries):
    shape = (3, 3)
    sequential = SparseTensor(shape)
    for i, j, value in entries:
        sequential.add((i, j), value)
    batched = SparseTensor(shape)
    batched.add_batch([(i, j) for i, j, _ in entries], [v for _, _, v in entries])
    assert dict(batched.items()) == dict(sequential.items())
    # The inverted indexes must agree too (degree drives the SNS update rules).
    for mode in range(2):
        for index in range(3):
            assert batched.degree(mode, index) == sequential.degree(mode, index)


def test_add_batch_validates_input():
    from repro.exceptions import IndexOutOfBoundsError, ShapeError

    tensor = SparseTensor((2, 2))
    with pytest.raises(ShapeError):
        tensor.add_batch([(0, 0, 0)], [1.0])
    with pytest.raises(ShapeError):
        tensor.add_batch([(0, 0)], [1.0, 2.0])
    with pytest.raises(IndexOutOfBoundsError):
        tensor.add_batch([(0, 5)], [1.0])
    with pytest.raises(IndexOutOfBoundsError):
        tensor.add_batch(np.array([[0, -1]]), np.array([1.0]))
    tensor.add_batch(np.array([[0, 1]]), np.array([2.5]))
    assert tensor.get((0, 1)) == 2.5


def test_apply_batch_validates_untrusted_batches():
    from repro.exceptions import IndexOutOfBoundsError
    from repro.stream.deltas import DeltaBatch
    from repro.stream.events import EventKind
    from repro.stream.window import TensorWindow

    window = TensorWindow(WindowConfig(mode_sizes=(2,), window_length=2, period=1.0))
    record = StreamRecord(indices=(0,), value=1.0, time=0.0)
    raw = [(0.0, 0, EventKind.ARRIVAL, record, 0)]
    # Engine batches are trusted; hand-built ones must be bounds-checked.
    bad = DeltaBatch(raw, [(0, 5)], [1.0], window_length=2)
    assert not bad.trusted
    with pytest.raises(IndexOutOfBoundsError):
        window.apply_batch(bad)
    good = DeltaBatch(raw, [(0, 1)], [1.0], window_length=2)
    window.apply_batch(good)
    assert window.tensor.get((0, 1)) == 1.0


@pytest.mark.parametrize(
    ("drain", "kwargs"),
    [
        ("iter_batches", {"batch_window": -1.0}),
        # NaN compares false against every event time, so it would drain
        # the whole schedule into one batch / mean "no end".
        ("iter_batches", {"batch_window": float("nan")}),
        ("iter_batches", {"end_time": float("nan")}),
        ("events", {"end_time": float("nan")}),
    ],
)
def test_drains_reject_invalid_arguments(drain, kwargs):
    from repro.exceptions import ConfigurationError

    records = [StreamRecord(indices=(0,), value=1.0, time=float(t)) for t in range(4)]
    stream = MultiAspectStream(records, mode_sizes=(2,))
    config = WindowConfig(mode_sizes=(2,), window_length=2, period=1.0)
    processor = ContinuousStreamProcessor(stream, config)
    with pytest.raises(ConfigurationError):
        next(getattr(processor, drain)(**kwargs))
    assert processor.n_events_emitted == 0
    assert processor.run() == 6  # the refused call consumed nothing
