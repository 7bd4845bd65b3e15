"""Property-based equivalence suite for the two stream engines.

Both engines are views of one drain
(``ContinuousStreamProcessor._drain_group``): ``iter_batches`` /
``run_batched`` / ``ContinuousCPD.update_batch`` take whole groups of
events, ``events`` / ``run`` take batches of one.  Both are checked here
against the reference loop in ``benchmarks/reference_drain.py`` — the
per-event loop written out through the scheduler's public calls, sharing no
drain code with either engine:

* both engines yield the reference's events (time, sequence, kind, record,
  step) and deltas, in order, and leave the same window, down to the
  storage order of ``items()`` when deltas are applied one event at a time;
* pure batched replay leaves the tensor window **bit-identical**, down to
  the storage order, the bucket order and the squared norm (the batched
  add replays the per-event adds, drop-tolerance snapping included), and
* every SliceNStitch variant reaches bit-identical factor matrices through
  the reference + ``update``, ``events()`` + ``update`` and
  ``run_batched(model)``: all three run the same per-event update rule on
  the same window states.

These properties are checked on random seeded streams with float values and
irregular float timestamps, across batch windows from "simultaneous events
only" to several periods.
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.reference_drain import reference_events, reference_run
from repro.als.als import decompose
from repro.core.base import SNSConfig
from repro.core.registry import ALGORITHMS, create_algorithm
from repro.data.generators import generate_dataset
from repro.stream.deltas import Delta
from repro.stream.events import StreamRecord
from repro.stream.processor import ContinuousStreamProcessor
from repro.stream.stream import MultiAspectStream
from repro.stream.window import WindowConfig

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


def storage(tensor):
    """What the storage order drives: entries, buckets and the squared norm.

    Every MTTKRP, fitness and checkpoint reads the entries in ``items()``
    order and the slices in bucket order, so equal values stored in another
    order are not the same window.
    """
    buckets = [
        list(tensor.mode_slice(mode, index))
        for mode, size in enumerate(tensor.shape)
        for index in range(size)
    ]
    return list(tensor.items()), buckets, tensor._squared_norm


def reference(case, **limits):
    """A fresh processor drained by the reference loop, and its events."""
    stream, config, start_time, _ = case
    processor = ContinuousStreamProcessor(stream, config, start_time=start_time)
    pairs = list(reference_events(processor, **limits))
    return processor, [event_key(event) for event, _ in pairs], [
        delta for _, delta in pairs
    ]


@given(stream_and_config())
@settings(max_examples=60, deadline=None)
def test_pure_replay_is_bit_identical(case):
    stream, config, start_time, batch_window = case
    expected, _, _ = reference(case)
    batched = ContinuousStreamProcessor(stream, config, start_time=start_time)
    n_batched = batched.run_batched(batch_window=batch_window)
    assert n_batched == expected.n_events_emitted
    assert batched.n_events_emitted == expected.n_events_emitted
    assert storage(batched.window.tensor) == storage(expected.window.tensor)
    assert batched.window.n_deltas_applied == expected.window.n_deltas_applied
    assert not batched.has_pending_events


def test_pure_replay_keeps_the_storage_order_on_nyc_taxi():
    """A coordinate that snaps to zero and comes back within one batch
    moves to the end, as it does under per-event adds.  Hypothesis does not
    find this case; updating it in place gave equal values in another
    order, and ALS on the window then gave other factor bits."""
    stream, spec = generate_dataset("nyc_taxi", 0.3)
    config = WindowConfig(
        mode_sizes=spec.mode_sizes,
        window_length=spec.window_length,
        period=spec.period,
    )
    per_event = ContinuousStreamProcessor(stream, config)
    per_event.run(max_events=3000)
    batched = ContinuousStreamProcessor(stream, config)
    batched.run_batched(max_events=3000, batch_window=0.0)
    assert storage(batched.window.tensor) == storage(per_event.window.tensor)
    fits = [
        decompose(processor.window.tensor, rank=20, n_iterations=5, seed=0)
        for processor in (per_event, batched)
    ]
    for expected, factor in zip(
        fits[0].decomposition.factors, fits[1].decomposition.factors
    ):
        assert np.array_equal(factor, expected)


@given(stream_and_config())
@settings(max_examples=60, deadline=None)
def test_both_engines_match_the_reference_event_stream(case):
    stream, config, start_time, batch_window = case
    expected, expected_keys, expected_deltas = reference(case)
    expected_items = list(expected.window.tensor.items())

    per_event = ContinuousStreamProcessor(stream, config, start_time=start_time)
    pairs = list(per_event.events())
    assert [event_key(event) for event, _ in pairs] == expected_keys
    assert [delta for _, delta in pairs] == expected_deltas
    assert list(per_event.window.tensor.items()) == expected_items
    assert per_event.n_events_emitted == expected.n_events_emitted
    assert per_event.window.n_deltas_applied == expected.window.n_deltas_applied

    batched = ContinuousStreamProcessor(stream, config, start_time=start_time)
    keys = []
    deltas = []
    for batch in batched.iter_batches(batch_window=batch_window):
        assert batch.n_events > 0
        assert batch.start_time <= batch.end_time
        groups = zip(batch.events, batch.entry_groups(), strict=True)
        for event, (record, step, entries) in groups:
            keys.append(event_key(event))
            deltas.append(Delta(entries, record, step, event.kind))
            # One event at a time, as update_batch applies a batch.
            batched.window.apply_entry_changes(entries)
    assert keys == expected_keys
    assert deltas == expected_deltas
    assert list(batched.window.tensor.items()) == expected_items
    assert batched.n_events_emitted == expected.n_events_emitted


@given(stream_and_config(), st.integers(min_value=0, max_value=12))
@settings(max_examples=60, deadline=None)
def test_closing_events_midway_loses_no_event(case, n_first):
    """events() drains one event per step, so closing it mid-tie drops none."""
    stream, config, start_time, _ = case
    expected, expected_keys, _ = reference(case)
    processor = ContinuousStreamProcessor(stream, config, start_time=start_time)
    iterator = processor.events()
    keys = [event_key(event) for event, _ in itertools.islice(iterator, n_first)]
    iterator.close()
    assert processor.n_events_emitted == len(keys)
    keys.extend(event_key(event) for event, _ in processor.events())
    assert keys == expected_keys
    assert list(processor.window.tensor.items()) == list(
        expected.window.tensor.items()
    )


@given(stream_and_config())
@settings(max_examples=40, deadline=None)
def test_batch_deltas_match_per_event_deltas(case):
    stream, config, start_time, batch_window = case
    _, _, expected_deltas = reference(case)
    expected = [delta.entries for delta in expected_deltas]
    batched = ContinuousStreamProcessor(stream, config, start_time=start_time)
    observed = []
    entry_total = 0
    for batch in batched.iter_batches(batch_window=batch_window):
        groups = [entries for _, _, entries in batch.entry_groups()]
        # Each event's entries are those of its Definition 6 delta...
        assert groups == [
            Delta.from_event(event, config.window_length).entries
            for event in batch.events
        ]
        # ...and the batch's flat entry lists carry exactly them, in order.
        assert list(zip(batch.coordinates, batch.raw_values)) == [
            entry for entries in groups for entry in entries
        ]
        observed.extend(groups)
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

    def fresh():
        processor = ContinuousStreamProcessor(stream, config, start_time=start_time)
        model = create_algorithm(name, sns_config)
        model.initialize(processor.window, factors)
        return processor, model

    expected, model_expected = fresh()
    for _, delta in reference_events(expected):
        model_expected.update(delta)

    per_event, model_per_event = fresh()
    for _, delta in per_event.events():
        model_per_event.update(delta)

    batched, model_batched = fresh()
    batched.run_batched(model=model_batched, batch_window=batch_window)

    for processor, model in ((per_event, model_per_event), (batched, model_batched)):
        assert window_entries(processor) == window_entries(expected)
        assert model.n_updates == model_expected.n_updates
        for factor_expected, factor in zip(model_expected.factors, model.factors):
            assert np.array_equal(factor, factor_expected, equal_nan=True)


@given(stream_and_config(), st.integers(min_value=1, max_value=10))
@settings(max_examples=40, deadline=None)
def test_run_batched_respects_max_events(case, max_events):
    stream, config, start_time, batch_window = case
    expected, _, _ = reference(case, max_events=max_events)
    per_event = ContinuousStreamProcessor(stream, config, start_time=start_time)
    assert per_event.run(max_events=max_events) == expected.n_events_emitted
    batched = ContinuousStreamProcessor(stream, config, start_time=start_time)
    n_batched = batched.run_batched(max_events=max_events, batch_window=batch_window)
    assert n_batched == expected.n_events_emitted
    assert window_entries(per_event) == window_entries(expected)
    assert window_entries(batched) == window_entries(expected)


@given(stream_and_config(), st.integers(min_value=1, max_value=30))
@settings(max_examples=60, deadline=None)
def test_whole_batches_stop_at_the_last_batch_end(case, max_events):
    """``whole_batches`` stops before the batch that ``max_events`` would cut.

    That batch stays scheduled, so draining on yields the uncapped drain's
    batches, sequence numbers included, and the same window.
    """
    stream, config, start_time, batch_window = case

    def drain(processor, **limits):
        keys = []
        for batch in processor.iter_batches(batch_window=batch_window, **limits):
            processor.window.apply_batch(batch)
            keys.append([event_key(event) for event in batch.events])
        return keys

    uncapped = ContinuousStreamProcessor(stream, config, start_time=start_time)
    expected = drain(uncapped)
    processor = ContinuousStreamProcessor(stream, config, start_time=start_time)
    first = drain(processor, max_events=max_events, whole_batches=True)
    n_first = sum(map(len, first))
    assert first == expected[: len(first)]
    assert processor.n_events_emitted == n_first <= max_events
    if len(first) < len(expected):
        assert n_first + len(expected[len(first)]) > max_events
    assert first + drain(processor) == expected
    assert storage(processor.window.tensor) == storage(uncapped.window.tensor)


@given(stream_and_config(), st.floats(min_value=0.0, max_value=30.0, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_run_batched_respects_end_time(case, horizon):
    stream, config, start_time, batch_window = case
    end_time = start_time + horizon
    expected, _, _ = reference(case, end_time=end_time)
    per_event = ContinuousStreamProcessor(stream, config, start_time=start_time)
    assert per_event.run(end_time=end_time) == expected.n_events_emitted
    batched = ContinuousStreamProcessor(stream, config, start_time=start_time)
    n_batched = batched.run_batched(end_time=end_time, batch_window=batch_window)
    assert n_batched == expected.n_events_emitted
    for processor in (per_event, batched):
        assert window_entries(processor) == window_entries(expected)
        # Every processor must also agree on what is still pending.
        assert processor.n_pending_records == expected.n_pending_records
        assert processor.has_pending_events == expected.has_pending_events
        assert processor.next_event_time == expected.next_event_time


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
