"""Behavioural tests shared by every SliceNStitch variant.

These parametrised tests check the invariants that all five algorithms must
keep while streaming: Gram matrices stay consistent with the factors, only
the rows named by the event are touched (for the row-wise variants), the
update counter advances, the tracked fitness stays close to what a batch
ALS re-fit of the same window achieves, and both engines reach the update
rule through the one per-event hook.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.als.als import decompose
from repro.core.base import ContinuousCPD, SNSConfig
from repro.core.registry import ALGORITHMS, create_algorithm
from repro.stream.processor import ContinuousStreamProcessor

ALL_ALGORITHMS = sorted(ALGORITHMS)
ROW_WISE_ALGORITHMS = ["sns_vec", "sns_rnd", "sns_vec_plus", "sns_rnd_plus"]


def make_model(name, processor, initial, rank=4, theta=5, eta=1000.0):
    model = create_algorithm(name, SNSConfig(rank=rank, theta=theta, eta=eta, seed=0))
    model.initialize(processor.window, initial)
    return model


@pytest.mark.parametrize("name", ALL_ALGORITHMS)
class TestCommonBehaviour:
    def test_update_counter_and_no_nan(
        self, name, small_stream, small_window_config, small_initial_factors
    ):
        processor = ContinuousStreamProcessor(small_stream, small_window_config)
        model = make_model(name, processor, small_initial_factors)
        for _, delta in processor.events(max_events=120):
            model.update(delta)
        assert model.n_updates == 120
        for factor in model.factors:
            assert np.isfinite(factor).all()

    def test_grams_match_factors_after_streaming(
        self, name, small_stream, small_window_config, small_initial_factors
    ):
        """The incrementally maintained A'A never drifts from the factors."""
        processor = ContinuousStreamProcessor(small_stream, small_window_config)
        model = make_model(name, processor, small_initial_factors)
        for _, delta in processor.events(max_events=150):
            model.update(delta)
        for factor, gram in zip(model.factors, model.grams):
            np.testing.assert_allclose(gram, factor.T @ factor, atol=1e-6, rtol=1e-6)

    def test_fitness_stays_comparable_to_batch_als(
        self, name, small_stream, small_window_config, small_initial_factors
    ):
        """After streaming, fitness is within a sane band of a fresh ALS re-fit."""
        processor = ContinuousStreamProcessor(small_stream, small_window_config)
        model = make_model(name, processor, small_initial_factors)
        for _, delta in processor.events(max_events=400):
            model.update(delta)
        reference = decompose(
            processor.window.tensor, rank=4, n_iterations=10, seed=1
        ).fitness
        assert np.isfinite(model.fitness())
        # The paper reports 72-100% relative fitness; leave slack for the tiny
        # window used in tests but fail on divergence or collapse.
        assert model.fitness() > 0.4 * reference

    def test_update_before_initialize_raises(self, name):
        from repro.exceptions import NotFittedError
        from repro.stream.deltas import Delta
        from repro.stream.events import EventKind, StreamRecord, WindowEvent

        model = create_algorithm(name, SNSConfig(rank=3))
        record = StreamRecord((0, 0), 1.0, 0.0)
        event = WindowEvent(0.0, 0, EventKind.ARRIVAL, record, 0)
        with pytest.raises(NotFittedError):
            model.update(Delta.from_event(event, 4))


def record_hook_calls(model):
    """Wrap ``model._update`` to log each call's event and window state."""
    calls = []
    hook = model._update

    def spy(entries, categorical_indices):
        calls.append(
            (
                tuple((tuple(map(int, c)), float(v)) for c, v in entries),
                tuple(categorical_indices),
                dict(model.window.tensor.items()),
            )
        )
        hook(entries, categorical_indices)

    model._update = spy
    return calls


@pytest.mark.parametrize("name", ALL_ALGORITHMS)
class TestSingleUpdatePath:
    """Both engines reach a variant's rule through one per-event hook."""

    def test_variant_defines_only_the_per_event_hook(self, name):
        cls = ALGORITHMS[name]
        assert cls.update is ContinuousCPD.update
        assert cls.update_batch is ContinuousCPD.update_batch
        assert not hasattr(cls, "_update_batch_exact")
        # Exactly one class between the variant and the base defines the rule.
        definers = [
            klass
            for klass in cls.__mro__[: cls.__mro__.index(ContinuousCPD)]
            if "_update" in vars(klass)
        ]
        assert len(definers) == 1

    def test_update_calls_the_hook_once_per_event(
        self, name, small_stream, small_window_config, small_initial_factors
    ):
        processor = ContinuousStreamProcessor(small_stream, small_window_config)
        model = make_model(name, processor, small_initial_factors, theta=3)
        calls = record_hook_calls(model)
        for n, (_, delta) in enumerate(processor.events(max_events=40), start=1):
            model.update(delta)
            assert len(calls) == n == model.n_updates
            entries, categorical_indices, _ = calls[-1]
            assert entries == tuple(
                (tuple(c), float(v)) for c, v in delta.entries
            )
            assert categorical_indices == delta.categorical_indices

    def test_update_batch_hook_sees_the_per_event_windows(
        self, name, small_stream, small_window_config, small_initial_factors
    ):
        """Every hook call of ``update_batch`` matches its per-event twin:
        same event, same window state (the batch applied up to that event)."""
        sequential = ContinuousStreamProcessor(small_stream, small_window_config)
        model_sequential = make_model(
            name, sequential, small_initial_factors, theta=3
        )
        expected = record_hook_calls(model_sequential)
        for _, delta in sequential.events(max_events=60):
            model_sequential.update(delta)

        batched = ContinuousStreamProcessor(small_stream, small_window_config)
        model_batched = make_model(name, batched, small_initial_factors, theta=3)
        observed = record_hook_calls(model_batched)
        batched.run_batched(model=model_batched, max_events=60, batch_window=25.0)

        assert len(observed) == len(expected) == model_batched.n_updates == 60
        assert observed == expected


@pytest.mark.parametrize("name", ROW_WISE_ALGORITHMS)
class TestRowLocality:
    def test_only_affected_rows_change(
        self, name, small_stream, small_window_config, small_initial_factors
    ):
        """A single event only rewrites the rows named by the delta (Fig. 3)."""
        processor = ContinuousStreamProcessor(small_stream, small_window_config)
        model = make_model(name, processor, small_initial_factors, theta=3)
        events = processor.events(max_events=30)
        for _, delta in events:
            before = [factor.copy() for factor in model.factors]
            model.update(delta)
            affected = set(
                model._affected_rows(delta.entries, delta.categorical_indices)
            )
            for mode, factor in enumerate(model.factors):
                for row in range(factor.shape[0]):
                    if (mode, row) in affected:
                        continue
                    np.testing.assert_array_equal(
                        factor[row, :],
                        before[mode][row, :],
                        err_msg=f"{name} touched untouched row ({mode}, {row})",
                    )
