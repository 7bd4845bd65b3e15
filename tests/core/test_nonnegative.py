"""Tests for the non-negative streaming extension (beyond the paper).

With ``SNSConfig(nonnegative=True)`` the coordinate-descent variants project
every updated entry onto ``[0, η]``, giving a non-negative CP decomposition of
the stream — the constraint the paper lists as supported by CP-stream and as
future work for SliceNStitch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.base import SNSConfig
from repro.core.registry import create_algorithm
from repro.stream.processor import ContinuousStreamProcessor

PROJECTED_VARIANTS = ("sns_vec_plus", "sns_rnd_plus")


@pytest.mark.parametrize("name", PROJECTED_VARIANTS)
class TestNonnegativeProjection:
    def test_touched_rows_stay_nonnegative(
        self, name, small_stream, small_window_config, small_initial_factors
    ):
        processor = ContinuousStreamProcessor(small_stream, small_window_config)
        model = create_algorithm(
            name, SNSConfig(rank=4, theta=4, eta=1000.0, nonnegative=True, seed=0)
        )
        # ALS initial factors of count data are already non-negative in
        # practice; clamp defensively so the invariant starts true.
        initial = small_initial_factors.absorb_weights()
        initial = [np.clip(factor, 0.0, None) for factor in initial.factors]
        model.initialize(processor.window, initial)
        touched: set[tuple[int, int]] = set()
        for _, delta in processor.events(max_events=250):
            model.update(delta)
            touched |= set(
                model._affected_rows(delta.entries, delta.categorical_indices)
            )
        for mode, index in touched:
            assert np.all(model.factors[mode][index, :] >= 0.0)
        assert np.isfinite(model.fitness())

    def test_fitness_close_to_unconstrained(
        self, name, small_stream, small_window_config, small_initial_factors
    ):
        """Projection costs little accuracy on non-negative count streams."""
        results = {}
        for nonnegative in (False, True):
            processor = ContinuousStreamProcessor(small_stream, small_window_config)
            model = create_algorithm(
                name,
                SNSConfig(rank=4, theta=4, eta=1000.0, nonnegative=nonnegative, seed=0),
            )
            model.initialize(processor.window, small_initial_factors)
            for _, delta in processor.events(max_events=300):
                model.update(delta)
            results[nonnegative] = model.fitness()
        assert results[True] > results[False] - 0.15

    def test_default_is_unconstrained(self, name):
        config = SNSConfig(rank=3)
        assert config.nonnegative is False
