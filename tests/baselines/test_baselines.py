"""Tests for the once-per-period baselines (ALS, OnlineSCP, CP-stream, NeCPD)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.base import BaselineConfig
from repro.baselines.cp_stream import CPStream
from repro.baselines.necpd import NeCPD
from repro.baselines.online_scp import OnlineSCP
from repro.baselines.periodic_als import PeriodicALS
from repro.baselines.registry import (
    BASELINES,
    available_baselines,
    create_baseline,
    display_name,
)
from repro.exceptions import (
    ConfigurationError,
    NotFittedError,
    RankError,
    ShapeError,
    UnknownAlgorithmError,
)
from repro.stream.processor import ContinuousStreamProcessor
from repro.tensor.random import random_factors

ALL_BASELINES = ["als", "online_scp", "cp_stream", "necpd"]


def stream_one_period(processor, model):
    """Advance the window by one period and fire the baseline's update."""
    period = processor.config.period
    boundary = processor.start_time + period
    processor.run(end_time=boundary)
    model.update_period()
    return boundary


class TestBaselineConfig:
    def test_invalid_rank(self):
        with pytest.raises(RankError):
            BaselineConfig(rank=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rank": 2, "n_iterations": 0},
            {"rank": 2, "forgetting": 0.0},
            {"rank": 2, "forgetting": 1.5},
            {"rank": 2, "learning_rate": 0.0},
            {"rank": 2, "momentum": 1.0},
            {"rank": 2, "regularization": -1.0},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            BaselineConfig(**kwargs)


class TestRegistry:
    def test_available(self):
        assert set(available_baselines()) == {
            "als",
            "online_scp",
            "cp_stream",
            "necpd",
        }

    def test_create_by_name(self):
        model = create_baseline("online_scp", BaselineConfig(rank=3))
        assert isinstance(model, OnlineSCP)

    def test_necpd_parenthesised_name_sets_iterations(self):
        model = create_baseline("necpd(10)", BaselineConfig(rank=3))
        assert isinstance(model, NeCPD)
        assert model.config.n_iterations == 10

    def test_unknown_rejected(self):
        with pytest.raises(UnknownAlgorithmError):
            create_baseline("gradient_boosting", BaselineConfig(rank=3))

    def test_display_names(self):
        assert display_name("cp_stream") == "CP-stream"
        assert display_name("necpd(10)") == "NeCPD (10)"

    def test_registered_names_match_classes(self):
        for name, baseline_class in BASELINES.items():
            assert baseline_class.name == name


@pytest.mark.parametrize("name", ALL_BASELINES)
class TestCommonBaselineBehaviour:
    def test_lifecycle_and_validation(self, name, small_processor, rng):
        model = create_baseline(name, BaselineConfig(rank=3))
        with pytest.raises(NotFittedError):
            model.update_period()
        with pytest.raises(ShapeError):
            model.initialize(
                small_processor.window, random_factors((8, 7), rank=3, rng=rng)
            )

    def test_periodic_updates_keep_fitness_reasonable(
        self, name, small_stream, small_window_config, small_initial_factors
    ):
        processor = ContinuousStreamProcessor(small_stream, small_window_config)
        model = create_baseline(name, BaselineConfig(rank=4, n_iterations=1))
        model.initialize(processor.window, small_initial_factors)
        initial_fitness = model.fitness()
        boundary = processor.start_time
        for _ in range(3):
            boundary += small_window_config.period
            processor.run(end_time=boundary)
            model.update_period()
        assert model.n_period_updates == 3
        assert np.isfinite(model.fitness())
        # No divergence: still in the same ballpark as the initialisation.
        assert model.fitness() > initial_fitness - 0.5
        for factor in model.factors:
            assert np.isfinite(factor).all()

    def test_n_parameters(self, name, small_processor, small_initial_factors):
        model = create_baseline(name, BaselineConfig(rank=4))
        model.initialize(small_processor.window, small_initial_factors)
        assert model.n_parameters == 4 * (8 + 7 + 4)


class TestPeriodicALS:
    def test_refits_better_than_frozen_factors(
        self, small_stream, small_window_config, small_initial_factors
    ):
        processor = ContinuousStreamProcessor(small_stream, small_window_config)
        model = PeriodicALS(BaselineConfig(rank=4, n_iterations=3))
        model.initialize(processor.window, small_initial_factors)
        frozen = small_initial_factors
        boundary = processor.start_time
        for _ in range(3):
            boundary += small_window_config.period
            processor.run(end_time=boundary)
            model.update_period()
        refit_fitness = model.fitness()
        frozen_fitness = frozen.fitness(processor.window.tensor)
        assert refit_fitness > frozen_fitness


class TestOnlineSCP:
    def test_window_deque_bounded_by_window_length(
        self, small_stream, small_window_config, small_initial_factors
    ):
        processor = ContinuousStreamProcessor(small_stream, small_window_config)
        model = OnlineSCP(BaselineConfig(rank=4))
        model.initialize(processor.window, small_initial_factors)
        boundary = processor.start_time
        for _ in range(4):
            boundary += small_window_config.period
            processor.run(end_time=boundary)
            model.update_period()
        assert len(model._contributions) == small_window_config.window_length

    def test_auxiliaries_match_contribution_sums(
        self, small_processor, small_initial_factors
    ):
        model = OnlineSCP(BaselineConfig(rank=4))
        model.initialize(small_processor.window, small_initial_factors)
        for mode in range(2):
            total = sum(c.mttkrp[mode] for c in model._contributions)
            np.testing.assert_allclose(model._p_matrices[mode], total, atol=1e-9)


class TestCPStream:
    def test_forgetting_shrinks_history_weight(
        self, small_stream, small_window_config, small_initial_factors
    ):
        processor = ContinuousStreamProcessor(small_stream, small_window_config)
        model = CPStream(BaselineConfig(rank=4, forgetting=0.5))
        model.initialize(processor.window, small_initial_factors)
        gram_before = [g.copy() for g in model._gram_acc]
        stream_one_period(processor, model)
        # After one update with forgetting 0.5 the accumulated Gram cannot be
        # simply the old one: it must have been scaled and augmented.
        assert not np.allclose(model._gram_acc[0], gram_before[0])

    def test_recent_rows_length_bounded(self, small_processor, small_initial_factors):
        model = CPStream(BaselineConfig(rank=4))
        model.initialize(small_processor.window, small_initial_factors)
        assert len(model._recent_rows) == small_processor.config.window_length


class TestNeCPD:
    def test_more_passes_do_not_diverge(
        self, small_stream, small_window_config, small_initial_factors
    ):
        processor = ContinuousStreamProcessor(small_stream, small_window_config)
        model = NeCPD(BaselineConfig(rank=4, n_iterations=3))
        model.initialize(processor.window, small_initial_factors)
        stream_one_period(processor, model)
        assert np.isfinite(model.fitness())
        assert model.fitness() > -1.0

    def test_velocities_have_factor_shapes(self, small_processor, small_initial_factors):
        model = NeCPD(BaselineConfig(rank=4))
        model.initialize(small_processor.window, small_initial_factors)
        assert [v.shape for v in model._velocities] == [
            f.shape for f in model.factors
        ]
