"""Smoke-level integration tests: every figure experiment runs end to end.

Each paper experiment is exercised at a deliberately tiny scale; the goal is
to validate result structure, formatting, and basic sanity of the numbers —
the benchmarks produce the full-size reproductions.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.experiments import anomaly_experiment, runner
from repro.experiments.anomaly_experiment import (
    format_anomaly_experiment,
    run_anomaly_experiment,
)
from repro.experiments.config import ExperimentSettings
from repro.experiments.eta_sweep import format_eta_sweep, run_eta_sweep
from repro.experiments.fitness_over_time import (
    format_fitness_over_time,
    run_fitness_over_time,
)
from repro.experiments.granularity import format_granularity, run_granularity
from repro.experiments.scalability import format_scalability, run_scalability
from repro.experiments.speed_fitness import format_speed_fitness, run_speed_fitness
from repro.experiments.theta_sweep import format_theta_sweep, run_theta_sweep

TINY = ExperimentSettings(
    dataset="chicago_crime", scale=0.08, max_events=200, n_checkpoints=4,
    als_iterations=3, seed=0,
)


class TestGranularity:
    def test_runs_and_reports(self):
        result = run_granularity(TINY, divisors=(4, 1), als_iterations=3)
        conventional = result.conventional()
        continuous = result.continuous()
        assert len(conventional) == 2
        # Finer granularity -> strictly more parameters.
        assert conventional[0].n_parameters > conventional[1].n_parameters
        # Continuous CPD keeps the coarse parameter count.
        assert continuous.n_parameters == conventional[-1].n_parameters
        text = format_granularity(result)
        assert "Fig. 1" in text and "per event" in text


class TestFitnessOverTime:
    def test_runs_with_subset_of_methods(self):
        result = run_fitness_over_time(TINY, methods=["sns_vec_plus", "als"])
        times, series = result.series("sns_vec_plus")
        assert len(times) == len(series) > 0
        assert all(np.isfinite(v) for v in series)
        text = format_fitness_over_time(result)
        assert "relative fitness" in text
        assert "SNS+_VEC" in text


class TestSpeedFitness:
    def test_single_dataset_roster(self):
        result = run_speed_fitness(
            datasets=("chicago_crime",),
            methods=["sns_rnd_plus", "als"],
            settings_overrides={"scale": 0.08, "max_events": 200,
                                "n_checkpoints": 4, "als_iterations": 3},
        )
        rows = result.rows()
        assert len(rows) == 2
        by_method = {row[1]: row for row in rows}
        # The continuous method always updates; at this tiny scale the ALS
        # baseline may not have crossed a period boundary yet (time 0.0).
        assert by_method["SNS+_RND"][2] > 0
        assert all(row[2] >= 0 for row in rows)
        speedup = result.speedup_over_fastest_baseline("chicago_crime", "sns_rnd_plus")
        assert speedup > 0 or math.isnan(speedup)
        assert "Fig. 5" in format_speed_fitness(result)


class TestScalability:
    def test_total_time_grows_with_events(self):
        result = run_scalability(
            TINY, methods=("sns_vec_plus",), event_counts=(50, 150, 300)
        )
        series = result.total_seconds["sns_vec_plus"]
        assert len(series) == 3
        assert series[0] < series[-1]
        assert result.linearity("sns_vec_plus") > 0.8
        assert "Fig. 6" in format_scalability(result)


class TestThetaSweep:
    def test_runs_and_reports(self):
        result = run_theta_sweep(TINY, methods=("sns_rnd_plus",), fractions=(0.5, 2.0))
        assert len(result.thetas) == 2
        assert len(result.relative_fitness["sns_rnd_plus"]) == 2
        assert all(t > 0 for t in result.update_microseconds["sns_rnd_plus"])
        assert "Fig. 7" in format_theta_sweep(result)


class TestEtaSweep:
    def test_runs_and_reports(self):
        result = run_eta_sweep(TINY, methods=("sns_rnd_plus",), etas=(100.0, 1000.0))
        assert result.etas == [100.0, 1000.0]
        values = result.relative_fitness["sns_rnd_plus"]
        assert all(np.isfinite(v) for v in values)
        assert "Fig. 8" in format_eta_sweep(result)


class TestAnomalyExperiment:
    def test_continuous_detects_faster_than_periodic(self):
        settings = ExperimentSettings(
            dataset="chicago_crime", scale=0.12, max_events=400,
            n_checkpoints=4, als_iterations=3, seed=1,
        )
        result = run_anomaly_experiment(
            settings,
            methods=("sns_rnd_plus", "online_scp"),
            n_anomalies=8,
            replay_periods=3,
        )
        continuous = result.methods["sns_rnd_plus"]
        periodic = result.methods["online_scp"]
        assert 0.0 <= continuous.precision_at_k <= 1.0
        assert continuous.precision_at_k >= 0.5  # anomalies are 5x the max value
        # The continuous method reacts essentially instantly; the periodic one
        # must wait for a boundary.
        assert continuous.mean_detection_delay == pytest.approx(0.0, abs=1e-6)
        if not math.isnan(periodic.mean_detection_delay):
            assert periodic.mean_detection_delay > 0.0
        assert "Fig. 9" in format_anomaly_experiment(result)


class TestRelaxedForwarding:
    """Every figure entry point builds its models with the requested knob."""

    RELAXED = dataclasses.replace(TINY, batched=True, relaxed=True)

    @pytest.fixture
    def built_configs(self, monkeypatch):
        configs = []
        for module in (runner, anomaly_experiment):
            def recording(name, config, _create=module.create_algorithm):
                configs.append(config)
                return _create(name, config)

            monkeypatch.setattr(module, "create_algorithm", recording)
        return configs

    def assert_relaxed(self, configs):
        assert configs
        assert all(config.relaxed for config in configs)

    def test_granularity(self, built_configs):
        run_granularity(self.RELAXED, divisors=(1,), als_iterations=3)
        self.assert_relaxed(built_configs)

    def test_scalability(self, built_configs):
        run_scalability(self.RELAXED, methods=("sns_vec",), event_counts=(50,))
        self.assert_relaxed(built_configs)

    def test_theta_sweep(self, built_configs):
        run_theta_sweep(self.RELAXED, methods=("sns_rnd_plus",), fractions=(1.0,))
        self.assert_relaxed(built_configs)

    def test_eta_sweep(self, built_configs):
        run_eta_sweep(self.RELAXED, methods=("sns_vec_plus",), etas=(1000.0,))
        self.assert_relaxed(built_configs)

    def test_anomaly_experiment(self, built_configs):
        run_anomaly_experiment(
            self.RELAXED, methods=("sns_rnd_plus",), n_anomalies=4, replay_periods=2
        )
        self.assert_relaxed(built_configs)
