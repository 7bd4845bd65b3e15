"""Smoke-level integration tests: every figure experiment runs end to end.

Each paper experiment is exercised at a deliberately tiny scale; the goal is
to validate result structure, formatting, and basic sanity of the numbers —
the benchmarks produce the full-size reproductions.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest

from benchmarks.reference_drain import reference_events
from repro.anomaly.detector import SCOREBOARD_SIZE
from repro.anomaly.scoring import score_batch
from repro.data.datasets import DATASETS, get_dataset_spec
from repro.exceptions import ConfigurationError
from repro.experiments import anomaly_experiment, runner, scalability
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
from repro.stream.checkpoint import is_checkpoint
from repro.stream.events import EventKind
from repro.stream.processor import ContinuousStreamProcessor
from repro.stream.window import WindowConfig

TINY = ExperimentSettings(
    dataset="chicago_crime", scale=0.08, max_events=200, n_checkpoints=4,
    als_iterations=3, seed=0,
)



def window_config_of(settings: ExperimentSettings) -> WindowConfig:
    """The window an experiment builds for ``settings.dataset``."""
    spec = settings.spec
    return WindowConfig(
        mode_sizes=spec.mode_sizes,
        window_length=spec.window_length,
        period=spec.period,
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
            TINY,
            datasets=("chicago_crime",),
            methods=["sns_rnd_plus", "als"],
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

    def test_each_dataset_checkpoints_and_resumes_on_its_own(self, tmp_path):
        settings = dataclasses.replace(TINY, max_events=60, n_checkpoints=3)
        methods = ["sns_vec_plus", "als"]
        run_speed_fitness(
            dataclasses.replace(settings, checkpoint_dir=str(tmp_path)),
            datasets=("divvy_bikes", "chicago_crime"),
            methods=methods,
        )
        for dataset in ("divvy_bikes", "chicago_crime"):
            assert is_checkpoint(tmp_path / dataset / "sns_vec_plus")
        resumed = run_speed_fitness(
            dataclasses.replace(
                settings, checkpoint_dir=str(tmp_path), resume=True
            ),
            datasets=("divvy_bikes",),
            methods=methods,
        )
        fresh = run_speed_fitness(settings, datasets=("divvy_bikes",), methods=methods)
        assert (
            resumed.experiments["divvy_bikes"].methods["sns_vec_plus"].fitness_series
            == fresh.experiments["divvy_bikes"].methods["sns_vec_plus"].fitness_series
        )


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

    def test_relaxed_points_replay_the_events_they_are_plotted_at(
        self, monkeypatch
    ):
        # A relaxed replay solves whole batches, yet each point must replay
        # exactly its event count, or the series and its line fit would
        # describe other runs than the labels say.
        settings = dataclasses.replace(TINY, relaxed=True)
        counts = (50, 150, 300)
        stream, _, window_config, _, _ = runner.prepare_experiment(settings)
        probe = ContinuousStreamProcessor(stream, window_config)
        batch_ends = itertools.accumulate(b.n_events for b in probe.iter_batches())
        assert not set(counts) & set(batch_ends)
        outcomes = {}

        def recording(*args, _run_sweep=scalability.run_sweep, **kwargs):
            result = _run_sweep(*args, **kwargs)
            outcomes.update(result.methods)
            return result

        monkeypatch.setattr(scalability, "run_sweep", recording)
        result = run_scalability(settings, methods=("sns_vec",), event_counts=counts)
        assert result.event_counts == list(counts)
        assert [outcomes[f"sns_vec@events={c}"].n_events for c in counts] == list(
            counts
        )


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

    @pytest.fixture
    def injected_streams(self, monkeypatch):
        """The streams fig9 replays, anomalies included, as it builds them."""
        inject = anomaly_experiment.inject_anomalies
        streams = []

        def injecting(*args, **kwargs):
            stream, anomalies = inject(*args, **kwargs)
            streams.append(stream)
            return stream, anomalies

        monkeypatch.setattr(anomaly_experiment, "inject_anomalies", injecting)
        return streams

    @pytest.mark.parametrize("dataset", sorted(DATASETS))
    def test_baselines_score_the_newest_unit_at_every_boundary(
        self, injected_streams, dataset
    ):
        # A baseline scores the unit each period boundary completes, on the
        # window exactly at that boundary, up to and including the last one.
        settings = ExperimentSettings(dataset=dataset, scale=0.1)
        baselines = ("online_scp", "cp_stream")
        periods = 4
        result = run_anomaly_experiment(
            settings, methods=baselines, replay_periods=periods
        )
        [stream] = injected_streams
        config = window_config_of(settings)
        processor = ContinuousStreamProcessor(stream, config)
        expected = 0
        for step in range(1, periods + 1):
            processor.run(end_time=processor.start_time + step * config.period)
            expected += processor.window.unit_nnz(config.window_length - 1)
        assert expected > 0
        for method in baselines:
            assert result.methods[method].n_scored == expected, method

    @pytest.mark.parametrize("relaxed", [False, True], ids=["exact", "relaxed"])
    def test_continuous_method_scores_every_arrival_once(
        self, injected_streams, monkeypatch, relaxed
    ):
        # Per event or per batch, every arrival up to the end of the replay
        # is scored once; only a relaxed run scores through score_batch.
        scored_batches = []

        def counting(model, batch, detector):
            scored_batches.append(batch.n_events)
            return score_batch(model, batch, detector)

        monkeypatch.setattr(anomaly_experiment, "score_batch", counting)
        settings = ExperimentSettings(dataset="nyc_taxi", scale=0.1, relaxed=relaxed)
        periods = 3
        result = run_anomaly_experiment(
            settings, methods=("sns_vec_plus",), n_anomalies=4,
            replay_periods=periods,
        )
        [stream] = injected_streams
        config = window_config_of(settings)
        processor = ContinuousStreamProcessor(stream, config)
        replay_end = processor.start_time + periods * config.period
        kinds = [
            event.kind for event, _ in reference_events(processor, end_time=replay_end)
        ]
        assert result.methods["sns_vec_plus"].n_scored == kinds.count(
            EventKind.ARRIVAL
        )
        if relaxed:
            assert sum(scored_batches) == len(kinds)
        else:
            assert scored_batches == []

    @pytest.mark.parametrize(
        "kwargs",
        [{"top_k": SCOREBOARD_SIZE + 1}, {"n_anomalies": SCOREBOARD_SIZE + 1}],
    )
    def test_top_k_beyond_the_scoreboard_is_refused(self, kwargs):
        with pytest.raises(ConfigurationError, match="scoreboard"):
            run_anomaly_experiment(ExperimentSettings(dataset="nyc_taxi"), **kwargs)

    def test_non_positive_top_k_scores_zero(self):
        result = run_anomaly_experiment(
            TINY, methods=("sns_rnd_plus",), n_anomalies=4, top_k=-1,
            replay_periods=2,
        )
        assert result.methods["sns_rnd_plus"].precision_at_k == 0.0


class TestRelaxedForwarding:
    """Every figure entry point builds its models with the requested knob."""

    RELAXED = dataclasses.replace(TINY, relaxed=True)

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


class _Captured(Exception):
    """Stops an experiment once its replay tasks are built."""


class TestKnobForwarding:
    """Every figure experiment hands every settings knob to every replay."""

    SWEEPS = {
        "fig1": (lambda s: run_granularity(s, divisors=(2,), als_iterations=2), {}),
        "fig4": (lambda s: run_fitness_over_time(s, methods=["sns_vec", "als"]), {}),
        "fig5": (
            lambda s: run_speed_fitness(
                s, datasets=("divvy_bikes",), methods=["sns_vec"]
            ),
            {},
        ),
        "fig6": (
            lambda s: run_scalability(s, methods=("sns_vec",), event_counts=(50,)),
            {"max_events": 50, "fitness_every": 50},
        ),
        "fig7": (
            lambda s: run_theta_sweep(s, methods=("sns_rnd",), fractions=(0.25,)),
            {"theta": 5},
        ),
        "fig8": (
            lambda s: run_eta_sweep(s, methods=("sns_vec_plus",), etas=(32.0,)),
            {"eta": 32.0},
        ),
    }

    @pytest.mark.parametrize("figure", sorted(SWEEPS))
    def test_every_replay_task_carries_every_knob(
        self, figure, tmp_path, monkeypatch
    ):
        settings = ExperimentSettings(
            dataset="chicago_crime",
            scale=0.08,
            max_events=120,
            n_checkpoints=3,
            als_iterations=2,
            seed=7,
            relaxed=True,
            checkpoint_dir=str(tmp_path),
            checkpoint_events=40,
            resume=True,
            n_workers=2,
        )
        for field in dataclasses.fields(ExperimentSettings):
            assert getattr(settings, field.name) != field.default, field.name
        calls = []

        def capture(snapshot, tasks, **kwargs):
            calls.append((tasks, kwargs))
            raise _Captured

        monkeypatch.setattr(runner, "run_tasks", capture)
        experiment, swept = self.SWEEPS[figure]
        with pytest.raises(_Captured):
            experiment(settings)
        [(tasks, kwargs)] = calls
        dataset = "divvy_bikes" if figure == "fig5" else settings.dataset
        work_dir = tmp_path / dataset if figure == "fig5" else tmp_path
        assert kwargs == {
            "n_workers": 2,
            "work_dir": str(work_dir),
            "resume": True,
        }
        spec = get_dataset_spec(dataset)
        replays = [task for task in tasks if task.kind == "method"]
        assert replays
        for task in replays:
            point = swept if task.params["method"] != "als" else {}
            assert task.params == {
                "method": task.params["method"],
                "rank": spec.rank,
                "theta": point.get("theta", spec.theta),
                "eta": point.get("eta", spec.eta),
                "max_events": point.get("max_events", 120),
                "fitness_every": point.get("fitness_every", 40),
                "seed": 7,
                "relaxed": True,
                "checkpoint_events": 40,
            }, task.key
