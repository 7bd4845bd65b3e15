"""Integration tests for the streaming experiment runner."""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from benchmarks.reference_drain import reference_run
from repro.als.als import decompose
from repro.baselines.base import BaselineConfig
from repro.baselines.registry import create_baseline
from repro.core.base import SNSConfig
from repro.core.registry import create_algorithm
from repro.data.generators import generate_synthetic_stream
from repro.exceptions import CheckpointError, ConfigurationError
from repro.experiments import runner
from repro.experiments.config import (
    DEFAULT_CONTINUOUS_METHODS,
    DEFAULT_PERIODIC_METHODS,
)
from repro.experiments.runner import (
    ExperimentResult,
    MethodResult,
    method_kind,
    method_label,
    run_method,
)
from repro.stream.checkpoint import restore_run
from repro.stream.processor import ContinuousStreamProcessor
from repro.stream.window import WindowConfig

#: The five SliceNStitch variants.
VARIANTS = sorted(DEFAULT_CONTINUOUS_METHODS)


@pytest.fixture(scope="module")
def runner_setup():
    """A small shared stream / window / initial decomposition."""
    stream = generate_synthetic_stream(
        mode_sizes=(10, 9), rank=3, n_records=1200,
        period=20.0, records_per_period=60.0, seed=21,
    )
    window_config = WindowConfig(mode_sizes=(10, 9), window_length=4, period=20.0)
    processor = ContinuousStreamProcessor(stream, window_config)
    initial = decompose(processor.window.tensor, rank=5, n_iterations=8, seed=0)
    return stream, window_config, initial.decomposition, initial.fitness


class TestMethodKindAndLabel:
    def test_kinds(self):
        assert method_kind("sns_rnd_plus") == "continuous"
        assert method_kind("als") == "periodic"
        assert method_kind("necpd(10)") == "periodic"
        with pytest.raises(ConfigurationError):
            method_kind("unknown_method")

    def test_labels(self):
        assert method_label("sns_mat") == "SNS_MAT"
        assert method_label("cp_stream") == "CP-stream"


class TestRunMethod:
    def test_continuous_method_result(self, runner_setup):
        stream, window_config, initial, _ = runner_setup
        result = run_method(
            stream, window_config, "sns_vec_plus",
            initial_factors=initial, rank=5,
            max_events=300, fitness_every=100,
        )
        assert isinstance(result, MethodResult)
        assert result.kind == "continuous"
        assert result.n_updates == 300
        assert result.n_events == 300
        assert len(result.fitness_series) == 3
        assert result.checkpoint_times == sorted(result.checkpoint_times)
        assert result.mean_update_microseconds > 0
        assert np.isfinite(result.average_fitness)

    def test_periodic_method_result(self, runner_setup):
        stream, window_config, initial, _ = runner_setup
        result = run_method(
            stream, window_config, "als",
            initial_factors=initial, rank=5,
            max_events=600, fitness_every=100,
        )
        assert result.kind == "periodic"
        assert result.n_updates >= 1  # at least one boundary crossed
        assert len(result.fitness_series) == result.n_updates
        assert result.mean_update_microseconds > 0

    def test_zero_checkpoint_fallback(self, runner_setup):
        stream, window_config, initial, _ = runner_setup
        result = run_method(
            stream, window_config, "sns_vec",
            initial_factors=initial, rank=5,
            max_events=10, fitness_every=50,
        )
        assert len(result.fitness_series) == 1  # falls back to final fitness

    def test_batched_continuous_matches_sequential(self, runner_setup):
        # run_method replays an exact variant per event; the library's
        # batched engine, driven on the same model, ends on the same state.
        stream, window_config, initial, _ = runner_setup
        sequential = run_method(
            stream, window_config, "sns_vec_plus",
            initial_factors=initial, rank=5, max_events=300, fitness_every=100,
        )
        processor = ContinuousStreamProcessor(stream, window_config)
        model = create_algorithm(
            "sns_vec_plus", SNSConfig(rank=5, theta=20, eta=1000.0, seed=0)
        )
        model.initialize(processor.window, initial)
        assert processor.run_batched(model=model, max_events=300) == 300
        assert model.n_updates == sequential.n_updates == 300
        assert model.fitness() == pytest.approx(sequential.final_fitness, rel=1e-9)


@pytest.fixture
def built_models(monkeypatch):
    """Every model ``run_method`` builds, in the order it builds them."""
    models = []

    def recording(factory):
        def build(*args, **kwargs):
            model = factory(*args, **kwargs)
            models.append(model)
            return model

        return build

    monkeypatch.setattr(
        runner, "create_algorithm", recording(runner.create_algorithm)
    )
    monkeypatch.setattr(runner, "create_baseline", recording(runner.create_baseline))
    return models


def started_variant(stream, window_config, initial, method, relaxed):
    """A fresh processor and ``method`` built as ``run_method`` builds it."""
    processor = ContinuousStreamProcessor(stream, window_config)
    model = create_algorithm(
        method, SNSConfig(rank=5, theta=5, eta=1000.0, seed=0, relaxed=relaxed)
    )
    model.initialize(processor.window, initial)
    return processor, model


class TestEngineFollowsUpdateRule:
    """The update rule picks the engine; there is no option to pick it."""

    @pytest.mark.parametrize("method", VARIANTS)
    def test_exact_variant_is_updated_per_event(
        self, runner_setup, built_models, method
    ):
        stream, window_config, initial, _ = runner_setup
        result = run_method(
            stream, window_config, method, initial_factors=initial, rank=5,
            theta=5, max_events=250, fitness_every=60,
        )
        [model] = built_models
        processor, expected = started_variant(
            stream, window_config, initial, method, relaxed=False
        )
        times = []
        for count, (event, delta) in enumerate(processor.events(max_events=250), 1):
            expected.update(delta)
            if count % 60 == 0:
                times.append(event.time)
        # Samples fall on exact event counts, one per update.
        assert result.checkpoint_times == times
        assert result.n_updates == result.n_events == 250
        for actual, factor in zip(model.factors, expected.factors):
            assert np.array_equal(actual, factor)
        assert result.final_fitness == expected.fitness()

    @pytest.mark.parametrize("method", VARIANTS)
    def test_relaxed_variant_is_updated_per_batch(
        self, runner_setup, built_models, method
    ):
        stream, window_config, initial, _ = runner_setup
        result = run_method(
            stream, window_config, method, initial_factors=initial, rank=5,
            theta=5, max_events=250, fitness_every=60, relaxed=True,
        )
        [model] = built_models
        processor, expected = started_variant(
            stream, window_config, initial, method, relaxed=True
        )
        times = []
        n_events = 0
        for batch in processor.iter_batches(max_events=250):
            expected.update_batch(batch)
            crossed = (n_events + batch.n_events) // 60 > n_events // 60
            n_events += batch.n_events
            if crossed:
                times.append(batch.end_time)
        # Samples fall on batch ends, and the relaxed update ran on them.
        assert result.checkpoint_times == times
        assert result.n_updates == result.n_events == n_events == 250
        for actual, factor in zip(model.factors, expected.factors):
            assert np.array_equal(actual, factor)
        assert result.final_fitness == expected.fitness()


def batched_boundary_scores(stream, window_config, initial, max_events):
    """ALS scored at each period boundary, replayed on the batched engine.

    The boundary rules of :func:`run_method`: score the window at every
    boundary the replay reaches, stop without a sample when the event budget
    ends the replay short of the next boundary.  Returns the sample times,
    the fitness values, the events applied, the number of updates and the
    final fitness.
    """
    processor = ContinuousStreamProcessor(stream, window_config)
    model = create_baseline("als", BaselineConfig(rank=5, n_iterations=3, seed=0))
    model.initialize(processor.window, initial)
    boundary = processor.start_time + window_config.period
    times, values, n_events = [], [], 0
    while n_events < max_events:
        applied = processor.run_batched(
            end_time=boundary, max_events=max_events - n_events
        )
        n_events += applied
        if applied == 0 and not processor.has_pending_events:
            break
        upcoming = processor.next_event_time
        if upcoming is not None and upcoming <= boundary:
            break
        model.update_period()
        times.append(boundary)
        values.append(model.fitness())
        boundary += window_config.period
        if n_events >= max_events:
            break
    n_updates = len(times)
    if not times:
        # No boundary reached: one sample of the starting fit.
        times.append(processor.start_time)
        values.append(model.fitness())
    return times, values, n_events, n_updates, model.fitness()


class TestBaselineBoundarySemantics:
    """Periodic baselines are scored on the window at each period boundary."""

    @pytest.mark.parametrize("max_events", [37, 300, 600])
    def test_engines_agree_bit_for_bit(self, runner_setup, max_events):
        # run_method replays per event to each boundary; the batched engine
        # reaches the same boundaries with the same windows.  (The grouped
        # scatter can store entries in another order than per-event applies,
        # so ALS's float reductions round differently: values agree to float
        # precision, structure exactly.)
        stream, window_config, initial, _ = runner_setup
        sequential = run_method(
            stream, window_config, "als", initial_factors=initial, rank=5,
            max_events=max_events, fitness_every=100,
        )
        times, values, n_events, n_updates, final = batched_boundary_scores(
            stream, window_config, initial, max_events
        )
        assert sequential.checkpoint_times == times
        assert sequential.fitness_series == pytest.approx(values, rel=1e-9)
        assert sequential.n_events == n_events
        assert sequential.n_updates == n_updates
        assert sequential.final_fitness == pytest.approx(final, rel=1e-9)

    @pytest.mark.parametrize("method", DEFAULT_PERIODIC_METHODS)
    def test_every_baseline_scores_the_window_at_each_boundary(
        self, runner_setup, monkeypatch, method
    ):
        stream, window_config, initial, _ = runner_setup
        seen = []
        create_baseline = runner.create_baseline

        def build(*args, **kwargs):
            model = create_baseline(*args, **kwargs)
            update_period = model.update_period

            def recorded():
                seen.append(dict(model.window.tensor.items()))
                update_period()

            model.update_period = recorded
            return model

        monkeypatch.setattr(runner, "create_baseline", build)
        result = run_method(
            stream, window_config, method, initial_factors=initial,
            rank=5, max_events=1500, fitness_every=100,
        )
        # The oracle: the reference per-event drain, stopped at each boundary.
        processor = ContinuousStreamProcessor(stream, window_config)
        expected_times, expected_windows = [], []
        boundary = processor.start_time + window_config.period
        n_events = 0
        while True:
            n_events += reference_run(
                processor, end_time=boundary, max_events=1500 - n_events
            )
            upcoming = processor.next_event_time
            if upcoming is not None and upcoming <= boundary:
                break
            expected_times.append(boundary)
            expected_windows.append(dict(processor.window.tensor.items()))
            boundary += window_config.period
            if n_events >= 1500:
                break
        assert len(expected_times) >= 3
        assert result.checkpoint_times == expected_times
        assert seen == expected_windows
        assert result.n_updates == len(expected_times)

    def test_trailing_boundaries_scored_when_stream_exhausts(self, runner_setup):
        # Ask for far more events than the stream holds: every boundary at
        # or past the last event must still be scored.
        stream, window_config, initial, _ = runner_setup
        result = run_method(
            stream, window_config, "als",
            initial_factors=initial, rank=5, max_events=10**6,
            fitness_every=10**6,
        )
        assert result.n_events < 10**6  # the stream really ran out
        # The last scored boundary is at or past the final event: no window
        # state is left unscored when the stream ends.
        last_event_time = max(record.time for record in stream.records) + (
            window_config.window_length * window_config.period
        )
        assert result.checkpoint_times[-1] >= last_event_time - window_config.period

    def test_truncated_final_period_is_not_scored(self, runner_setup):
        # When max_events stops the replay mid-period, the window has not
        # reached the next boundary, so no sample may be emitted for it.
        stream, window_config, initial, _ = runner_setup
        probe = ContinuousStreamProcessor(stream, window_config)
        first_boundary = probe.start_time + window_config.period
        events_in_first_period = probe.run(end_time=first_boundary)
        max_events = events_in_first_period + 3  # a few events into period 2
        kwargs = dict(
            initial_factors=initial, rank=5, max_events=max_events,
            fitness_every=10**6,
        )
        result = run_method(stream, window_config, "als", **kwargs)
        assert result.n_events == max_events
        assert result.n_updates == 1
        assert result.checkpoint_times == [pytest.approx(first_boundary)]

    def test_boundary_scored_when_stream_ends_exactly_on_it(self, runner_setup):
        # Cap the replay so it ends exactly at a period boundary: that
        # boundary itself must be scored, with the window at the boundary.
        stream, window_config, initial, _ = runner_setup
        processor = ContinuousStreamProcessor(stream, window_config)
        boundary = processor.start_time + 3 * window_config.period
        events_to_boundary = processor.run(end_time=boundary)
        kwargs = dict(
            initial_factors=initial, rank=5, max_events=events_to_boundary,
            fitness_every=events_to_boundary,
        )
        result = run_method(stream, window_config, "als", **kwargs)
        assert result.checkpoint_times[-1] == pytest.approx(boundary)


class TestCheckpointResume:
    @pytest.mark.parametrize("relaxed", [False, True], ids=["exact", "relaxed"])
    def test_resume_reproduces_uninterrupted_run(
        self, runner_setup, tmp_path, relaxed
    ):
        stream, window_config, initial, _ = runner_setup
        kwargs = dict(
            initial_factors=initial, rank=5, theta=5, fitness_every=100,
            relaxed=relaxed,
        )
        reference = run_method(
            stream, window_config, "sns_rnd_plus", max_events=600,
            checkpoint_dir=tmp_path / "reference", **kwargs,
        )
        # Events 450 and 600 fall inside batches.  A relaxed update solves
        # a batch as a whole, so the interrupted run's checkpoint is taken
        # at the last batch end before event 450, which the uninterrupted
        # run passes too, and the resumed run replays at least one whole
        # batch before the one event 600 cuts short.
        probe = ContinuousStreamProcessor(stream, window_config)
        batch_ends = list(
            itertools.accumulate(batch.n_events for batch in probe.iter_batches())
        )
        assert 450 not in batch_ends and 600 not in batch_ends
        saved_at = max(end for end in batch_ends if end < 450) if relaxed else 450
        assert any(saved_at < end < 600 for end in batch_ends)
        interrupted = run_method(
            stream, window_config, "sns_rnd_plus", max_events=450,
            checkpoint_dir=tmp_path / "resumed", **kwargs,
        )
        assert interrupted.n_events == 450
        extra = restore_run(tmp_path / "resumed" / "sns_rnd_plus")[2]
        assert extra["n_events"] == saved_at
        resumed = run_method(
            stream, window_config, "sns_rnd_plus", max_events=600,
            checkpoint_dir=tmp_path / "resumed", resume=True, **kwargs,
        )
        assert resumed.n_events == reference.n_events == 600
        assert resumed.final_fitness == reference.final_fitness
        assert resumed.fitness_series == reference.fitness_series
        assert resumed.checkpoint_times == reference.checkpoint_times
        expected, model = (
            restore_run(tmp_path / run / "sns_rnd_plus")[1]
            for run in ("reference", "resumed")
        )
        for factor, expected_factor in zip(model.factors, expected.factors):
            assert np.array_equal(factor, expected_factor)

    def test_completed_run_resumes_to_larger_horizon(self, runner_setup, tmp_path):
        stream, window_config, initial, _ = runner_setup
        kwargs = dict(initial_factors=initial, rank=5, fitness_every=100)
        reference = run_method(
            stream, window_config, "sns_vec_plus", max_events=300, **kwargs
        )
        run_method(
            stream, window_config, "sns_vec_plus", max_events=150,
            checkpoint_dir=tmp_path, checkpoint_events=60, **kwargs
        )
        extended = run_method(
            stream, window_config, "sns_vec_plus", max_events=300,
            checkpoint_dir=tmp_path, resume=True, **kwargs
        )
        assert extended.n_events == 300
        assert extended.final_fitness == reference.final_fitness

    def test_resume_past_horizon_replays_nothing(self, runner_setup, tmp_path):
        stream, window_config, initial, _ = runner_setup
        kwargs = dict(initial_factors=initial, rank=5, fitness_every=100)
        done = run_method(
            stream, window_config, "sns_vec", max_events=200,
            checkpoint_dir=tmp_path, **kwargs
        )
        again = run_method(
            stream, window_config, "sns_vec", max_events=200,
            checkpoint_dir=tmp_path, resume=True, **kwargs
        )
        assert again.n_events == 200
        assert again.final_fitness == done.final_fitness
        # Timing bookkeeping is lifetime: nothing was replayed, so the totals
        # (and the derived per-update mean) are exactly the original run's.
        assert again.total_update_seconds == done.total_update_seconds
        assert again.mean_update_microseconds == done.mean_update_microseconds
        assert again.n_updates == done.n_updates

    def test_resumed_timing_covers_the_lifetime_run(self, runner_setup, tmp_path):
        # A run interrupted at the halfway point and resumed must report
        # per-update timings over all max_events updates, not just the
        # events replayed after the restore.
        stream, window_config, initial, _ = runner_setup
        kwargs = dict(initial_factors=initial, rank=5, fitness_every=100)
        first = run_method(
            stream, window_config, "sns_vec", max_events=150,
            checkpoint_dir=tmp_path, **kwargs
        )
        resumed = run_method(
            stream, window_config, "sns_vec", max_events=300,
            checkpoint_dir=tmp_path, resume=True, **kwargs
        )
        assert resumed.n_events == 300
        assert resumed.n_updates == 300
        # The resumed totals strictly include the first call's totals.
        assert resumed.total_update_seconds > first.total_update_seconds
        assert resumed.mean_update_microseconds == pytest.approx(
            1e6 * resumed.total_update_seconds / 300
        )

    def test_resume_with_different_hyper_parameters_is_rejected(
        self, runner_setup, tmp_path
    ):
        stream, window_config, initial, _ = runner_setup
        kwargs = dict(initial_factors=initial, rank=5, fitness_every=100)
        run_method(
            stream, window_config, "sns_rnd_plus", max_events=100, theta=5,
            checkpoint_dir=tmp_path, **kwargs
        )
        with pytest.raises(ConfigurationError, match="theta"):
            run_method(
                stream, window_config, "sns_rnd_plus", max_events=200, theta=9,
                checkpoint_dir=tmp_path, resume=True, **kwargs
            )

    def test_resume_on_another_stream_is_rejected(self, runner_setup, tmp_path):
        # The same window shape over another stream: restore_run brings
        # back the checkpoint's own stream, which this run would then
        # report as its own.
        stream, window_config, initial, _ = runner_setup
        kwargs = dict(initial_factors=initial, rank=5, fitness_every=100)
        run_method(
            stream, window_config, "sns_vec", max_events=100,
            checkpoint_dir=tmp_path, **kwargs
        )
        with pytest.raises(ConfigurationError, match=r"differs in \['stream'\]"):
            run_method(
                stream.head(len(stream) - 1), window_config, "sns_vec",
                max_events=200, checkpoint_dir=tmp_path, resume=True, **kwargs
            )

    def test_resume_under_another_window_config_is_rejected(
        self, runner_setup, tmp_path
    ):
        stream, window_config, initial, _ = runner_setup
        kwargs = dict(initial_factors=initial, rank=5, fitness_every=100)
        run_method(
            stream, window_config, "sns_vec", max_events=100,
            checkpoint_dir=tmp_path, **kwargs
        )
        wider = WindowConfig(
            mode_sizes=window_config.mode_sizes,
            window_length=window_config.window_length,
            period=2 * window_config.period,
        )
        with pytest.raises(
            ConfigurationError, match=r"differs in \['window_config'\]"
        ):
            run_method(
                stream, wider, "sns_vec", max_events=200,
                checkpoint_dir=tmp_path, resume=True, **kwargs
            )

    @pytest.mark.parametrize("key", sorted(runner.RUN_EXTRA_KEYS))
    def test_resume_requires_every_extra_key(self, runner_setup, tmp_path, key):
        # A checkpoint without its stream fingerprint (or any other key
        # run_method writes) is refused, not checked on what it has.
        stream, window_config, initial, _ = runner_setup
        kwargs = dict(initial_factors=initial, rank=5, fitness_every=100)
        run_method(
            stream, window_config, "sns_vec", max_events=100,
            checkpoint_dir=tmp_path, **kwargs
        )
        manifest_path = tmp_path / "sns_vec" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["extra"][key]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match=key):
            run_method(
                stream, window_config, "sns_vec", max_events=200,
                checkpoint_dir=tmp_path, resume=True, **kwargs
            )

    @pytest.mark.parametrize(
        "key, value",
        [("n_events", "100"), ("fitness_times", [0.0, "x"]), ("stream", None)],
    )
    def test_resume_refuses_mistyped_extra(self, runner_setup, tmp_path, key, value):
        stream, window_config, initial, _ = runner_setup
        kwargs = dict(initial_factors=initial, rank=5, fitness_every=100)
        run_method(
            stream, window_config, "sns_vec", max_events=100,
            checkpoint_dir=tmp_path, **kwargs
        )
        manifest_path = tmp_path / "sns_vec" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["extra"][key] = value
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match=key):
            run_method(
                stream, window_config, "sns_vec", max_events=200,
                checkpoint_dir=tmp_path, resume=True, **kwargs
            )

    def test_checkpoint_knobs_without_dir_are_rejected(self, runner_setup):
        stream, window_config, initial, _ = runner_setup
        kwargs = dict(
            initial_factors=initial, rank=5, max_events=50, fitness_every=100
        )
        with pytest.raises(ConfigurationError, match="checkpoint_dir"):
            run_method(
                stream, window_config, "sns_vec", checkpoint_events=10, **kwargs
            )
        with pytest.raises(ConfigurationError, match="checkpoint_dir"):
            run_method(stream, window_config, "sns_vec", resume=True, **kwargs)

    def test_nonpositive_checkpoint_events_rejected(self, runner_setup, tmp_path):
        stream, window_config, initial, _ = runner_setup
        with pytest.raises(ConfigurationError, match="positive"):
            run_method(
                stream, window_config, "sns_vec",
                initial_factors=initial, rank=5, max_events=50,
                checkpoint_dir=tmp_path, checkpoint_events=0,
            )

    def test_periodic_methods_skip_checkpointing(self, runner_setup, tmp_path):
        stream, window_config, initial, _ = runner_setup
        result = run_method(
            stream, window_config, "als",
            initial_factors=initial, rank=5,
            max_events=200, fitness_every=100,
            checkpoint_dir=tmp_path, resume=True,
        )
        assert result.kind == "periodic"
        assert not (tmp_path / "als").exists()


class TestExperimentResult:
    @pytest.fixture(scope="class")
    def experiment(self, runner_setup):
        stream, window_config, initial, initial_fitness = runner_setup
        methods = {}
        for name in ("sns_rnd_plus", "als"):
            methods[name] = run_method(
                stream, window_config, name,
                initial_factors=initial, rank=5, theta=5,
                max_events=500, fitness_every=100,
            )
        return ExperimentResult(
            dataset="unit_test",
            window_config=window_config,
            initial_fitness=initial_fitness,
            methods=methods,
        )

    def test_reference_relative_series_is_unity(self, experiment):
        assert experiment.relative_series("als") == [1.0] * len(
            experiment.methods["als"].fitness_series
        )

    def test_relative_series_uses_step_reference(self, experiment):
        series = experiment.relative_series("sns_rnd_plus")
        assert len(series) == len(experiment.methods["sns_rnd_plus"].fitness_series)
        assert all(np.isfinite(v) for v in series)

    def test_average_relative_fitness_in_sane_band(self, experiment):
        value = experiment.average_relative_fitness("sns_rnd_plus")
        assert 0.3 < value < 1.7

    def test_reference_fitness_before_first_boundary_is_initial(self, experiment):
        early = experiment.reference_fitness_at(-1.0)
        assert early == pytest.approx(experiment.initial_fitness)
