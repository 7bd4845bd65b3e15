"""Integration tests for the streaming experiment runner."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.als.als import decompose
from repro.data.generators import generate_synthetic_stream
from repro.exceptions import ConfigurationError
from repro.experiments.runner import (
    ExperimentResult,
    MethodResult,
    method_kind,
    method_label,
    run_method,
)
from repro.stream.processor import ContinuousStreamProcessor
from repro.stream.window import WindowConfig


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

    def test_batched_continuous_matches_sequential(self, runner_setup):
        stream, window_config, initial, _ = runner_setup
        kwargs = dict(
            initial_factors=initial, rank=5, max_events=300, fitness_every=100
        )
        sequential = run_method(stream, window_config, "sns_vec_plus", **kwargs)
        batched = run_method(
            stream, window_config, "sns_vec_plus", batched=True, **kwargs
        )
        assert batched.kind == "continuous"
        assert batched.n_events == sequential.n_events
        # n_updates and mean_update_microseconds are per-event in both paths.
        assert batched.n_updates == sequential.n_updates
        assert batched.mean_update_microseconds > 0
        # The batched engine is numerically equivalent, so the final state —
        # and therefore the final fitness — must agree to float precision.
        assert batched.final_fitness == pytest.approx(
            sequential.final_fitness, rel=1e-9
        )

    def test_batched_periodic_method_runs(self, runner_setup):
        stream, window_config, initial, _ = runner_setup
        result = run_method(
            stream, window_config, "als",
            initial_factors=initial, rank=5,
            max_events=300, fitness_every=100, batched=True,
        )
        assert result.kind == "periodic"
        assert result.n_events == 300
        assert result.n_updates >= 1
        assert np.isfinite(result.final_fitness)
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


class TestBaselineBoundarySemantics:
    """Both engines score periodic baselines identically (boundary-exact)."""

    @pytest.mark.parametrize("max_events", [37, 300, 600])
    def test_engines_agree_bit_for_bit(self, runner_setup, max_events):
        stream, window_config, initial, _ = runner_setup
        kwargs = dict(
            initial_factors=initial, rank=5, max_events=max_events,
            fitness_every=100,
        )
        sequential = run_method(stream, window_config, "als", **kwargs)
        batched = run_method(stream, window_config, "als", batched=True, **kwargs)
        # Identical semantics: the same boundaries are scored over the same
        # window values.  (The grouped scatter can store entries in a
        # different order than per-event applies, so ALS's float reductions
        # round differently — values agree to float precision, structure
        # exactly.)
        assert batched.fitness_series == pytest.approx(
            sequential.fitness_series, rel=1e-9
        )
        assert batched.checkpoint_times == sequential.checkpoint_times
        assert batched.n_events == sequential.n_events
        assert batched.n_updates == sequential.n_updates
        assert batched.final_fitness == pytest.approx(
            sequential.final_fitness, rel=1e-9
        )

    def test_trailing_boundaries_scored_when_stream_exhausts(self, runner_setup):
        # Ask for far more events than the stream holds: the per-event loop
        # historically stopped scoring at the last event, silently dropping
        # every boundary at or past it; both engines must now score them.
        stream, window_config, initial, _ = runner_setup
        kwargs = dict(
            initial_factors=initial, rank=5, max_events=10**6,
            fitness_every=10**6,
        )
        sequential = run_method(stream, window_config, "als", **kwargs)
        batched = run_method(stream, window_config, "als", batched=True, **kwargs)
        assert sequential.n_events < 10**6  # the stream really ran out
        assert sequential.checkpoint_times == batched.checkpoint_times
        # Trailing windows are nearly empty, so ALS is ill-conditioned and
        # amplifies the engines' storage-order rounding; the scored
        # boundaries (the point of this test) still agree closely.
        assert batched.fitness_series == pytest.approx(
            sequential.fitness_series, rel=1e-5, abs=1e-5
        )
        # The last scored boundary is at or past the final event: no window
        # state is left unscored when the stream ends.
        last_event_time = max(record.time for record in stream.records) + (
            window_config.window_length * window_config.period
        )
        assert sequential.checkpoint_times[-1] >= last_event_time - window_config.period

    def test_truncated_final_period_is_not_scored(self, runner_setup):
        # When max_events stops the replay mid-period, the window has not
        # reached the next boundary, so no sample may be emitted for it —
        # on either engine.
        stream, window_config, initial, _ = runner_setup
        probe = ContinuousStreamProcessor(stream, window_config)
        first_boundary = probe.start_time + window_config.period
        events_in_first_period = probe.run(end_time=first_boundary)
        max_events = events_in_first_period + 3  # a few events into period 2
        kwargs = dict(
            initial_factors=initial, rank=5, max_events=max_events,
            fitness_every=10**6,
        )
        for batched in (False, True):
            result = run_method(
                stream, window_config, "als", batched=batched, **kwargs
            )
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
        sequential = run_method(stream, window_config, "als", **kwargs)
        batched = run_method(stream, window_config, "als", batched=True, **kwargs)
        assert sequential.checkpoint_times[-1] == pytest.approx(boundary)
        assert sequential.checkpoint_times == batched.checkpoint_times
        assert batched.fitness_series == pytest.approx(
            sequential.fitness_series, rel=1e-9
        )


class TestCheckpointResume:
    @pytest.mark.parametrize("batched", [False, True], ids=["per_event", "batched"])
    def test_resume_reproduces_uninterrupted_run(
        self, runner_setup, tmp_path, batched
    ):
        stream, window_config, initial, _ = runner_setup
        kwargs = dict(
            initial_factors=initial, rank=5, theta=5,
            max_events=300, fitness_every=100, batched=batched,
        )
        reference = run_method(stream, window_config, "sns_rnd_plus", **kwargs)
        interrupted = dict(kwargs, max_events=150, checkpoint_dir=tmp_path)
        run_method(stream, window_config, "sns_rnd_plus", **interrupted)
        assert (tmp_path / "sns_rnd_plus").is_dir()
        resumed = run_method(
            stream, window_config, "sns_rnd_plus",
            checkpoint_dir=tmp_path, resume=True, **kwargs,
        )
        assert resumed.n_events == reference.n_events == 300
        assert resumed.final_fitness == reference.final_fitness
        if not batched:
            # Per-event fitness sampling is on exact event counts, so the
            # whole series matches; the batched engine may add one sample at
            # the interruption point (batch-granularity sampling).
            assert resumed.fitness_series == reference.fitness_series
            assert resumed.checkpoint_times == reference.checkpoint_times
        else:
            assert resumed.fitness_series[-1] == reference.fitness_series[-1]

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

    def test_checkpoint_without_fingerprint_is_checked_on_window_only(
        self, runner_setup, tmp_path
    ):
        # Checkpoints saved before the stream fingerprint existed carry no
        # "stream" entry in their extra payload; they still resume.
        stream, window_config, initial, _ = runner_setup
        kwargs = dict(initial_factors=initial, rank=5, fitness_every=100)
        run_method(
            stream, window_config, "sns_vec", max_events=100,
            checkpoint_dir=tmp_path, **kwargs
        )
        manifest_path = tmp_path / "sns_vec" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["extra"].pop("stream") == {
            "n_records": len(stream),
            "first_time": stream.start_time,
            "last_time": stream.end_time,
        }
        manifest_path.write_text(json.dumps(manifest))
        resumed = run_method(
            stream.head(len(stream) - 1), window_config, "sns_vec",
            max_events=200, checkpoint_dir=tmp_path, resume=True, **kwargs
        )
        assert resumed.n_events == 200

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
