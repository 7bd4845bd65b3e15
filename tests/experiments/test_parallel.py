"""Parallel experiment fan-out: equivalence, kill-then-resume, scheduler edges.

The contract under test: ``n_workers > 1`` changes *wall-clock shape only* —
every method replay is a deterministic function of the prepared experiment
(handed to each pool worker by the pool's initializer) and the task
parameters, so fitness series, final factors, and event counts are
identical to the sequential run; and a run whose worker is killed mid-task
fails with :class:`WorkerError`, after which ``resume=True`` continues the
task from its checkpoint to the uninterrupted result.

The kill is the ``kill_after_first_save`` fixture: a patched checkpoint
save that ends its process, which pool workers inherit by forking.
"""

from __future__ import annotations

import dataclasses
import multiprocessing

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, WorkerError
from repro.experiments.config import ExperimentSettings
from repro.experiments.eta_sweep import run_eta_sweep
from repro.experiments.granularity import run_granularity
from repro.experiments.parallel import (
    START_METHOD,
    ExperimentSnapshot,
    ExperimentTask,
    execute_task,
    method_task,
    run_tasks,
)
from repro.experiments.runner import prepare_experiment, run_experiment, run_method
from repro.experiments.scalability import run_scalability
from repro.experiments.theta_sweep import run_theta_sweep
from repro.stream.checkpoint import restore_run
from repro.stream.processor import ContinuousStreamProcessor


#: Small but non-trivial shared workload (a few hundred events, real window).
SETTINGS = ExperimentSettings(dataset="nyc_taxi", scale=0.1, max_events=120, n_checkpoints=4)

#: All five SliceNStitch variants plus two periodic baselines.
ALL_METHODS = (
    "sns_rnd_plus",
    "sns_vec_plus",
    "sns_rnd",
    "sns_vec",
    "sns_mat",
    "als",
    "online_scp",
)


@pytest.fixture(scope="module")
def prepared():
    """One shared prepared experiment for the whole module."""
    return prepare_experiment(SETTINGS)


@pytest.fixture(scope="module")
def snapshot(prepared):
    stream, _, window_config, initial, _ = prepared
    return ExperimentSnapshot(stream, window_config, initial)


def _assert_method_results_equal(sequential, parallel):
    assert parallel.fitness_series == sequential.fitness_series
    assert parallel.checkpoint_times == sequential.checkpoint_times
    assert parallel.final_fitness == sequential.final_fitness
    assert parallel.n_events == sequential.n_events
    assert parallel.n_updates == sequential.n_updates
    assert parallel.n_parameters == sequential.n_parameters
    assert parallel.kind == sequential.kind


class TestRunExperimentEquivalence:
    def test_all_methods_parallel_equals_sequential(self, tmp_path):
        """5 variants + 2 baselines: fitness series AND final factors match."""
        sequential = run_experiment(
            dataclasses.replace(SETTINGS, checkpoint_dir=str(tmp_path / "seq")),
            ALL_METHODS,
        )
        parallel = run_experiment(
            dataclasses.replace(
                SETTINGS, checkpoint_dir=str(tmp_path / "par"), n_workers=4
            ),
            ALL_METHODS,
        )
        assert parallel.initial_fitness == sequential.initial_fitness
        for method in ALL_METHODS:
            _assert_method_results_equal(
                sequential.methods[method], parallel.methods[method]
            )
        # Final factors: both runs checkpointed every continuous method under
        # <dir>/<method> (the shared layout); the saved models must agree
        # exactly.
        for method in ALL_METHODS:
            if sequential.methods[method].kind != "continuous":
                continue
            _, seq_model, _ = restore_run(tmp_path / "seq" / method)
            _, par_model, _ = restore_run(tmp_path / "par" / method)
            for seq_factor, par_factor in zip(seq_model.factors, par_model.factors):
                assert (np.asarray(seq_factor) == np.asarray(par_factor)).all()

    def test_relaxed_parallel_equals_sequential(self):
        methods = ("sns_rnd_plus", "als")
        relaxed = dataclasses.replace(SETTINGS, relaxed=True)
        sequential = run_experiment(relaxed, methods)
        parallel = run_experiment(
            dataclasses.replace(relaxed, n_workers=2), methods
        )
        for method in methods:
            _assert_method_results_equal(
                sequential.methods[method], parallel.methods[method]
            )


class TestCrashRecovery:
    def test_killed_worker_fails_the_run_and_resume_continues_it(
        self, prepared, snapshot, tmp_path, monkeypatch, kill_after_first_save
    ):
        stream, spec, window_config, initial, _ = prepared
        kwargs = dict(rank=spec.rank, max_events=120, fitness_every=30)
        reference = run_method(
            stream, window_config, "sns_vec_plus", initial_factors=initial,
            checkpoint_dir=tmp_path / "reference", **kwargs,
        )
        tasks = [
            method_task("victim", "sns_vec_plus", checkpoint_events=40, **kwargs),
            method_task("bystander", "sns_vec", checkpoint_events=40, **kwargs),
        ]
        work_dir = tmp_path / "pool"
        kill_after_first_save("victim")
        with pytest.raises(WorkerError, match="victim") as failure:
            run_tasks(snapshot, tasks, work_dir=work_dir, n_workers=2)
        assert str(work_dir) in str(failure.value)
        assert multiprocessing.active_children() == []
        # The victim died right after its first periodic save.
        _, _, extra = restore_run(work_dir / "victim" / "sns_vec_plus")
        assert extra["n_events"] == 40

        monkeypatch.undo()
        results = run_tasks(
            snapshot, tasks, work_dir=work_dir, n_workers=2, resume=True
        )
        # Per-event engine: the whole series (not just the final value)
        # matches the uninterrupted run, and so do the saved factors.
        _assert_method_results_equal(reference, results["victim"])
        assert results["bystander"].n_events == 120
        _, reference_model, _ = restore_run(tmp_path / "reference" / "sns_vec_plus")
        _, model, extra = restore_run(work_dir / "victim" / "sns_vec_plus")
        assert extra["n_events"] == 120
        for expected, factor in zip(reference_model.factors, model.factors):
            assert np.array_equal(expected, factor)

    def test_fresh_run_ignores_stale_results_and_checkpoints(
        self, prepared, snapshot, tmp_path
    ):
        # A reused work dir (say, a checkpoint_dir from an earlier experiment
        # with a different event budget) must not leak its checkpoints into
        # a fresh (resume=False) run.
        spec = prepared[1]
        work_dir = tmp_path / "pool"
        task = method_task(
            "t", "sns_vec", rank=spec.rank, max_events=80, fitness_every=40
        )
        # Earlier run: different budget, leaves a finished checkpoint.
        stale_task = method_task(
            "t", "sns_vec", rank=spec.rank, max_events=40, fitness_every=40
        )
        run_tasks(snapshot, [stale_task], work_dir=work_dir, n_workers=2)
        fresh = run_tasks(snapshot, [task], work_dir=work_dir, n_workers=2)
        assert fresh["t"].n_events == 80  # not the stale 40-event outcome
        _, model, extra = restore_run(work_dir / "t" / "sns_vec")
        assert extra["n_events"] == 80  # the stale checkpoint was replaced

    def test_resume_with_larger_budget_continues_instead_of_reusing(
        self, prepared, snapshot, tmp_path
    ):
        # A finished run's checkpoint continues to a resumed run's larger
        # max_events, exactly like a sequential resume.
        stream, spec, window_config, initial, _ = prepared
        work_dir = tmp_path / "pool"
        short = method_task(
            "t", "sns_vec_plus", rank=spec.rank, max_events=60, fitness_every=30
        )
        run_tasks(snapshot, [short], work_dir=work_dir, n_workers=2)
        longer = method_task(
            "t", "sns_vec_plus", rank=spec.rank, max_events=120, fitness_every=30
        )
        results = run_tasks(
            snapshot, [longer], work_dir=work_dir, n_workers=2, resume=True
        )
        reference = run_method(
            stream, window_config, "sns_vec_plus",
            initial_factors=initial, rank=spec.rank,
            max_events=120, fitness_every=30,
        )
        _assert_method_results_equal(reference, results["t"])


class TestSchedulerEdges:
    def test_duplicate_task_keys_rejected(self, prepared, snapshot):
        spec = prepared[1]
        tasks = [
            method_task("same", "sns_vec", rank=spec.rank),
            method_task("same", "sns_mat", rank=spec.rank),
        ]
        for n_workers in (1, 2):
            with pytest.raises(ConfigurationError, match="duplicate"):
                run_tasks(snapshot, tasks, n_workers=n_workers)

    def test_invalid_keys_and_kinds_rejected(self):
        with pytest.raises(ConfigurationError, match="path-free"):
            ExperimentTask(key="a/b")
        with pytest.raises(ConfigurationError, match="path-free"):
            ExperimentTask(key="")
        with pytest.raises(ConfigurationError, match="kind"):
            ExperimentTask(key="ok", kind="nonsense")

    def test_nonpositive_workers_rejected(self, prepared, snapshot):
        task = method_task("t", "sns_vec", rank=prepared[1].rank)
        with pytest.raises(ConfigurationError, match="n_workers"):
            run_tasks(snapshot, [task], n_workers=0)

    def test_one_worker_runs_in_process(self, prepared, snapshot, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("n_workers=1 started a process pool")

        monkeypatch.setattr("multiprocessing.get_context", no_pool)
        task = method_task(
            "t", "sns_vec", rank=prepared[1].rank, max_events=40, fitness_every=20
        )
        results = run_tasks(snapshot, [task], n_workers=1)
        assert results["t"].fitness_series == (
            execute_task(snapshot, task).fitness_series
        )

    def test_task_error_reaches_the_caller_as_itself(self, prepared, snapshot):
        task = method_task("t", "sns_typo", rank=prepared[1].rank)
        for n_workers in (1, 2):
            with pytest.raises(ConfigurationError, match="sns_typo"):
                run_tasks(snapshot, [task], n_workers=n_workers)
            assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        START_METHOD != "fork", reason="pool workers inherit the patch only by fork"
    )
    def test_fan_out_without_a_checkpoint_dir_writes_no_checkpoint(
        self, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a run without checkpoint_dir saved a checkpoint")

        monkeypatch.setattr(ContinuousStreamProcessor, "save_checkpoint", refuse)
        result = run_experiment(
            dataclasses.replace(SETTINGS, n_workers=2), ("sns_vec", "sns_rnd")
        )
        assert result.methods["sns_vec"].n_events == SETTINGS.max_events

    def test_spawn_start_method_is_supported(
        self, prepared, snapshot, tmp_path, monkeypatch
    ):
        """Workers must stay spawn-safe: spawn is the only start method on
        platforms without fork, and it pickles the snapshot."""
        monkeypatch.setattr("repro.experiments.parallel.START_METHOD", "spawn")
        kwargs = dict(rank=prepared[1].rank, max_events=40, fitness_every=20)
        tasks = [
            method_task("vec", "sns_vec", **kwargs),
            method_task("rnd", "sns_rnd", **kwargs),
        ]
        results = run_tasks(
            snapshot, tasks, work_dir=tmp_path / "pool", n_workers=2
        )
        for task in tasks:
            in_process = execute_task(snapshot, task)
            spawned = results[task.key]
            assert spawned.fitness_series == in_process.fitness_series
            assert spawned.final_fitness == in_process.final_fitness


class TestSweepFanOut:
    """Each sweep's parallel path must reproduce its sequential results."""

    def test_eta_sweep(self):
        kwargs = dict(methods=("sns_vec_plus",), etas=(100.0, 1000.0))
        small = dataclasses.replace(SETTINGS, max_events=60, n_checkpoints=3)
        sequential = run_eta_sweep(small, **kwargs)
        parallel = run_eta_sweep(
            dataclasses.replace(small, n_workers=2), **kwargs
        )
        assert parallel.etas == sequential.etas
        assert parallel.relative_fitness == sequential.relative_fitness

    def test_theta_sweep(self):
        kwargs = dict(methods=("sns_rnd",), fractions=(0.5, 1.0))
        small = dataclasses.replace(SETTINGS, max_events=60, n_checkpoints=3)
        sequential = run_theta_sweep(small, **kwargs)
        parallel = run_theta_sweep(
            dataclasses.replace(small, n_workers=2), **kwargs
        )
        assert parallel.thetas == sequential.thetas
        assert parallel.relative_fitness == sequential.relative_fitness
        # update_microseconds is wall-clock and may differ; shape must not.
        assert {
            method: len(series)
            for method, series in parallel.update_microseconds.items()
        } == {
            method: len(series)
            for method, series in sequential.update_microseconds.items()
        }

    def test_scalability(self):
        kwargs = dict(methods=("sns_vec",), event_counts=(40, 80))
        small = dataclasses.replace(SETTINGS, max_events=80)
        sequential = run_scalability(small, **kwargs)
        parallel = run_scalability(
            dataclasses.replace(small, n_workers=2), **kwargs
        )
        assert parallel.event_counts == sequential.event_counts
        assert set(parallel.total_seconds) == set(sequential.total_seconds)
        assert all(
            seconds > 0.0
            for series in parallel.total_seconds.values()
            for seconds in series
        )

    def test_granularity(self):
        kwargs = dict(divisors=(2, 1), als_iterations=3)
        small = dataclasses.replace(SETTINGS, max_events=60, n_checkpoints=3)
        sequential = run_granularity(small, **kwargs)
        parallel = run_granularity(
            dataclasses.replace(small, n_workers=2), **kwargs
        )
        for seq_point, par_point in zip(
            sequential.conventional(), parallel.conventional()
        ):
            assert par_point.update_interval == seq_point.update_interval
            assert par_point.fitness == seq_point.fitness
            assert par_point.n_parameters == seq_point.n_parameters
        assert parallel.continuous().fitness == sequential.continuous().fitness

    def test_tasks_that_never_checkpoint_leave_no_directory(self, tmp_path):
        # Fig. 1's conventional-CPD points are batch fits with no run state;
        # only the continuous method's replay writes a checkpoint.
        small = dataclasses.replace(
            SETTINGS,
            max_events=60,
            n_checkpoints=3,
            n_workers=2,
            checkpoint_dir=str(tmp_path),
        )
        run_granularity(small, divisors=(2, 1), als_iterations=3)
        for divisor in (2, 1):
            assert not (tmp_path / f"conventional@divisor={divisor}").exists()
        assert sorted(
            path.name for path in tmp_path.iterdir() if path.is_dir()
        ) == ["continuous"]
        assert not list(tmp_path.rglob("*.result.json"))
