"""Parallel experiment fan-out: equivalence, crash recovery, scheduler edges.

The contract under test: ``n_workers > 1`` changes *wall-clock shape only* —
every method replay is a deterministic function of the prepared experiment
(handed to each worker as a process argument) and the task parameters, so
fitness series, final factors, and event counts are identical to the
sequential run; and a worker killed mid-task is resumed from its
crash-recovery checkpoint, not restarted.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, WorkerError
from repro.experiments.config import ExperimentSettings
from repro.experiments.eta_sweep import run_eta_sweep
from repro.experiments.granularity import run_granularity
from repro.experiments.parallel import (
    FAULT_ENV,
    RESULT_SUFFIX,
    ExperimentSnapshot,
    ExperimentTask,
    execute_task,
    method_result_from_payload,
    method_task,
    run_tasks,
    task_fingerprint,
)
from repro.experiments.runner import prepare_experiment, run_experiment, run_method
from repro.experiments.scalability import run_scalability
from repro.experiments.theta_sweep import run_theta_sweep
from repro.stream.checkpoint import restore_run

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
    def test_killed_worker_task_is_resumed_not_restarted(
        self, prepared, snapshot, tmp_path, monkeypatch
    ):
        stream, spec, window_config, initial, _ = prepared
        kwargs = dict(rank=spec.rank, max_events=120, fitness_every=30)
        reference = run_method(
            stream, window_config, "sns_vec_plus", initial_factors=initial, **kwargs
        )
        # The fault hook kills the worker after 120/2 events on the *first*
        # attempt only; a scheduler that restarted (resume=False) instead of
        # resuming would crash again and exhaust a budget of one failure.
        monkeypatch.setenv(FAULT_ENV, "victim:60")
        monkeypatch.setattr("repro.experiments.parallel.MAX_TASK_FAILURES", 1)
        task = method_task("victim", "sns_vec_plus", **kwargs)
        payloads = run_tasks(
            snapshot, [task], work_dir=tmp_path / "pool", n_workers=2
        )
        result = method_result_from_payload(payloads["victim"])
        # Per-event engine + crash on a fitness-cadence multiple: the whole
        # series (not just the final value) must match the uninterrupted run.
        _assert_method_results_equal(reference, result)
        # The task's lifetime checkpoint reflects the full resumed run.
        _, model, extra = restore_run(tmp_path / "pool" / "victim" / "sns_vec_plus")
        assert extra["n_events"] == 120
        assert model.n_updates == 120

    def test_failure_budget_exhausted_raises_and_leaves_checkpoint(
        self, prepared, snapshot, tmp_path, monkeypatch
    ):
        spec = prepared[1]
        monkeypatch.setenv(FAULT_ENV, "victim:40")
        monkeypatch.setattr("repro.experiments.parallel.MAX_TASK_FAILURES", 0)
        task = method_task(
            "victim", "sns_vec", rank=spec.rank, max_events=120, fitness_every=30
        )
        with pytest.raises(WorkerError, match="victim"):
            run_tasks(snapshot, [task], work_dir=tmp_path / "pool", n_workers=2)
        # The failed attempt still persisted a resumable checkpoint.
        _, model, extra = restore_run(tmp_path / "pool" / "victim" / "sns_vec")
        assert extra["n_events"] == 40
        assert model.n_updates == 40

    def test_fresh_run_ignores_stale_results_and_checkpoints(
        self, prepared, snapshot, tmp_path
    ):
        # A reused work dir (say, a checkpoint_dir from an earlier experiment
        # with a different event budget) must not leak its results or
        # checkpoints into a fresh (resume=False) run.
        spec = prepared[1]
        work_dir = tmp_path / "pool"
        task = method_task(
            "t", "sns_vec", rank=spec.rank, max_events=80, fitness_every=40
        )
        # Earlier run: different budget, leaves result + finished checkpoint.
        stale_task = method_task(
            "t", "sns_vec", rank=spec.rank, max_events=40, fitness_every=40
        )
        run_tasks(snapshot, [stale_task], work_dir=work_dir, n_workers=2)
        fresh = run_tasks(snapshot, [task], work_dir=work_dir, n_workers=2)
        result = method_result_from_payload(fresh["t"])
        assert result.n_events == 80  # not the stale 40-event outcome
        _, model, extra = restore_run(work_dir / "t" / "sns_vec")
        assert extra["n_events"] == 80  # stale checkpoint was cleared too

    def test_resume_trusts_matching_result_files(
        self, prepared, snapshot, tmp_path
    ):
        spec = prepared[1]
        work_dir = tmp_path / "pool"
        work_dir.mkdir()
        task = method_task(
            "done", "sns_vec", rank=spec.rank, max_events=40, fitness_every=20
        )
        sentinel = {
            "task_kind": "method",
            "sentinel": True,
            "task_fingerprint": task_fingerprint(task),
        }
        (work_dir / f"done{RESULT_SUFFIX}").write_text(json.dumps(sentinel))
        payloads = run_tasks(
            snapshot, [task], work_dir=work_dir, n_workers=2, resume=True
        )
        # The pre-existing matching result was adopted; the task never re-ran.
        assert payloads["done"] == sentinel

    def test_result_fingerprinted_with_an_engine_flag_is_rerun(
        self, prepared, snapshot, tmp_path
    ):
        # Result files written while tasks carried a `batched` parameter
        # match no task now: resume re-runs the task, with the same result.
        stream, spec, window_config, initial, _ = prepared
        work_dir = tmp_path / "pool"
        work_dir.mkdir()
        task = method_task(
            "old", "sns_vec", rank=spec.rank, max_events=40, fitness_every=20
        )
        fingerprint = task_fingerprint(task)
        fingerprint["params"]["batched"] = False
        stale = {
            "task_kind": "method",
            "sentinel": True,
            "task_fingerprint": fingerprint,
        }
        (work_dir / f"old{RESULT_SUFFIX}").write_text(json.dumps(stale))
        payloads = run_tasks(
            snapshot, [task], work_dir=work_dir, n_workers=2, resume=True
        )
        assert "sentinel" not in payloads["old"]
        assert payloads["old"]["task_fingerprint"] == task_fingerprint(task)
        reference = run_method(
            stream, window_config, "sns_vec",
            initial_factors=initial, rank=spec.rank,
            max_events=40, fitness_every=20,
        )
        _assert_method_results_equal(
            reference, method_result_from_payload(payloads["old"])
        )

    def test_resume_with_larger_budget_continues_instead_of_reusing(
        self, prepared, snapshot, tmp_path
    ):
        # A finished run's result file must not satisfy a resumed run with a
        # larger max_events: the task re-executes and continues from its
        # checkpoint, exactly like a sequential resume.
        stream, spec, window_config, initial, _ = prepared
        work_dir = tmp_path / "pool"
        short = method_task(
            "t", "sns_vec_plus", rank=spec.rank, max_events=60, fitness_every=30
        )
        run_tasks(snapshot, [short], work_dir=work_dir, n_workers=2)
        longer = method_task(
            "t", "sns_vec_plus", rank=spec.rank, max_events=120, fitness_every=30
        )
        payloads = run_tasks(
            snapshot, [longer], work_dir=work_dir, n_workers=2, resume=True
        )
        result = method_result_from_payload(payloads["t"])
        reference = run_method(
            stream, window_config, "sns_vec_plus",
            initial_factors=initial, rank=spec.rank,
            max_events=120, fitness_every=30,
        )
        _assert_method_results_equal(reference, result)


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
        payloads = run_tasks(snapshot, [task], n_workers=1)
        assert payloads["t"]["fitness_series"] == (
            execute_task(snapshot, task)["fitness_series"]
        )

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
        payloads = run_tasks(
            snapshot, tasks, work_dir=tmp_path / "pool", n_workers=2
        )
        for task in tasks:
            in_process = execute_task(snapshot, task)
            spawned = payloads[task.key]
            assert spawned["fitness_series"] == in_process["fitness_series"]
            assert spawned["final_fitness"] == in_process["final_fitness"]


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
            key = f"conventional@divisor={divisor}"
            assert (tmp_path / f"{key}{RESULT_SUFFIX}").is_file()
            assert not (tmp_path / key).exists()
        assert sorted(
            path.name for path in tmp_path.iterdir() if path.is_dir()
        ) == ["continuous"]
