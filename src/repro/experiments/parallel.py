"""Process-pool fan-out of independent experiment tasks over a shared snapshot.

The paper's evaluation replays the same event stream against ~10 methods and
many sweep points, and every one of those replays is independent once the
shared preparation (dataset generation, window bootstrap, ALS initialisation)
is done.  This module turns that independence into wall-clock speed:

1. The parent prepares the experiment **once** and persists the prepared
   state — stream records, window configuration, ALS initial factors — as an
   experiment snapshot (:func:`repro.stream.checkpoint.save_experiment_snapshot`).
2. Worker processes rehydrate the snapshot (bit-identical: records and
   factors round-trip through float64 npz arrays exactly) and run one
   :class:`ExperimentTask` each, writing the outcome as a JSON result file.
3. The pool scheduler (:func:`run_tasks`) keeps ``n_workers`` processes busy
   and implements crash recovery: every method task checkpoints its run state
   under ``work_dir/<task>`` (the existing :mod:`repro.stream.checkpoint`
   machinery), so a failed or killed worker's task is **resumed** from its
   last checkpoint — not restarted — on the next attempt.

``n_workers=1`` never forks: tasks execute in-process, in order, with the
parent's live objects, so the sequential default stays bit-identical to the
pre-parallel code path.  Because every ``run_method`` replay is a
deterministic function of the snapshot and the task parameters, the parallel
results are identical to the sequential ones for every method — fitness
series, final factors, everything except wall-clock timings.

Separation of concerns follows staged least-squares pipelines: each
sub-problem (one method × sweep point × event budget) is solved in an
isolated process from the same shared initialisation, and the parent merges
the per-task payloads deterministically by task key.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import shutil
import sys
import tempfile
import time
import traceback
from collections import deque
from collections.abc import Sequence
from pathlib import Path
from typing import Any

from repro.exceptions import ConfigurationError, WorkerError
from repro.stream.checkpoint import (
    ExperimentSnapshot,
    load_experiment_snapshot,
    save_experiment_snapshot,
)
from repro.stream.stream import MultiAspectStream
from repro.stream.window import WindowConfig

#: Directory (under the pool's work dir) holding the shared snapshot.
SNAPSHOT_DIRNAME = "_snapshot"

#: Suffix of the per-task result payload files.
RESULT_SUFFIX = ".result.json"

#: Exit code used by the fault-injection hook (see :data:`FAULT_ENV`).
FAULT_EXIT_CODE = 70

#: Test/CI hook: ``"<task key>:<events>[,<task key>:<events>...]"``.  A worker
#: whose task key matches — and that is *not* already resuming — replays only
#: that many events (leaving a real on-disk checkpoint) and then dies hard,
#: simulating a mid-run worker kill.  The scheduler's retry then exercises the
#: genuine resume path.  Never set outside tests / the CI smoke job.
FAULT_ENV = "REPRO_PARALLEL_FAIL"

#: Environment override for the multiprocessing start method.
START_METHOD_ENV = "REPRO_PARALLEL_START_METHOD"


@dataclasses.dataclass(frozen=True)
class ExperimentTask:
    """One unit of fan-out work: a method replay or a conventional-CPD fit.

    Attributes
    ----------
    key:
        Unique, filesystem-safe identifier; names the task's checkpoint
        directory and result file under the pool's work dir.
    kind:
        ``"method"`` (a :func:`repro.experiments.runner.run_method` replay) or
        ``"conventional_cpd"`` (a batch-ALS granularity point, Fig. 1).
    params:
        JSON-serializable task parameters, interpreted per ``kind``.
    checkpoint_subdir:
        Directory under the pool work dir for this task's run checkpoints.
        ``None`` (default) uses ``key``; ``""`` uses the work dir itself —
        :func:`repro.experiments.runner.run_experiment` uses that to keep the
        ``<checkpoint_dir>/<method>`` layout identical to sequential runs.
    """

    key: str
    kind: str = "method"
    params: dict[str, Any] = dataclasses.field(default_factory=dict)
    checkpoint_subdir: str | None = None

    def __post_init__(self) -> None:
        if not self.key or self.key != os.path.basename(self.key) or self.key.startswith("."):
            raise ConfigurationError(
                f"task key {self.key!r} must be a non-empty, path-free name"
            )
        if self.kind not in ("method", "conventional_cpd"):
            raise ConfigurationError(f"unknown task kind {self.kind!r}")


def method_task(
    key: str,
    method: str,
    *,
    rank: int,
    theta: int = 20,
    eta: float = 1000.0,
    max_events: int = 3000,
    fitness_every: int = 150,
    seed: int | None = 0,
    batched: bool = False,
    relaxed: bool = False,
    checkpoint_events: int | None = None,
    checkpoint_subdir: str | None = None,
) -> ExperimentTask:
    """Build a ``run_method`` replay task (method × hyper-parameters × budget)."""
    return ExperimentTask(
        key=key,
        kind="method",
        params={
            "method": method,
            "rank": int(rank),
            "theta": int(theta),
            "eta": float(eta),
            "max_events": int(max_events),
            "fitness_every": int(fitness_every),
            "seed": seed,
            "batched": bool(batched),
            "relaxed": bool(relaxed),
            "checkpoint_events": checkpoint_events,
        },
        checkpoint_subdir=checkpoint_subdir,
    )


def execute_task(
    snapshot: ExperimentSnapshot,
    task: ExperimentTask,
    checkpoint_dir: str | Path | None = None,
    resume: bool = False,
    cache: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Run one task against a (rehydrated or in-memory) snapshot.

    Returns a JSON-serializable payload; :func:`method_result_from_payload`
    turns a ``"method"`` payload back into a
    :class:`~repro.experiments.runner.MethodResult`.  ``cache`` (optional)
    lets a caller running many tasks against one snapshot share derived
    state — the in-process sequential loop uses it so the granularity
    experiment builds its coarse scoring window once, not per divisor.
    """
    if task.kind == "method":
        # Local import: runner imports this module lazily for the same reason.
        from repro.experiments.runner import run_method

        params = task.params
        result = run_method(
            snapshot.stream,
            snapshot.window_config,
            params["method"],
            initial_factors=snapshot.initial_factors,
            rank=params["rank"],
            theta=params.get("theta", 20),
            eta=params.get("eta", 1000.0),
            max_events=params.get("max_events", 3000),
            fitness_every=params.get("fitness_every", 150),
            seed=params.get("seed", 0),
            batched=params.get("batched", False),
            relaxed=params.get("relaxed", False),
            checkpoint_dir=checkpoint_dir,
            checkpoint_events=(
                params.get("checkpoint_events") if checkpoint_dir is not None else None
            ),
            resume=resume and checkpoint_dir is not None,
        )
        payload = dataclasses.asdict(result)
        payload["task_kind"] = "method"
        payload["task_fingerprint"] = task_fingerprint(task)
        return payload
    if task.kind == "conventional_cpd":
        from repro.experiments.granularity import _initial_window, conventional_point

        coarse_window = None
        if cache is not None:
            coarse_window = cache.get("coarse_window")
            if coarse_window is None:
                coarse_window = _initial_window(
                    snapshot.stream, snapshot.window_config
                )
                cache["coarse_window"] = coarse_window
        params = task.params
        point = conventional_point(
            snapshot.stream,
            snapshot.window_config,
            divisor=params["divisor"],
            rank=params["rank"],
            als_iterations=params.get("als_iterations", 10),
            seed=params.get("seed", 0),
            coarse_window=coarse_window,
        )
        payload = dataclasses.asdict(point)
        payload["task_kind"] = "conventional_cpd"
        payload["task_fingerprint"] = task_fingerprint(task)
        return payload
    raise ConfigurationError(f"unknown task kind {task.kind!r}")


def task_fingerprint(task: ExperimentTask) -> dict[str, Any]:
    """The parameters a stored result payload must match to be reusable.

    Everything in it is JSON-scalar, so it round-trips through the result
    file exactly and an equality check against a freshly built fingerprint
    is reliable.
    """
    return {"kind": task.kind, "params": dict(task.params)}


def method_result_from_payload(payload: dict[str, Any]) -> Any:
    """Rebuild a :class:`MethodResult` from a ``"method"`` task payload."""
    from repro.experiments.runner import MethodResult

    return MethodResult(
        **{field.name: payload[field.name] for field in dataclasses.fields(MethodResult)}
    )


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _fault_events(task_key: str) -> int | None:
    """Parse the fault-injection spec for ``task_key`` (test hook)."""
    spec = os.environ.get(FAULT_ENV, "")
    for part in spec.split(","):
        if not part:
            continue
        key, _, events = part.rpartition(":")
        if key == task_key:
            return int(events)
    return None


def _write_json_atomic(path: Path, payload: dict[str, Any]) -> None:
    temp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    temp.write_text(json.dumps(payload))
    temp.replace(path)


def _worker_main(
    snapshot_path: str,
    task: ExperimentTask,
    checkpoint_dir: str | None,
    result_path: str,
    resume: bool,
) -> None:
    """Entry point of one worker process (spawn-safe: picklable args only).

    Rehydrates the shared snapshot, runs the task, and writes the result
    payload atomically; the presence of the result file is the scheduler's
    success signal, so a worker killed mid-run leaves no half-result behind.
    """
    try:
        snapshot = load_experiment_snapshot(snapshot_path)
        fail_at = None if resume else _fault_events(task.key)
        if fail_at is not None and task.kind == "method":
            # Simulated kill: replay a prefix (run_method leaves its final
            # on-disk checkpoint) and die without writing a result.
            partial = dataclasses.replace(
                task, params={**task.params, "max_events": int(fail_at)}
            )
            execute_task(snapshot, partial, checkpoint_dir=checkpoint_dir, resume=False)
            os._exit(FAULT_EXIT_CODE)
        payload = execute_task(
            snapshot, task, checkpoint_dir=checkpoint_dir, resume=resume
        )
        _write_json_atomic(Path(result_path), payload)
    except BaseException:  # pragma: no cover - exercised via worker exit codes
        traceback.print_exc()
        sys.stderr.flush()
        os._exit(1)


# ----------------------------------------------------------------------
# Pool scheduler
# ----------------------------------------------------------------------
def _resolve_start_method(start_method: str | None) -> str:
    requested = start_method or os.environ.get(START_METHOD_ENV)
    available = multiprocessing.get_all_start_methods()
    if requested is not None:
        if requested not in available:
            raise ConfigurationError(
                f"start method {requested!r} not available (have {available})"
            )
        return requested
    # fork is dramatically cheaper (no per-worker re-import of numpy); the
    # workers are spawn-safe regardless, so platforms without fork still work.
    return "fork" if "fork" in available else "spawn"


def _task_checkpoint_dir(root: Path, task: ExperimentTask) -> Path:
    subdir = task.checkpoint_subdir if task.checkpoint_subdir is not None else task.key
    return root / subdir if subdir else root


def _validate_tasks(tasks: Sequence[ExperimentTask]) -> None:
    keys = [task.key for task in tasks]
    duplicates = {key for key in keys if keys.count(key) > 1}
    if duplicates:
        raise ConfigurationError(f"duplicate task keys: {sorted(duplicates)}")


def _clear_stale_task_state(
    root: Path, task: ExperimentTask, result_path: Path
) -> None:
    """Drop leftovers of an *earlier* pool run before a fresh (non-resume) one.

    Without this, a reused work dir (e.g. a checkpoint_dir from a previous
    experiment with different max_events) could hand a crashed task's retry a
    stale finished checkpoint — run_method's hyper-parameter check does not
    cover the event budget — or let the scheduler adopt a stale result file
    as this run's output.
    """
    result_path.unlink(missing_ok=True)
    if task.kind == "method":
        stale_checkpoint = _task_checkpoint_dir(root, task) / task.params["method"]
        if stale_checkpoint.is_dir():
            shutil.rmtree(stale_checkpoint)


def run_tasks(
    tasks: Sequence[ExperimentTask],
    *,
    snapshot_path: str | Path,
    work_dir: str | Path,
    n_workers: int,
    resume: bool = False,
    max_task_failures: int = 2,
    start_method: str | None = None,
) -> dict[str, dict[str, Any]]:
    """Fan ``tasks`` out over ``n_workers`` processes; return payloads by key.

    Crash recovery: a task whose worker exits without writing its result file
    (crash, ``SIGKILL``, unhandled exception) is re-queued and retried with
    ``resume=True``, so method tasks continue from their last on-disk
    checkpoint under ``work_dir/<task>`` instead of starting over.  A task
    that fails more than ``max_task_failures`` times raises
    :class:`~repro.exceptions.WorkerError`.  With ``resume=True`` result
    files already present in ``work_dir`` are trusted when their stored
    :func:`task_fingerprint` matches the scheduled task (they are written
    atomically), so a killed *parent* can be rerun without redoing finished
    tasks — while a rerun with, say, a larger ``max_events`` correctly
    re-executes and continues from the task checkpoint.
    """
    _validate_tasks(tasks)
    if n_workers < 1:
        raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
    if max_task_failures < 0:
        raise ConfigurationError(
            f"max_task_failures must be >= 0, got {max_task_failures}"
        )
    snapshot_path = str(snapshot_path)
    root = Path(work_dir)
    root.mkdir(parents=True, exist_ok=True)
    context = multiprocessing.get_context(_resolve_start_method(start_method))
    pending: deque[ExperimentTask] = deque(tasks)
    failures: dict[str, int] = {task.key: 0 for task in tasks}
    running: list[tuple[Any, ExperimentTask, Path]] = []
    results: dict[str, dict[str, Any]] = {}
    try:
        while pending or running:
            while pending and len(running) < n_workers:
                task = pending.popleft()
                result_path = root / f"{task.key}{RESULT_SUFFIX}"
                if resume and result_path.is_file():
                    payload = json.loads(result_path.read_text())
                    if payload.get("task_fingerprint") == task_fingerprint(task):
                        results[task.key] = payload
                        continue
                    # The stored result belongs to a different task
                    # configuration (say, a smaller max_events): drop it and
                    # rerun — run_method's own resume path continues from
                    # the task checkpoint, exactly like a sequential resume.
                    result_path.unlink()
                if not resume and failures[task.key] == 0:
                    _clear_stale_task_state(root, task, result_path)
                checkpoint_dir = _task_checkpoint_dir(root, task)
                checkpoint_dir.mkdir(parents=True, exist_ok=True)
                process = context.Process(
                    target=_worker_main,
                    args=(
                        snapshot_path,
                        task,
                        str(checkpoint_dir),
                        str(result_path),
                        resume or failures[task.key] > 0,
                    ),
                    daemon=True,
                )
                process.start()
                running.append((process, task, result_path))
            progressed = False
            still_running: list[tuple[Any, ExperimentTask, Path]] = []
            for process, task, result_path in running:
                if process.is_alive():
                    still_running.append((process, task, result_path))
                    continue
                process.join()
                exitcode = process.exitcode
                progressed = True
                if result_path.is_file():
                    # The result file is written atomically, so its presence
                    # means the task completed even if the worker died on the
                    # way out.
                    results[task.key] = json.loads(result_path.read_text())
                    continue
                failures[task.key] += 1
                if failures[task.key] > max_task_failures:
                    raise WorkerError(
                        f"task {task.key!r} failed {failures[task.key]} time(s) "
                        f"(last worker exit code {exitcode}); its checkpoint — "
                        f"if any — is under {_task_checkpoint_dir(root, task)}"
                    )
                pending.append(task)
            running = still_running
            if not progressed and running:
                time.sleep(0.01)
    finally:
        for process, _, _ in running:
            if process.is_alive():
                process.terminate()
            process.join()
    return results


def run_tasks_over_snapshot(
    stream: MultiAspectStream,
    window_config: WindowConfig,
    initial_factors: Any,
    tasks: Sequence[ExperimentTask],
    *,
    n_workers: int = 1,
    work_dir: str | Path | None = None,
    resume: bool = False,
    extra: Any = None,
    max_task_failures: int = 2,
    start_method: str | None = None,
) -> dict[str, dict[str, Any]]:
    """Run ``tasks`` against a prepared experiment, in-process or fanned out.

    ``n_workers=1`` executes every task in this process, in order, against
    the live objects — no snapshot file, no forking, bit-identical to the
    sequential code it replaces.  ``n_workers>1`` persists the shared
    snapshot (under ``work_dir``, or a temporary directory when ``None``)
    and dispatches to :func:`run_tasks`.
    """
    _validate_tasks(tasks)
    if n_workers < 1:
        raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
    if n_workers == 1:
        snapshot = ExperimentSnapshot(
            stream=stream,
            window_config=window_config,
            initial_factors=initial_factors,
            extra=extra,
        )
        results: dict[str, dict[str, Any]] = {}
        cache: dict[str, Any] = {}
        for task in tasks:
            checkpoint_dir = (
                _task_checkpoint_dir(Path(work_dir), task)
                if work_dir is not None
                else None
            )
            results[task.key] = execute_task(
                snapshot, task, checkpoint_dir=checkpoint_dir, resume=resume,
                cache=cache,
            )
        return results

    def _fan_out(root: Path) -> dict[str, dict[str, Any]]:
        snapshot_path = root / SNAPSHOT_DIRNAME
        save_experiment_snapshot(
            snapshot_path, stream, window_config, initial_factors, extra=extra
        )
        return run_tasks(
            tasks,
            snapshot_path=snapshot_path,
            work_dir=root,
            n_workers=n_workers,
            resume=resume,
            max_task_failures=max_task_failures,
            start_method=start_method,
        )

    if work_dir is None:
        with tempfile.TemporaryDirectory(prefix="repro-parallel-") as scratch:
            return _fan_out(Path(scratch))
    root = Path(work_dir)
    root.mkdir(parents=True, exist_ok=True)
    return _fan_out(root)
