"""Process-pool fan-out of independent experiment tasks over one preparation.

The paper's evaluation replays the same event stream against ~10 methods and
many sweep points, and every one of those replays is independent once the
shared preparation (dataset generation, window bootstrap, ALS initialisation)
is done.  This module turns that independence into wall-clock speed:

1. The parent prepares the experiment **once**: an :class:`ExperimentSnapshot`
   holds the stream, the window configuration and the ALS initial factors.
2. :func:`run_tasks` runs one :class:`ExperimentTask` per worker process,
   handing the snapshot over as a process argument — inherited under
   ``fork``, pickled (bit-exactly) under ``spawn`` — so no worker regenerates
   data or reruns ALS, and nothing is written to disk for the handover.
   Each worker writes its outcome as a JSON result file.
3. The pool keeps ``n_workers`` processes busy and implements crash
   recovery: every method task checkpoints its run state under
   ``work_dir/<task>`` (the :mod:`repro.stream.checkpoint` machinery), so a
   failed or killed worker's task is **resumed** from its last checkpoint —
   not restarted — on the next attempt.

``n_workers=1`` never forks: tasks execute in-process, in order, with the
parent's live objects.  Because every ``run_method`` replay is a
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
from repro.stream.checkpoint import write_json_atomic
from repro.stream.stream import MultiAspectStream
from repro.stream.window import WindowConfig

#: Suffix of the per-task result payload files.
RESULT_SUFFIX = ".result.json"

#: Failed attempts a task may have before :func:`run_tasks` gives up on it.
MAX_TASK_FAILURES = 2

#: How worker processes start: fork is much cheaper (no per-worker
#: re-import of numpy); the workers are spawn-safe, and spawn is the only
#: choice on platforms without fork.
START_METHOD = (
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)

#: Exit code used by the fault-injection hook (see :data:`FAULT_ENV`).
FAULT_EXIT_CODE = 70

#: Test/CI hook: ``"<task key>:<events>[,<task key>:<events>...]"``.  A worker
#: whose task key matches — and that is *not* already resuming — replays only
#: that many events (leaving a real on-disk checkpoint) and then dies hard,
#: simulating a mid-run worker kill.  The scheduler's retry then exercises the
#: genuine resume path.  Never set outside tests / the CI smoke job.
FAULT_ENV = "REPRO_PARALLEL_FAIL"


@dataclasses.dataclass(frozen=True, slots=True)
class ExperimentSnapshot:
    """A prepared experiment: what every task replays from.

    The stream, the window configuration and the shared initial factors
    (a :class:`~repro.tensor.kruskal.KruskalTensor` or a sequence of factor
    matrices).  Workers receive it as a process argument, so a worker's
    ``run_method`` outcome is identical to an in-process run.
    """

    stream: MultiAspectStream
    window_config: WindowConfig
    initial_factors: Any


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
        :func:`repro.experiments.runner.run_sweep` uses that for a point
        keyed by its own method name, so a method roster checkpoints at
        ``<checkpoint_dir>/<method>``.
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
    """Run one task against a prepared experiment.

    Returns a JSON-serializable payload; :func:`method_result_from_payload`
    turns a ``"method"`` payload back into a
    :class:`~repro.experiments.runner.MethodResult`.  ``cache`` (optional)
    lets a caller running many tasks against one snapshot share derived
    state — the in-process sequential loop uses it so the granularity
    experiment builds its coarse scoring window once, not per divisor.
    """
    if task.kind == "method":
        # Local import: runner imports this module.
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


def _worker_main(
    snapshot: ExperimentSnapshot,
    task: ExperimentTask,
    checkpoint_dir: str | None,
    result_path: str,
    resume: bool,
) -> None:
    """Entry point of one worker process (spawn-safe: picklable args only).

    Runs the task and writes the result payload atomically; the presence of
    the result file is the scheduler's success signal, so a worker killed
    mid-run leaves no half-result behind.
    """
    try:
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
        write_json_atomic(Path(result_path), payload)
    except BaseException:  # pragma: no cover - exercised via worker exit codes
        traceback.print_exc()
        sys.stderr.flush()
        os._exit(1)


# ----------------------------------------------------------------------
# Pool scheduler
# ----------------------------------------------------------------------
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
    snapshot: ExperimentSnapshot,
    tasks: Sequence[ExperimentTask],
    *,
    n_workers: int = 1,
    work_dir: str | Path | None = None,
    resume: bool = False,
) -> dict[str, dict[str, Any]]:
    """Run ``tasks`` against ``snapshot``, in-process or fanned out.

    ``n_workers=1`` executes every task in this process, in order, against
    the live objects — no forking, bit-identical to the sequential code.
    Method tasks checkpoint under ``work_dir`` when it is given.

    ``n_workers>1`` fans the tasks out over that many processes, each
    handed ``snapshot`` as a process argument, and returns their payloads
    by key; ``work_dir`` (a temporary directory when ``None``) holds the
    task checkpoints and result files.  Crash recovery: a task whose worker
    exits without writing its result file (crash, ``SIGKILL``, unhandled
    exception) is re-queued and retried with ``resume=True``, so method
    tasks continue from their last on-disk checkpoint under
    ``work_dir/<task>`` instead of starting over.  A task that fails more
    than :data:`MAX_TASK_FAILURES` times raises
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
    results: dict[str, dict[str, Any]] = {}
    if n_workers == 1:
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
    if work_dir is None:
        with tempfile.TemporaryDirectory(prefix="repro-parallel-") as scratch:
            return run_tasks(
                snapshot, tasks, n_workers=n_workers, work_dir=scratch, resume=resume
            )
    root = Path(work_dir)
    root.mkdir(parents=True, exist_ok=True)
    context = multiprocessing.get_context(START_METHOD)
    pending: deque[ExperimentTask] = deque(tasks)
    failures: dict[str, int] = {task.key: 0 for task in tasks}
    running: list[tuple[Any, ExperimentTask, Path]] = []
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
                # Not created here: a method task's checkpoint write makes
                # its own parents, and the other tasks never checkpoint.
                checkpoint_dir = _task_checkpoint_dir(root, task)
                process = context.Process(
                    target=_worker_main,
                    args=(
                        snapshot,
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
                if failures[task.key] > MAX_TASK_FAILURES:
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
