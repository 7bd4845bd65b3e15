"""Process-pool fan-out of independent experiment tasks over one preparation.

The paper's evaluation replays the same event stream against ~10 methods and
many sweep points, and every one of those replays is independent once the
shared preparation (dataset generation, window bootstrap, ALS initialisation)
is done.  This module turns that independence into wall-clock speed:

1. The parent prepares the experiment **once**: an :class:`ExperimentSnapshot`
   holds the stream, the window configuration and the ALS initial factors.
2. :func:`run_tasks` runs the :class:`ExperimentTask` list on a
   :class:`~concurrent.futures.ProcessPoolExecutor`.  The pool's initializer
   hands every worker the snapshot — inherited under ``fork``, pickled
   (bit-exactly) under ``spawn`` — so no worker regenerates data or reruns
   ALS, and nothing is written to disk for the handover.  Each task's result
   object comes back through the pool.
3. A task's own error reaches the caller as itself.  A worker that dies
   fails the run with :class:`~repro.exceptions.WorkerError`; every method
   task checkpoints under ``work_dir/<task>`` when a work dir is given, so a
   rerun with ``resume=True`` continues the unfinished tasks — the same
   ``--resume`` path a sequential run takes.

``n_workers=1`` starts no process: tasks execute in-process, in order, with
the parent's live objects.  Because every ``run_method`` replay is a
deterministic function of the snapshot and the task parameters, the parallel
results are identical to the sequential ones for every method — fitness
series, final factors, everything except wall-clock timings.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
from collections.abc import Sequence
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.exceptions import ConfigurationError, WorkerError
from repro.stream.stream import MultiAspectStream
from repro.stream.window import WindowConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.experiments.granularity import GranularityPoint
    from repro.experiments.runner import MethodResult

#: How worker processes start: fork is much cheaper (no per-worker
#: re-import of numpy); the workers are spawn-safe, and spawn is the only
#: choice on platforms without fork.
START_METHOD = (
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)


@dataclasses.dataclass(frozen=True, slots=True)
class ExperimentSnapshot:
    """A prepared experiment: what every task replays from.

    The stream, the window configuration and the shared initial factors
    (a :class:`~repro.tensor.kruskal.KruskalTensor` or a sequence of factor
    matrices).  Pool workers receive it through the pool's initializer, so
    a worker's ``run_method`` outcome is identical to an in-process run.
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
        Unique, filesystem-safe identifier: the key of the task's result
        and, by default, its checkpoint directory under the work dir.
    kind:
        ``"method"`` (a :func:`repro.experiments.runner.run_method` replay) or
        ``"conventional_cpd"`` (a batch-ALS granularity point, Fig. 1).
    params:
        Keyword arguments of ``run_method`` (see :func:`method_task`) or of
        :func:`repro.experiments.granularity.conventional_point`, per
        ``kind``.
    checkpoint_subdir:
        Directory under the work dir for this task's run checkpoints.
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
) -> MethodResult | GranularityPoint:
    """Run one task against a prepared experiment and return its result.

    A ``"method"`` task returns its
    :class:`~repro.experiments.runner.MethodResult`, a
    ``"conventional_cpd"`` task its
    :class:`~repro.experiments.granularity.GranularityPoint`.  ``cache``
    (optional) lets a caller running many tasks against one snapshot share
    derived state — the granularity experiment builds its coarse scoring
    window once, not per divisor.
    """
    if task.kind == "method":
        # Local import: runner imports this module.
        from repro.experiments.runner import run_method

        return run_method(
            snapshot.stream,
            snapshot.window_config,
            initial_factors=snapshot.initial_factors,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            **task.params,
        )
    from repro.experiments.granularity import _initial_window, conventional_point

    coarse_window = None
    if cache is not None:
        coarse_window = cache.get("coarse_window")
        if coarse_window is None:
            coarse_window = _initial_window(snapshot.stream, snapshot.window_config)
            cache["coarse_window"] = coarse_window
    return conventional_point(
        snapshot.stream,
        snapshot.window_config,
        coarse_window=coarse_window,
        **task.params,
    )


#: A pool worker's snapshot, set by the pool's initializer.
_worker_snapshot: ExperimentSnapshot | None = None


def _adopt_snapshot(snapshot: ExperimentSnapshot) -> None:
    """Pool initializer: keep the snapshot for every task this worker runs."""
    global _worker_snapshot
    _worker_snapshot = snapshot


def _execute_in_worker(
    task: ExperimentTask, checkpoint_dir: Path | None, resume: bool
) -> MethodResult | GranularityPoint:
    return execute_task(_worker_snapshot, task, checkpoint_dir, resume)


def _task_checkpoint_dir(
    work_dir: str | Path | None, task: ExperimentTask
) -> Path | None:
    if work_dir is None:
        return None
    subdir = task.checkpoint_subdir if task.checkpoint_subdir is not None else task.key
    return Path(work_dir) / subdir


def _validate_tasks(tasks: Sequence[ExperimentTask]) -> None:
    keys = [task.key for task in tasks]
    duplicates = {key for key in keys if keys.count(key) > 1}
    if duplicates:
        raise ConfigurationError(f"duplicate task keys: {sorted(duplicates)}")


def run_tasks(
    snapshot: ExperimentSnapshot,
    tasks: Sequence[ExperimentTask],
    *,
    n_workers: int = 1,
    work_dir: str | Path | None = None,
    resume: bool = False,
) -> dict[str, MethodResult | GranularityPoint]:
    """Run ``tasks`` against ``snapshot`` and return their results by key.

    Method tasks checkpoint under ``work_dir`` when it is given, and with
    ``resume=True`` continue from the checkpoints found there.
    ``n_workers=1`` executes every task in this process, in order, against
    the live objects.  ``n_workers>1`` runs them on a pool of that many
    worker processes (at most one per task), each handed ``snapshot`` by
    the pool's initializer.  A task's exception reaches the caller as
    itself; a worker that dies raises :class:`~repro.exceptions.WorkerError`
    naming the unfinished tasks, which a rerun with ``resume=True``
    continues.  On any error the tasks that have not started are
    cancelled, and no worker process outlives the call.
    """
    _validate_tasks(tasks)
    if n_workers < 1:
        raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
    if n_workers == 1 or not tasks:
        cache: dict[str, Any] = {}
        return {
            task.key: execute_task(
                snapshot, task, _task_checkpoint_dir(work_dir, task), resume, cache
            )
            for task in tasks
        }
    pool = ProcessPoolExecutor(
        min(n_workers, len(tasks)),
        mp_context=multiprocessing.get_context(START_METHOD),
        initializer=_adopt_snapshot,
        initargs=(snapshot,),
    )
    futures: dict[str, Future] = {}
    try:
        for task in tasks:
            futures[task.key] = pool.submit(
                _execute_in_worker, task, _task_checkpoint_dir(work_dir, task), resume
            )
        for future in as_completed(futures.values()):
            future.result()
    except BrokenProcessPool as error:
        # A broken pool fails every task it had not finished.
        finished = {key for key, future in futures.items() if future.exception() is None}
        unfinished = [task.key for task in tasks if task.key not in finished]
        how = (
            "rerun with resume=True (--resume) to continue them from their "
            f"checkpoints under {work_dir}"
            if work_dir is not None
            else "they kept no checkpoint, so a rerun starts them over"
        )
        raise WorkerError(
            f"a worker process died; task(s) {unfinished} did not finish — {how}"
        ) from error
    finally:
        pool.shutdown(cancel_futures=True)
    return {key: future.result() for key, future in futures.items()}
