"""Streaming experiment runner shared by all figure/table reproductions.

``run_method`` replays the same stream of window events against one method —
a SliceNStitch variant (updated on *every* event) or a conventional baseline
(updated once per period) — and records fitness checkpoints plus per-update
timing.  ``run_sweep`` runs a list of (method, hyper-parameter) points from
an identical ALS initialisation, reproducing the protocol of Section VI-A;
every figure experiment builds its replays through it.  ``run_experiment``
is the sweep of a plain method roster, and ``ExperimentResult`` derives
relative fitness against the ALS baseline.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping, Sequence
from pathlib import Path
from typing import Any

import numpy as np

from repro.als.als import decompose
from repro.baselines.base import BaselineConfig
from repro.baselines.registry import BASELINES, create_baseline
from repro.baselines.registry import display_name as baseline_display_name
from repro.core.base import SNSConfig
from repro.core.registry import ALGORITHMS, create_algorithm
from repro.core.registry import display_name as algorithm_display_name
from repro.data.datasets import DatasetSpec
from repro.data.generators import generate_dataset
from repro.exceptions import ConfigurationError
from repro.experiments.config import ExperimentSettings
from repro.experiments.parallel import (
    ExperimentSnapshot,
    ExperimentTask,
    method_task,
    run_tasks,
)
from repro.metrics.fitness import relative_fitness
from repro.metrics.timing import UpdateTimer
from repro.stream.checkpoint import is_checkpoint, require_keys, restore_run
from repro.stream.processor import ContinuousStreamProcessor
from repro.stream.stream import MultiAspectStream
from repro.stream.window import WindowConfig
from repro.tensor.kruskal import KruskalTensor


@dataclasses.dataclass(slots=True)
class MethodResult:
    """Outcome of replaying the event stream against one method."""

    name: str
    label: str
    kind: str  # "continuous" or "periodic"
    checkpoint_times: list[float]
    fitness_series: list[float]
    mean_update_microseconds: float
    total_update_seconds: float
    n_updates: int
    n_events: int
    final_fitness: float
    n_parameters: int

    @property
    def average_fitness(self) -> float:
        """Mean fitness across checkpoints (the paper's 'average fitness')."""
        finite = [f for f in self.fitness_series if np.isfinite(f)]
        return float(np.mean(finite)) if finite else float("nan")


@dataclasses.dataclass(slots=True)
class ExperimentResult:
    """Results of all methods replayed on one dataset.

    ``methods`` is keyed by :func:`run_sweep` point key, which is the method
    name for :func:`run_experiment`; ``extra_payloads`` holds the results of
    the sweep's extra tasks by task key.
    """

    dataset: str
    window_config: WindowConfig
    initial_fitness: float
    methods: dict[str, MethodResult]
    reference: str = "als"
    extra_payloads: dict[str, Any] = dataclasses.field(default_factory=dict)

    def reference_fitness_at(self, time: float) -> float:
        """Fitness of the reference (ALS) as of ``time``.

        The reference is a once-per-period method, so its fitness is a step
        function of time: the value recorded at the latest boundary no later
        than ``time`` (or the initial fitness before its first update).
        """
        reference = self.methods.get(self.reference)
        if reference is None:
            return float("nan")
        value = self.initial_fitness
        for checkpoint_time, fitness in zip(
            reference.checkpoint_times, reference.fitness_series
        ):
            if checkpoint_time <= time:
                value = fitness
            else:
                break
        return value

    def relative_series(self, name: str) -> list[float]:
        """Relative-fitness series of ``name`` against the reference method.

        Each checkpoint of the target method is normalised by the reference's
        fitness *as of that checkpoint's time* (step interpolation), matching
        the paper's protocol where ALS values exist only once per period.
        """
        method = self.methods[name]
        if name == self.reference:
            return [1.0] * len(method.fitness_series)
        return [
            relative_fitness(target, self.reference_fitness_at(time))
            for time, target in zip(method.checkpoint_times, method.fitness_series)
        ]

    def average_relative_fitness(self, name: str) -> float:
        """Mean relative fitness of ``name`` across checkpoints."""
        series = [v for v in self.relative_series(name) if np.isfinite(v)]
        return float(np.mean(series)) if series else float("nan")


def method_kind(name: str) -> str:
    """Classify a method name as ``"continuous"`` (SliceNStitch) or ``"periodic"``."""
    if name in ALGORITHMS:
        return "continuous"
    if name in BASELINES or (name.startswith("necpd(") and name.endswith(")")):
        return "periodic"
    raise ConfigurationError(f"unknown method {name!r}")


def method_label(name: str) -> str:
    """Paper-style display label for any method name."""
    if name in ALGORITHMS:
        return algorithm_display_name(name)
    return baseline_display_name(name)


def stream_fingerprint(stream: MultiAspectStream) -> dict[str, Any]:
    """What a run checkpoint records of the stream it replays.

    The record count and the first and last record times: two datasets, or
    two scales of one dataset, with the same window shape differ here.
    """
    return {
        "n_records": len(stream),
        "first_time": stream.start_time,
        "last_time": stream.end_time,
    }


#: The ``extra`` payload of a :func:`run_method` checkpoint: each key and
#: its type (see :func:`~repro.stream.checkpoint.require_keys`).
RUN_EXTRA_KEYS = {
    "stream": dict,
    "n_events": int,
    "fitness_times": list[float],
    "fitness_values": list[float],
    "timer_total_seconds": float,
    "timer_n_updates": int,
}


def restore_checked_run(
    path: Path,
    stream: MultiAspectStream,
    window_config: WindowConfig,
    method: str,
    config: SNSConfig,
    extra_keys: Mapping[str, Any],
) -> tuple[ContinuousStreamProcessor, Any, dict[str, Any]]:
    """Restore a run checkpoint to resume, refusing one of another run.

    ``restore_run`` brings back the checkpoint's own window, stream and
    model, so continuing a checkpoint taken on other settings would report
    that run under this one's name.  The checkpoint must hold a ``method``
    model built with ``config``, a window configured as ``window_config``,
    and an ``extra`` payload with exactly ``extra_keys`` (the caller's
    bookkeeping, :func:`~repro.stream.checkpoint.require_keys`) whose
    ``stream`` is the :func:`stream_fingerprint` of ``stream``.  Returns
    ``(processor, model, extra)``.
    """
    processor, model, saved = restore_run(path)
    if model is None or model.name != method:
        raise ConfigurationError(
            f"checkpoint at {path} does not hold a {method!r} model"
        )
    require_keys(saved, extra_keys, f"checkpoint extra at {path}")
    requested = dataclasses.asdict(config)
    recorded = dataclasses.asdict(model.config)
    mismatched = sorted(
        key for key, value in requested.items() if value != recorded[key]
    )
    if processor.config != window_config:
        mismatched.append("window_config")
    if saved["stream"] != stream_fingerprint(stream):
        mismatched.append("stream")
    if mismatched:
        raise ConfigurationError(
            f"checkpoint at {path} was taken on a different run (differs in "
            f"{mismatched}); rerun with the original settings or start a "
            "fresh checkpoint directory"
        )
    return processor, model, saved


def run_method(
    stream: MultiAspectStream,
    window_config: WindowConfig,
    method: str,
    initial_factors: KruskalTensor | Sequence[np.ndarray],
    rank: int,
    theta: int = 20,
    eta: float = 1000.0,
    max_events: int = 3000,
    fitness_every: int = 150,
    seed: int | None = 0,
    baseline_config: BaselineConfig | None = None,
    relaxed: bool = False,
    checkpoint_dir: str | Path | None = None,
    checkpoint_events: int | None = None,
    resume: bool = False,
) -> MethodResult:
    """Replay ``max_events`` window events against one method.

    SliceNStitch variants are updated on every event and timed per event;
    baselines are updated whenever a period boundary is crossed and timed per
    period update, matching how the paper reports "elapsed time per update"
    for each family.

    The engine follows from the update rule.  An exact variant is updated
    per event (``processor.events``), as in the paper.  With
    ``relaxed=True`` the variant consumes one :class:`DeltaBatch` per batch
    window via ``update_batch`` — the relaxed update runs only there — and
    its fitness samples are recorded at batch granularity rather than on
    exact event counts.

    Periodic baselines replay per event to each period boundary: every
    boundary with stream activity at or before it gets one
    ``update_period`` over the window exactly *at* that boundary (every event
    up to and including the boundary applied, none after it), and boundaries
    keep being scored until the stream is exhausted — including a boundary
    the stream ends exactly on.

    Checkpointing (continuous methods only — periodic baselines carry no
    checkpointable state and are skipped): with ``checkpoint_dir`` set, the
    full run state (window, scheduler, model, RNG stream, plus this
    function's fitness bookkeeping) is saved under
    ``<checkpoint_dir>/<method>`` every ``checkpoint_events`` events and at
    the end of the run.  With ``resume=True`` an existing checkpoint there
    is restored and the replay continues to ``max_events`` *total* events —
    exactly, as if never interrupted (see :mod:`repro.stream.checkpoint`):
    window, factors, and final fitness are what the uninterrupted run
    produces, and so is the whole fitness series.  A relaxed run solves
    each batch as a whole, so its final checkpoint is taken at the last
    batch end at or before ``max_events``, a point that every longer run
    passes through: the batch that ``max_events`` cuts short still counts
    towards the run's result, but a resume replays it whole.
    Timing statistics are cumulative across resumes: the checkpoint carries
    the lifetime ``total_update_seconds`` / update count, so
    ``mean_update_microseconds`` reflects the whole run, not just the events
    replayed after the restore.  The checkpoint's ``extra`` payload is read
    as written (:data:`RUN_EXTRA_KEYS`); one of another run, or of another
    format version, raises :class:`~repro.exceptions.ConfigurationError`.
    """
    kind = method_kind(method)
    if checkpoint_events is not None and checkpoint_events <= 0:
        raise ConfigurationError(
            f"checkpoint_events must be positive, got {checkpoint_events}"
        )
    if checkpoint_dir is None and (checkpoint_events is not None or resume):
        raise ConfigurationError(
            "checkpoint_events/resume require checkpoint_dir — without it "
            "no checkpoint is ever written or read"
        )
    checkpoint_path: Path | None = None
    if checkpoint_dir is not None and kind == "continuous":
        checkpoint_path = Path(checkpoint_dir) / method

    checkpoint_times: list[float] = []
    fitness_series: list[float] = []
    n_events = 0
    model = None
    if checkpoint_path is not None and resume and is_checkpoint(checkpoint_path):
        processor, model, saved = restore_checked_run(
            checkpoint_path,
            stream,
            window_config,
            method,
            SNSConfig(rank=rank, theta=theta, eta=eta, seed=seed, relaxed=relaxed),
            RUN_EXTRA_KEYS,
        )
        n_events = saved["n_events"]
        checkpoint_times = [float(t) for t in saved["fitness_times"]]
        fitness_series = [float(f) for f in saved["fitness_values"]]
        # Lifetime timing carried across resumes.
        resumed_update_seconds = float(saved["timer_total_seconds"])
        resumed_update_count = saved["timer_n_updates"]
    else:
        processor = ContinuousStreamProcessor(stream, window_config)
        resumed_update_seconds = 0.0
        resumed_update_count = 0
    if model is None:
        if kind == "continuous":
            model = create_algorithm(
                method,
                SNSConfig(
                    rank=rank,
                    theta=theta,
                    eta=eta,
                    seed=seed,
                    relaxed=relaxed,
                ),
            )
        else:
            if baseline_config is None:
                # The ALS baseline doubles as the relative-fitness reference,
                # so give it a few sweeps per period; the other baselines use
                # their published closed-form / single-pass updates.
                n_iterations = 3 if method == "als" else 1
                baseline_config = BaselineConfig(
                    rank=rank, n_iterations=n_iterations, seed=seed
                )
            model = create_baseline(method, baseline_config)
        model.initialize(processor.window, initial_factors)

    def save_state() -> None:
        processor.save_checkpoint(
            checkpoint_path,
            model=model,
            extra={
                "stream": stream_fingerprint(stream),
                "n_events": n_events,
                "fitness_times": checkpoint_times,
                "fitness_values": fitness_series,
                # Lifetime totals (the timer was seeded with the restored
                # values), so a chain of resumes keeps exact bookkeeping.
                "timer_total_seconds": timer.total_seconds,
                "timer_n_updates": timer.n_updates,
            },
        )

    next_save = None
    if checkpoint_path is not None and checkpoint_events is not None:
        next_save = (n_events // checkpoint_events + 1) * checkpoint_events

    period = window_config.period
    next_boundary = processor.start_time + period
    timer = UpdateTimer()
    timer.restore(resumed_update_seconds, resumed_update_count)
    remaining = max(max_events - n_events, 0)
    if relaxed and kind == "continuous":
        next_fitness = (n_events // fitness_every + 1) * fitness_every
        # Whole batches first, then the one max_events cuts short: it counts
        # towards this run's result, but state is saved only at batch ends
        # that a longer run passes too.
        for whole in (True, False):
            for batch in processor.iter_batches(
                max_events=max(max_events - n_events, 0), whole_batches=whole
            ):
                timer.start()
                model.update_batch(batch)
                timer.stop()
                n_events += batch.n_events
                if n_events >= next_fitness:
                    checkpoint_times.append(batch.end_time)
                    fitness_series.append(model.fitness())
                    next_fitness = (
                        n_events // fitness_every + 1
                    ) * fitness_every
                if whole and next_save is not None and n_events >= next_save:
                    save_state()
                    next_save = (
                        n_events // checkpoint_events + 1
                    ) * checkpoint_events
            if whole and checkpoint_path is not None:
                save_state()
    elif kind == "continuous":
        for event, delta in processor.events(max_events=remaining):
            n_events += 1
            timer.start()
            model.update(delta)
            timer.stop()
            if n_events % fitness_every == 0:
                checkpoint_times.append(event.time)
                fitness_series.append(model.fitness())
            if next_save is not None and n_events >= next_save:
                save_state()
                next_save = (
                    n_events // checkpoint_events + 1
                ) * checkpoint_events
        if checkpoint_path is not None:
            # Final snapshot, from which a rerun with --resume continues.
            save_state()
    else:
        # Periodic baselines only read the window at period boundaries, so
        # the stream between boundaries is replayed without model updates.
        # Every boundary with data at or before it gets its update_period
        # over the window exactly *at* the boundary — in particular the
        # final one, even when the stream ends exactly on it or is exhausted
        # before max_events.
        while n_events < max_events:
            applied = processor.run(
                end_time=next_boundary, max_events=max_events - n_events
            )
            n_events += applied
            if applied == 0 and not processor.has_pending_events:
                break
            upcoming = processor.next_event_time
            if upcoming is not None and upcoming <= next_boundary:
                # The event budget truncated the replay mid-period: the
                # window has not reached the boundary, so scoring it would
                # violate the boundary-exact invariant.  Stop without a
                # sample.
                break
            timer.start()
            model.update_period()
            timer.stop()
            checkpoint_times.append(next_boundary)
            fitness_series.append(model.fitness())
            next_boundary += period
            if n_events >= max_events:
                break
    final_fitness = model.fitness()
    if not fitness_series:
        checkpoint_times.append(processor.start_time)
        fitness_series.append(final_fitness)
    if kind == "continuous":
        # n_updates is the lifetime event counter for both engines, and the
        # timer holds lifetime seconds (resumes seed it from the checkpoint).
        # Per-update time is per *event*: a relaxed run's timer wrapped whole
        # update_batch calls, so normalise by the lifetime event count to
        # stay comparable with Fig. 5.
        n_updates = model.n_updates
        if relaxed:
            mean_update_microseconds = (
                timer.total_seconds / n_events * 1e6 if n_events else 0.0
            )
        else:
            mean_update_microseconds = timer.mean_microseconds
    else:
        mean_update_microseconds = timer.mean_microseconds
        n_updates = timer.n_updates
    return MethodResult(
        name=method,
        label=method_label(method),
        kind=kind,
        checkpoint_times=checkpoint_times,
        fitness_series=fitness_series,
        mean_update_microseconds=mean_update_microseconds,
        total_update_seconds=timer.total_seconds,
        n_updates=n_updates,
        n_events=n_events,
        final_fitness=final_fitness,
        n_parameters=model.n_parameters,
    )


def prepare_experiment(
    settings: ExperimentSettings,
) -> tuple[MultiAspectStream, DatasetSpec, WindowConfig, KruskalTensor, float]:
    """Generate the dataset, build the window, and run the ALS initialisation.

    Returns ``(stream, spec, window_config, initial_decomposition,
    initial_fitness)``; every method run by :func:`run_experiment` starts from
    the same initial decomposition, as in the paper's protocol.
    """
    stream, spec = generate_dataset(settings.dataset, scale=settings.scale)
    window_config = WindowConfig(
        mode_sizes=spec.mode_sizes,
        window_length=spec.window_length,
        period=spec.period,
    )
    processor = ContinuousStreamProcessor(stream, window_config)
    initial = decompose(
        processor.window.tensor,
        rank=spec.rank,
        n_iterations=settings.als_iterations,
        seed=settings.seed,
    )
    return stream, spec, window_config, initial.decomposition, initial.fitness


def run_sweep(
    settings: ExperimentSettings,
    points: Sequence[tuple[str, str, Mapping[str, Any]]],
    extra_tasks: Sequence[ExperimentTask] = (),
) -> ExperimentResult:
    """Replay every ``(key, method, overrides)`` point from one shared start.

    The paper's protocol (Section VI-A): the dataset, the window and the ALS
    initialisation are prepared once, and every point replays its method
    from there.  A replay takes R, θ and η from the dataset's Table III
    values and its event budget and fitness cadence from ``settings``; a
    point's ``overrides`` may replace only ``theta``, ``eta``, ``max_events``
    and ``fitness_every`` (any other key is a ``TypeError``).  This is the
    one place that forwards ``seed``, ``relaxed``,
    ``checkpoint_events``, ``checkpoint_dir`` (the fan-out work dir),
    ``resume`` and ``n_workers`` to the replays.

    A point keyed by its own method name checkpoints under
    ``<checkpoint_dir>/<method>``, any other point under
    ``<checkpoint_dir>/<key>/<method>``.  ``extra_tasks`` (Fig. 1's
    conventional-CPD fits) run on the same preparation; their results come
    back in :attr:`ExperimentResult.extra_payloads`.  The returned
    ``methods`` maps each point key to its :class:`MethodResult`.
    """
    stream, spec, window_config, initial, initial_fitness = prepare_experiment(settings)
    defaults = {
        "theta": spec.theta,
        "eta": spec.eta,
        "max_events": settings.max_events,
        "fitness_every": settings.fitness_every,
    }
    tasks = [
        method_task(
            key,
            method,
            **{**defaults, **overrides},
            rank=spec.rank,
            seed=settings.seed,
            relaxed=settings.relaxed,
            checkpoint_events=settings.checkpoint_events,
            checkpoint_subdir="" if key == method else None,
        )
        for key, method, overrides in points
    ]
    results = run_tasks(
        ExperimentSnapshot(stream, window_config, initial),
        [*tasks, *extra_tasks],
        n_workers=settings.n_workers,
        work_dir=settings.checkpoint_dir,
        resume=settings.resume,
    )
    return ExperimentResult(
        dataset=settings.dataset,
        window_config=window_config,
        initial_fitness=initial_fitness,
        methods={task.key: results[task.key] for task in tasks},
        extra_payloads={task.key: results[task.key] for task in extra_tasks},
    )


def run_experiment(
    settings: ExperimentSettings, methods: Sequence[str]
) -> ExperimentResult:
    """Run every method in ``methods`` on the dataset described by ``settings``.

    One :func:`run_sweep` point per method, keyed by the method name, so
    run checkpoints sit at ``<checkpoint_dir>/<method>`` whatever
    ``settings.n_workers`` is.
    """
    return run_sweep(settings, [(method, method, {}) for method in methods])
