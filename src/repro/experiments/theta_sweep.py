"""Fig. 7 — effect of the sampling threshold θ on SNS_RND and SNS+_RND.

The paper sweeps θ from 25% to 200% of its default and reports relative
fitness (top row of Fig. 7) and update time (bottom row): fitness increases
with diminishing returns while runtime grows roughly linearly
(Observation 6).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

from repro.experiments.config import ExperimentSettings
from repro.experiments.reporting import format_table
from repro.experiments.runner import prepare_experiment
from repro.metrics.fitness import relative_fitness


@dataclasses.dataclass(slots=True)
class ThetaSweepResult:
    """Fitness and update time per (method, θ)."""

    dataset: str
    thetas: list[int]
    relative_fitness: dict[str, list[float]]
    update_microseconds: dict[str, list[float]]


def run_theta_sweep(
    settings: ExperimentSettings | None = None,
    methods: Sequence[str] = ("sns_rnd", "sns_rnd_plus"),
    fractions: Sequence[float] = (0.25, 0.5, 1.0, 1.5, 2.0),
) -> ThetaSweepResult:
    """Run the Fig. 7 sweep on one dataset.

    Every (method, θ) replay — and the shared ALS reference — is an
    independent task over one prepared snapshot; ``settings.n_workers > 1``
    fans them out over worker processes with identical results.
    """
    from repro.experiments.parallel import (
        method_result_from_payload,
        method_task,
        run_tasks_over_snapshot,
    )

    settings = settings or ExperimentSettings()
    stream, spec, window_config, initial, _ = prepare_experiment(settings)
    thetas = sorted({max(int(round(spec.theta * f)), 1) for f in fractions})
    shared = dict(
        rank=spec.rank,
        max_events=settings.max_events,
        fitness_every=settings.fitness_every,
        seed=settings.seed,
        batched=settings.batched,
        staleness=settings.staleness,
    )
    # ALS reference run once (θ does not affect it).
    tasks = [method_task("als", "als", **shared)]
    for theta in thetas:
        for method in methods:
            tasks.append(
                method_task(
                    f"{method}@theta={theta}",
                    method,
                    theta=theta,
                    eta=spec.eta,
                    **shared,
                )
            )
    payloads = run_tasks_over_snapshot(
        stream, window_config, initial, tasks, n_workers=settings.n_workers
    )
    reference = method_result_from_payload(payloads["als"])
    rel: dict[str, list[float]] = {method: [] for method in methods}
    micro: dict[str, list[float]] = {method: [] for method in methods}
    for theta in thetas:
        for method in methods:
            outcome = method_result_from_payload(payloads[f"{method}@theta={theta}"])
            rel[method].append(
                relative_fitness(outcome.average_fitness, reference.average_fitness)
            )
            micro[method].append(outcome.mean_update_microseconds)
    return ThetaSweepResult(
        dataset=settings.dataset,
        thetas=thetas,
        relative_fitness=rel,
        update_microseconds=micro,
    )


def format_theta_sweep(result: ThetaSweepResult) -> str:
    """Render the Fig. 7 rows as text."""
    rows = []
    for method in result.relative_fitness:
        for theta, fitness, micro in zip(
            result.thetas,
            result.relative_fitness[method],
            result.update_microseconds[method],
        ):
            rows.append((method, theta, fitness, micro))
    return format_table(
        ("method", "theta", "relative fitness", "update time [us]"),
        rows,
        title=f"Fig. 7 — effect of theta on {result.dataset}",
    )
