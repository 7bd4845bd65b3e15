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
from repro.experiments.reporting import format_table, worker_timing_note
from repro.experiments.runner import run_sweep
from repro.metrics.fitness import relative_fitness


@dataclasses.dataclass(slots=True)
class ThetaSweepResult:
    """Fitness and update time per (method, θ)."""

    dataset: str
    thetas: list[int]
    relative_fitness: dict[str, list[float]]
    update_microseconds: dict[str, list[float]]
    n_workers: int = 1


def run_theta_sweep(
    settings: ExperimentSettings | None = None,
    methods: Sequence[str] = ("sns_rnd", "sns_rnd_plus"),
    fractions: Sequence[float] = (0.25, 0.5, 1.0, 1.5, 2.0),
) -> ThetaSweepResult:
    """Run the Fig. 7 sweep on one dataset.

    One :func:`~repro.experiments.runner.run_sweep` point per (method, θ),
    plus the ALS reference once (θ does not affect it).
    """
    settings = settings or ExperimentSettings()
    thetas = sorted({max(int(round(settings.spec.theta * f)), 1) for f in fractions})
    points = [("als", "als", {})] + [
        (f"{method}@theta={theta}", method, {"theta": theta})
        for theta in thetas
        for method in methods
    ]
    results = run_sweep(settings, points).methods
    reference = results["als"]
    rel: dict[str, list[float]] = {method: [] for method in methods}
    micro: dict[str, list[float]] = {method: [] for method in methods}
    for theta in thetas:
        for method in methods:
            outcome = results[f"{method}@theta={theta}"]
            rel[method].append(
                relative_fitness(outcome.average_fitness, reference.average_fitness)
            )
            micro[method].append(outcome.mean_update_microseconds)
    return ThetaSweepResult(
        dataset=settings.dataset,
        thetas=thetas,
        relative_fitness=rel,
        update_microseconds=micro,
        n_workers=settings.n_workers,
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
    ) + worker_timing_note(result.n_workers)
