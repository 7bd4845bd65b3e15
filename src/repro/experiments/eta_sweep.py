"""Fig. 8 — effect of the clipping threshold η on SNS+_VEC and SNS+_RND.

The paper sweeps η from 32 to 16,000 and observes that fitness is insensitive
to η as long as it is "small enough" (Observation 7); η does not affect
runtime, so only relative fitness is reported.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

from repro.experiments.config import ExperimentSettings
from repro.experiments.reporting import format_table
from repro.experiments.runner import prepare_experiment
from repro.metrics.fitness import relative_fitness


@dataclasses.dataclass(slots=True)
class EtaSweepResult:
    """Relative fitness per (method, η)."""

    dataset: str
    etas: list[float]
    relative_fitness: dict[str, list[float]]


def run_eta_sweep(
    settings: ExperimentSettings | None = None,
    methods: Sequence[str] = ("sns_vec_plus", "sns_rnd_plus"),
    etas: Sequence[float] = (32.0, 100.0, 320.0, 1000.0, 3200.0, 16000.0),
) -> EtaSweepResult:
    """Run the Fig. 8 sweep on one dataset.

    Every (method, η) replay — and the shared ALS reference — is an
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
    shared = dict(
        rank=spec.rank,
        max_events=settings.max_events,
        fitness_every=settings.fitness_every,
        seed=settings.seed,
        batched=settings.batched,
        relaxed=settings.relaxed,
    )
    tasks = [method_task("als", "als", **shared)]
    for eta in etas:
        for method in methods:
            tasks.append(
                method_task(
                    f"{method}@eta={float(eta):g}",
                    method,
                    theta=spec.theta,
                    eta=float(eta),
                    **shared,
                )
            )
    payloads = run_tasks_over_snapshot(
        stream, window_config, initial, tasks, n_workers=settings.n_workers
    )
    reference = method_result_from_payload(payloads["als"])
    rel: dict[str, list[float]] = {method: [] for method in methods}
    for eta in etas:
        for method in methods:
            outcome = method_result_from_payload(
                payloads[f"{method}@eta={float(eta):g}"]
            )
            rel[method].append(
                relative_fitness(outcome.average_fitness, reference.average_fitness)
            )
    return EtaSweepResult(
        dataset=settings.dataset, etas=[float(e) for e in etas], relative_fitness=rel
    )


def format_eta_sweep(result: EtaSweepResult) -> str:
    """Render the Fig. 8 rows as text."""
    rows = []
    for method in result.relative_fitness:
        for eta, fitness in zip(result.etas, result.relative_fitness[method]):
            rows.append((method, eta, fitness))
    return format_table(
        ("method", "eta", "relative fitness"),
        rows,
        title=f"Fig. 8 — effect of eta on {result.dataset}",
    )
