"""Fig. 5 — runtime per update and average relative fitness, per dataset.

Fig. 5(a) of the paper reports the mean elapsed time per update of every
method on every dataset; Fig. 5(b) reports the average relative fitness.  The
same two quantities are produced here from the shared experiment runner.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from pathlib import Path

from repro.experiments.config import (
    DEFAULT_CONTINUOUS_METHODS,
    DEFAULT_PERIODIC_METHODS,
    ExperimentSettings,
)
from repro.experiments.reporting import format_table, worker_timing_note
from repro.experiments.runner import ExperimentResult, run_experiment


@dataclasses.dataclass(slots=True)
class SpeedFitnessResult:
    """Per-dataset, per-method speed and relative-fitness summary."""

    experiments: dict[str, ExperimentResult]
    methods: list[str]
    n_workers: int = 1

    def rows(self) -> list[tuple[str, str, float, float]]:
        """(dataset, method label, update time [µs], avg relative fitness) rows."""
        rows = []
        for dataset, experiment in self.experiments.items():
            for method in self.methods:
                outcome = experiment.methods[method]
                rows.append(
                    (
                        dataset,
                        outcome.label,
                        outcome.mean_update_microseconds,
                        experiment.average_relative_fitness(method),
                    )
                )
        return rows

    def speedup_over_fastest_baseline(self, dataset: str, method: str) -> float:
        """How much faster ``method`` is than the fastest per-period baseline."""
        experiment = self.experiments[dataset]
        baseline_times = [
            outcome.mean_update_microseconds
            for outcome in experiment.methods.values()
            if outcome.kind == "periodic" and outcome.mean_update_microseconds > 0
        ]
        target = experiment.methods[method].mean_update_microseconds
        if not baseline_times or target <= 0:
            return float("nan")
        return min(baseline_times) / target


def run_speed_fitness(
    settings: ExperimentSettings | None = None,
    datasets: Sequence[str] = ("divvy_bikes", "chicago_crime", "nyc_taxi", "ride_austin"),
    methods: Sequence[str] | None = None,
) -> SpeedFitnessResult:
    """Run the Fig. 5 experiment across datasets.

    Every dataset runs with ``settings``, its ``dataset`` replaced.  With
    ``settings.checkpoint_dir`` set, each dataset's run state goes to its
    own ``<checkpoint_dir>/<dataset>/<method>``, so a ``resume`` continues
    each dataset from its own checkpoints.
    """
    settings = settings or ExperimentSettings()
    if methods is None:
        methods = list(DEFAULT_CONTINUOUS_METHODS) + list(DEFAULT_PERIODIC_METHODS)
    else:
        methods = list(methods)
    if "als" not in methods:
        methods.append("als")
    experiments: dict[str, ExperimentResult] = {}
    for dataset in datasets:
        checkpoint_dir = settings.checkpoint_dir
        if checkpoint_dir is not None:
            checkpoint_dir = str(Path(checkpoint_dir) / dataset)
        experiments[dataset] = run_experiment(
            dataclasses.replace(
                settings, dataset=dataset, checkpoint_dir=checkpoint_dir
            ),
            methods,
        )
    return SpeedFitnessResult(
        experiments=experiments, methods=methods, n_workers=settings.n_workers
    )


def format_speed_fitness(result: SpeedFitnessResult) -> str:
    """Render Fig. 5(a)+(b) as one text table."""
    return format_table(
        ("dataset", "method", "update time [us]", "avg relative fitness"),
        result.rows(),
        title="Fig. 5 — runtime per update and average relative fitness",
    ) + worker_timing_note(result.n_workers)
