"""Fig. 6 — total runtime of SliceNStitch versus the number of events.

The paper shows that the total running time of every SliceNStitch variant
grows linearly in the number of processed events (Observation 5).  The
experiment replays increasing event counts and reports total update time; the
result object also fits a least-squares line and reports the coefficient of
determination so the linearity claim can be checked numerically.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from repro.experiments.config import ExperimentSettings
from repro.experiments.reporting import format_table
from repro.experiments.runner import run_sweep


@dataclasses.dataclass(slots=True)
class ScalabilityResult:
    """Total update time per (method, event count)."""

    dataset: str
    event_counts: list[int]
    total_seconds: dict[str, list[float]]

    def linearity(self, method: str) -> float:
        """R² of a straight-line fit of total time vs. events for ``method``."""
        times = np.asarray(self.total_seconds[method], dtype=np.float64)
        counts = np.asarray(self.event_counts, dtype=np.float64)
        if len(counts) < 2 or np.allclose(times, times[0]):
            return 1.0
        coefficients = np.polyfit(counts, times, deg=1)
        predicted = np.polyval(coefficients, counts)
        residual = float(np.sum((times - predicted) ** 2))
        total = float(np.sum((times - times.mean()) ** 2))
        return 1.0 - residual / total if total > 0 else 1.0


def run_scalability(
    settings: ExperimentSettings | None = None,
    methods: Sequence[str] = ("sns_vec", "sns_rnd", "sns_vec_plus", "sns_rnd_plus"),
    event_counts: Sequence[int] = (500, 1000, 1500, 2000, 2500),
) -> ScalabilityResult:
    """Run the Fig. 6 experiment on one dataset.

    One :func:`~repro.experiments.runner.run_sweep` point per (method, event
    count), each with a single fitness sample at its end.  Total update time
    is accumulated inside each replay, so the series keeps its meaning when
    ``settings.n_workers > 1`` fans the points out.
    """
    settings = settings or ExperimentSettings()
    points = [
        (
            f"{method}@events={int(count)}",
            method,
            {"max_events": int(count), "fitness_every": max(int(count), 1)},
        )
        for count in event_counts
        for method in methods
    ]
    results = run_sweep(settings, points).methods
    total_seconds: dict[str, list[float]] = {method: [] for method in methods}
    for count in event_counts:
        for method in methods:
            outcome = results[f"{method}@events={int(count)}"]
            total_seconds[method].append(outcome.total_update_seconds)
    return ScalabilityResult(
        dataset=settings.dataset,
        event_counts=[int(c) for c in event_counts],
        total_seconds=total_seconds,
    )


def format_scalability(result: ScalabilityResult) -> str:
    """Render the Fig. 6 series plus the linear-fit quality."""
    rows = []
    for method, series in result.total_seconds.items():
        for count, seconds in zip(result.event_counts, series):
            rows.append((method, count, seconds))
    table = format_table(
        ("method", "events", "total update time [s]"),
        rows,
        title=f"Fig. 6 — scalability on {result.dataset}",
    )
    fits = format_table(
        ("method", "linear fit R^2"),
        [(method, result.linearity(method)) for method in result.total_seconds],
        title="Linearity check",
    )
    return f"{table}\n\n{fits}"
