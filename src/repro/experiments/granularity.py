"""Fig. 1(c,d,e) — continuous CPD versus conventional CPD at fine granularities.

The paper's motivating experiment compares, on the New York Taxi stream:

* conventional CPD (batch ALS on a window whose time mode has period ``T'``)
  for ``T'`` swept from one second to one hour, and
* continuous CPD (SliceNStitch, here SNS_RND) with ``T`` fixed to one hour,

along three axes: average fitness (Fig. 1c), number of parameters (Fig. 1d),
and runtime per update (Fig. 1e).  Conventional fitness is measured *after
merging* the fine-grained time-factor rows back to the coarse granularity, as
footnote 7 of the paper describes, so every configuration is scored against
the same coarse window.

In this reproduction the "one hour" is the dataset's synthetic period ``T``
and the sweep covers integer divisors of ``T``.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from repro.als.als import decompose
from repro.experiments.config import ExperimentSettings
from repro.experiments.parallel import ExperimentTask
from repro.experiments.reporting import format_table
from repro.experiments.runner import run_sweep
from repro.metrics.timing import Stopwatch
from repro.stream.processor import ContinuousStreamProcessor
from repro.stream.stream import MultiAspectStream
from repro.stream.window import WindowConfig
from repro.tensor.kruskal import KruskalTensor
from repro.tensor.sparse import SparseTensor


@dataclasses.dataclass(slots=True)
class GranularityPoint:
    """One point of the Fig. 1 sweep."""

    family: str  # "conventional" or "continuous"
    update_interval: float
    fitness: float
    n_parameters: int
    update_microseconds: float


@dataclasses.dataclass(slots=True)
class GranularityResult:
    """Full Fig. 1 sweep."""

    dataset: str
    coarse_period: float
    points: list[GranularityPoint]

    def conventional(self) -> list[GranularityPoint]:
        """Points of the conventional-CPD sweep, ordered by interval."""
        return sorted(
            (p for p in self.points if p.family == "conventional"),
            key=lambda p: p.update_interval,
        )

    def continuous(self) -> GranularityPoint:
        """The single continuous-CPD point."""
        return next(p for p in self.points if p.family == "continuous")


def conventional_point(
    stream: MultiAspectStream,
    coarse_config: WindowConfig,
    divisor: int,
    rank: int,
    als_iterations: int = 10,
    seed: int | None = 0,
    coarse_window: SparseTensor | None = None,
) -> GranularityPoint:
    """One conventional-CPD point: batch ALS at granularity ``T / divisor``.

    Self-contained (the coarse scoring window is rebuilt from the stream when
    not supplied), so it can run as a fan-out task against the prepared
    experiment (:mod:`repro.experiments.parallel`).
    """
    divisor = int(divisor)
    fine_period = coarse_config.period / divisor
    fine_length = coarse_config.window_length * divisor
    fine_config = WindowConfig(
        mode_sizes=coarse_config.mode_sizes,
        window_length=fine_length,
        period=fine_period,
    )
    fine_window = _initial_window(stream, fine_config)
    with Stopwatch() as watch:
        result = decompose(
            fine_window, rank=rank, n_iterations=als_iterations, seed=seed
        )
    merged = _merge_time_rows(result.decomposition, divisor)
    if coarse_window is None:
        coarse_window = _initial_window(stream, coarse_config)
    return GranularityPoint(
        family="conventional",
        update_interval=fine_period,
        fitness=merged.fitness(coarse_window),
        n_parameters=result.decomposition.n_parameters,
        update_microseconds=1e6 * watch.elapsed,
    )


def run_granularity(
    settings: ExperimentSettings | None = None,
    divisors: Sequence[int] = (60, 20, 10, 4, 2, 1),
    als_iterations: int = 10,
    continuous_method: str = "sns_rnd",
) -> GranularityResult:
    """Run the Fig. 1 experiment (defaults to the NY-Taxi-like dataset).

    The continuous replay is one :func:`~repro.experiments.runner.run_sweep`
    point; the conventional fits at every divisor run as its extra tasks
    over the same prepared snapshot, so ``settings.n_workers > 1`` fans all
    of them out with points identical to a sequential run.
    """
    settings = settings or ExperimentSettings(dataset="nyc_taxi")
    # Conventional CPD at every fine granularity T' = T / divisor, plus the
    # continuous CPD replay at the coarse period (updated on every event).
    conventional = [
        ExperimentTask(
            key=f"conventional@divisor={int(divisor)}",
            kind="conventional_cpd",
            params={
                "divisor": int(divisor),
                "rank": settings.spec.rank,
                "als_iterations": als_iterations,
                "seed": settings.seed,
            },
        )
        for divisor in divisors
    ]
    result = run_sweep(
        settings, [("continuous", continuous_method, {})], extra_tasks=conventional
    )
    points = [result.extra_payloads[task.key] for task in conventional]
    outcome = result.methods["continuous"]
    points.append(
        GranularityPoint(
            family="continuous",
            update_interval=0.0,  # updates fire per event, i.e. "any time"
            fitness=outcome.average_fitness,
            n_parameters=outcome.n_parameters,
            update_microseconds=outcome.mean_update_microseconds,
        )
    )
    return GranularityResult(
        dataset=settings.dataset,
        coarse_period=result.window_config.period,
        points=points,
    )


def format_granularity(result: GranularityResult) -> str:
    """Render the Fig. 1(c,d,e) rows as text."""
    rows = []
    for point in result.conventional() + [result.continuous()]:
        rows.append(
            (
                point.family,
                point.update_interval if point.family == "conventional" else "per event",
                point.fitness,
                point.n_parameters,
                point.update_microseconds,
            )
        )
    return format_table(
        ("family", "update interval", "fitness", "# parameters", "update time [us]"),
        rows,
        title=(
            f"Fig. 1 — continuous vs conventional CPD on {result.dataset} "
            f"(coarse period T = {result.coarse_period:g})"
        ),
    )


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _initial_window(
    stream: MultiAspectStream, config: WindowConfig
) -> SparseTensor:
    """The initial window tensor ``D(t0, W)`` for a given granularity."""
    processor = ContinuousStreamProcessor(stream, config)
    return processor.window.tensor


def _merge_time_rows(decomposition: KruskalTensor, group: int) -> KruskalTensor:
    """Sum groups of ``group`` consecutive time-factor rows (footnote 7)."""
    factors = [factor.copy() for factor in decomposition.factors]
    time_factor = factors[-1] * decomposition.weights[None, :]
    n_fine, rank = time_factor.shape
    n_coarse = n_fine // group
    merged = time_factor[: n_coarse * group].reshape(n_coarse, group, rank).sum(axis=1)
    factors[-1] = merged
    return KruskalTensor(factors, np.ones(rank))
