"""Relaxed batch update: accuracy frontier, throughput, batch_window sweep.

Replays the nyc_taxi-like stream once exactly (``staleness=None``) and once
per staleness point with the relaxed batch update (see
:mod:`repro.core.relaxed`), for one least-squares and one clipped + sampled
variant, and reports:

* the **gated frontier** on the committed workload — final-fitness
  deviation from the exact run at each staleness, which must stay within
  ``DEVIATION_BOUND``, and the relaxed/exact throughput ratio, which must
  reach ``SPEEDUP_FLOOR`` on any CPU count: the speed comes from solving each
  row a batch touches once, against one snapshot, not from parallelism.
  The workload's 1,200 events fit inside one period ``T``, and ``run_method``
  batches by ``T``, so the relaxed run is a single batch and every
  staleness point gives the same fitness;
* an **ungated batch_window sweep** that records what the one-batch
  workload hides: 4,000 events cut into batches of ``T/16``, ``T/4`` and
  ``T``, at staleness 0 and 2, with the batch count, final fitness,
  deviation from exact and throughput ratio of every point.  Many small
  batches — the regime of a served stream, which drains every ingest chunk
  on its own — can drift far from the exact fitness.

Results land in ``results/BENCH_sharded.json`` / ``.txt``; the regression
gate enforces the ``deviation_within_bound`` and ``meets_speedup_floor``
flags plus the exact-path throughput.
"""

from __future__ import annotations

import os
import time

from benchmarks._reporting import emit, emit_json
from benchmarks.conftest import scaled_events, thread_settings

from repro.core.base import SNSConfig
from repro.core.registry import create_algorithm
from repro.experiments.config import ExperimentSettings
from repro.experiments.runner import prepare_experiment, run_method
from repro.kernels.lapack import lapack_solvers
from repro.stream.processor import ContinuousStreamProcessor

BENCH_DATASET = "nyc_taxi"
BENCH_SCALE = 0.2
BENCH_EVENTS = 1200
STALENESS_POINTS = (0, 2, 8)
#: The variants benchmarked: the batched least-squares family representative
#: and the clipped + sampled one.
BENCH_METHODS = ("sns_vec", "sns_rnd_plus")
#: Accuracy bar: max |final_fitness(relaxed) - final_fitness(exact)| over
#: the gated frontier.  The deviation is the batch-level relaxation itself:
#: all rows of one batch are solved against one snapshot (Jacobi order)
#: where the exact path refreshes Gram state after every event
#: (Gauss-Seidel order).  Observed on the committed workload: 0.107 for
#: sns_vec and 0.028 for sns_rnd_plus; the bound leaves margin for other
#: hardware's float rounding.
DEVIATION_BOUND = 0.15
SPEEDUP_FLOOR = 2.0
#: The ungated sweep: events, batch windows as fractions of T, staleness.
SWEEP_EVENTS = 4000
SWEEP_FRACTIONS = ((1, 16), (1, 4), (1, 1))
SWEEP_STALENESS = (0, 2)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _replay(prepared, method: str, n_events: int, staleness: int | None):
    stream, spec, window_config, initial, _initial_fitness = prepared
    start = time.perf_counter()
    result = run_method(
        stream,
        window_config,
        method,
        initial_factors=initial,
        rank=spec.rank,
        theta=spec.theta,
        eta=spec.eta,
        max_events=n_events,
        fitness_every=max(n_events // 8, 1),
        seed=0,
        batched=True,
        staleness=staleness,
    )
    seconds = time.perf_counter() - start
    events_per_second = result.n_events / seconds if seconds > 0 else 0.0
    return result, events_per_second


def _drive(prepared, method: str, n_events: int, staleness, batch_window):
    """Batched replay at an explicit batch window: (fitness, batches, ev/s)."""
    stream, spec, window_config, initial, _initial_fitness = prepared
    processor = ContinuousStreamProcessor(stream, window_config)
    model = create_algorithm(
        method,
        SNSConfig(
            rank=spec.rank, theta=spec.theta, eta=spec.eta, seed=0, staleness=staleness
        ),
    )
    model.initialize(processor.window, initial)
    n_batches = 0
    start = time.perf_counter()
    for batch in processor.iter_batches(max_events=n_events, batch_window=batch_window):
        model.update_batch(batch)
        n_batches += 1
    seconds = time.perf_counter() - start
    return model.fitness(), n_batches, model.n_updates / seconds


def _sweep(report_lines: list[str]) -> dict:
    """The ungated batch_window × staleness sweep (see the module docstring)."""
    n_events = scaled_events(SWEEP_EVENTS, minimum=1000)
    prepared = prepare_experiment(
        ExperimentSettings(
            dataset=BENCH_DATASET, scale=BENCH_SCALE, max_events=n_events
        )
    )
    period = prepared[2].period
    report_lines.append(
        f"batch_window sweep (ungated): {n_events} events, T = {period:g}"
    )
    exact: dict[str, dict[str, float]] = {}
    points: dict[str, list[dict[str, object]]] = {}
    for method in BENCH_METHODS:
        exact_fitness, _, exact_eps = _drive(prepared, method, n_events, None, None)
        exact[method] = {
            "final_fitness": float(exact_fitness),
            "events_per_second": float(exact_eps),
        }
        report_lines.append(
            f"{method:14s} exact           fitness={exact_fitness:+.4f} "
            f"{exact_eps:10.0f} ev/s"
        )
        points[method] = []
        for numerator, denominator in SWEEP_FRACTIONS:
            label = "T" if numerator == denominator else f"T/{denominator}"
            for staleness in SWEEP_STALENESS:
                fitness, n_batches, eps = _drive(
                    prepared,
                    method,
                    n_events,
                    staleness,
                    period * numerator / denominator,
                )
                deviation = abs(fitness - exact_fitness)
                ratio = eps / exact_eps if exact_eps > 0 else 0.0
                points[method].append(
                    {
                        "batch_window": label,
                        "staleness": staleness,
                        "batches": n_batches,
                        "final_fitness": float(fitness),
                        "fitness_deviation": float(deviation),
                        "throughput_ratio": float(ratio),
                    }
                )
                report_lines.append(
                    f"{method:14s} {label:>4s} staleness={staleness} "
                    f"batches={n_batches:3d} fitness={fitness:+.4f} "
                    f"deviation={deviation:.4f} ({ratio:.2f}x exact)"
                )
    return {"events": n_events, "gated": False, "exact": exact, "points": points}


def test_sharded_frontier():
    n_events = scaled_events(BENCH_EVENTS, minimum=300)
    settings = ExperimentSettings(
        dataset=BENCH_DATASET,
        scale=BENCH_SCALE,
        max_events=n_events,
        n_checkpoints=8,
    )
    prepared = prepare_experiment(settings)
    # Importing SciPy's LAPACK is a one-time process cost; without this the
    # first least-squares relaxed run would pay it inside its timing.
    lapack_solvers()

    exact: dict[str, dict[str, float]] = {}
    frontier: dict[str, list[dict[str, float]]] = {}
    report_lines = [
        f"workload: {BENCH_DATASET} @ {BENCH_SCALE}, {n_events} events, "
        f"relaxed batch update, staleness sweep {STALENESS_POINTS}",
        f"usable CPUs: {_usable_cpus()}",
    ]
    for method in BENCH_METHODS:
        result, eps = _replay(prepared, method, n_events, staleness=None)
        exact[method] = {
            "final_fitness": float(result.final_fitness),
            "events_per_second": float(eps),
        }
        report_lines.append(
            f"{method:14s} exact      fitness={result.final_fitness:+.4f} "
            f"{eps:10.0f} ev/s"
        )
        points = []
        for staleness in STALENESS_POINTS:
            relaxed, relaxed_eps = _replay(prepared, method, n_events, staleness)
            deviation = abs(relaxed.final_fitness - result.final_fitness)
            ratio = relaxed_eps / eps if eps > 0 else 0.0
            points.append(
                {
                    "staleness": staleness,
                    "final_fitness": float(relaxed.final_fitness),
                    "fitness_deviation": float(deviation),
                    "events_per_second": float(relaxed_eps),
                    "throughput_ratio": float(ratio),
                }
            )
            report_lines.append(
                f"{method:14s} staleness={staleness} "
                f"fitness={relaxed.final_fitness:+.4f} "
                f"deviation={deviation:.5f} {relaxed_eps:10.0f} ev/s "
                f"({ratio:.2f}x exact)"
            )
        frontier[method] = points

    all_points = [point for points in frontier.values() for point in points]
    max_deviation = float(max(point["fitness_deviation"] for point in all_points))
    best_ratio = float(max(point["throughput_ratio"] for point in all_points))
    meets_floor = bool(best_ratio >= SPEEDUP_FLOOR)
    within_bound = bool(max_deviation <= DEVIATION_BOUND)
    report_lines += [
        f"max fitness deviation: {max_deviation:.5f} "
        f"(bound {DEVIATION_BOUND}) -> {'ok' if within_bound else 'EXCEEDED'}",
        f"best throughput ratio: {best_ratio:.2f}x "
        f"(floor {SPEEDUP_FLOOR}x) -> {'ok' if meets_floor else 'MISSED'}",
        "",
    ]
    sweep = _sweep(report_lines)

    payload = {
        "workload": {
            "dataset": BENCH_DATASET,
            "scale": BENCH_SCALE,
            "events": n_events,
            "methods": list(BENCH_METHODS),
            "staleness_points": list(STALENESS_POINTS),
        },
        "thread_context": thread_settings(),
        "n_usable_cpus": _usable_cpus(),
        "exact": exact,
        "frontier": frontier,
        "max_fitness_deviation": max_deviation,
        "deviation_bound": DEVIATION_BOUND,
        "deviation_within_bound": within_bound,
        "best_throughput_ratio": best_ratio,
        "speedup_floor": SPEEDUP_FLOOR,
        "meets_speedup_floor": meets_floor,
        "batch_window_sweep": sweep,
    }
    emit_json("BENCH_sharded", payload)
    emit("BENCH_sharded", "\n".join(report_lines))

    assert within_bound, (
        f"relaxed fitness deviated {max_deviation:.5f} from exact "
        f"(bound {DEVIATION_BOUND})"
    )
    assert meets_floor, (
        f"relaxed throughput reached only {best_ratio:.2f}x exact "
        f"(floor {SPEEDUP_FLOOR}x)"
    )


if __name__ == "__main__":
    test_sharded_frontier()
