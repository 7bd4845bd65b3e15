"""Parallel experiment fan-out: wall-clock speedup over the sequential run.

Replays the paper's default method roster (5 SliceNStitch variants + 5
periodic baselines) on the nyc_taxi-like stream twice through
``run_experiment`` — sequentially (``n_workers=1``) and fanned out over 4
worker processes, each handed the one prepared experiment as a process
argument — and reports the wall-clock ratio plus a per-method spot check
that the parallel results are identical.

Speedup depends on physical parallelism: on a machine with >= 4 usable cores
the fan-out is expected to reach >= 2.5x on this roster (the tasks are
CPU-bound, independent, and far longer than the fork and result-file
overhead).  The JSON records both wall clocks, their ratio and the usable
CPU count, not the overhead on its own.  On fewer cores the measured ratio
is recorded as-is and the speedup assertion is skipped — a 1-core container
cannot express process-level parallelism, only its overhead.

Results land in ``results/BENCH_parallel.json`` / ``.txt``.
"""

from __future__ import annotations

import dataclasses
import os
import time

from benchmarks._reporting import emit, emit_json
from benchmarks.conftest import scaled_events

from repro.experiments.config import (
    DEFAULT_CONTINUOUS_METHODS,
    DEFAULT_PERIODIC_METHODS,
    ExperimentSettings,
)
from repro.experiments.runner import run_experiment

BENCH_DATASET = "nyc_taxi"
BENCH_SCALE = 0.2
BENCH_EVENTS = 1200
BENCH_WORKERS = 4
SPEEDUP_FLOOR = 2.5


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def test_parallel_fanout_speedup():
    n_events = scaled_events(BENCH_EVENTS, minimum=300)
    methods = list(DEFAULT_CONTINUOUS_METHODS) + list(DEFAULT_PERIODIC_METHODS)
    settings = ExperimentSettings(
        dataset=BENCH_DATASET,
        scale=BENCH_SCALE,
        max_events=n_events,
        n_checkpoints=8,
    )

    start = time.perf_counter()
    sequential = run_experiment(settings, methods)
    sequential_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_experiment(
        dataclasses.replace(settings, n_workers=BENCH_WORKERS), methods
    )
    parallel_seconds = time.perf_counter() - start

    # Guard: the fan-out must be result-identical, not just fast.
    for method in methods:
        assert (
            parallel.methods[method].fitness_series
            == sequential.methods[method].fitness_series
        ), f"parallel diverged from sequential on {method}"
        assert (
            parallel.methods[method].final_fitness
            == sequential.methods[method].final_fitness
        )

    speedup = sequential_seconds / parallel_seconds if parallel_seconds else 0.0
    n_cpus = _usable_cpus()
    payload = {
        "workload": {
            "dataset": BENCH_DATASET,
            "scale": BENCH_SCALE,
            "events": n_events,
            "methods": methods,
            "n_workers": BENCH_WORKERS,
        },
        "n_usable_cpus": n_cpus,
        "sequential_seconds": sequential_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": speedup,
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_floor_enforced": n_cpus >= BENCH_WORKERS,
        "results_identical": True,
    }
    emit_json("BENCH_parallel", payload)
    report = "\n".join(
        [
            f"workload: {BENCH_DATASET} @ {BENCH_SCALE}, {n_events} events, "
            f"{len(methods)} methods, {BENCH_WORKERS} workers",
            f"usable CPUs: {n_cpus}",
            f"sequential run_experiment: {sequential_seconds:8.2f} s",
            f"parallel   run_experiment: {parallel_seconds:8.2f} s",
            f"speedup: {speedup:.2f}x "
            f"(floor {SPEEDUP_FLOOR}x enforced only with >= {BENCH_WORKERS} CPUs)",
            "parallel results verified identical to sequential "
            "(fitness series + final fitness, all methods)",
        ]
    )
    emit("BENCH_parallel", report)

    if n_cpus >= BENCH_WORKERS:
        assert speedup >= SPEEDUP_FLOOR, (
            f"parallel fan-out reached only {speedup:.2f}x on {n_cpus} CPUs "
            f"(floor {SPEEDUP_FLOOR}x)"
        )


if __name__ == "__main__":
    test_parallel_fanout_speedup()
