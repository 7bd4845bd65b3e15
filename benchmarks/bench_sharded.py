"""Relaxed batch update: gated accuracy and speed over a batch_window sweep.

Replays two streams — nyc_taxi @ 0.2 and ride_austin @ 0.3, 4,000 events
each — once exactly and once per batch window ``T/64``, ``T/16``, ``T/4``
and ``T`` with the relaxed batch update (see :mod:`repro.core.relaxed`), for
one least-squares variant (``sns_vec``) and one clipped, sampled one
(``sns_rnd_plus``; in relaxed mode θ is unused and it runs the clipped
coordinate-descent rule of ``sns_vec_plus``).  Every point is gated:

* ``deviation_within_bound`` — the final-fitness deviation from the exact
  run is at most ``DEVIATION_BOUND`` at every point;
* ``no_negative_fitness`` — no relaxed fitness sample, at any point of any
  replay, is below zero;
* ``meets_speedup_floor`` — at the ``T`` point, relaxed throughput reaches
  ``SPEEDUP_FLOOR`` times the exact run's for every dataset and variant.
  The speed comes from solving each touched row once per batch, not from
  parallelism, so the floor holds on any CPU count.

Throughput is events per CPU second of the replay (``time.process_time``;
fitness sampling excluded).  Each replay also records, ungated, a
fitness-over-time series (the paper's Fig. 4) every ``1/N_SAMPLES`` of the
events; the exact series is driven at ``T/64``, which changes nothing but
its sampling grain because the exact path is bit-identical on any batching.

A served stream's batches are its ingest chunks, cut at ``batch_window``
(default ``T``), so their size is the client's choice.  The ``served`` point
replays streams shaped like perfbench's ``service_tcp`` tenants (8 x 6
modes, ``W`` 4, ``T`` 10, rank 4, 50 records per period) through
:class:`~repro.service.session.StreamSession` in 50-record chunks, once per
generator seed, exact and relaxed.  Its relaxed fitness samples (one per
chunk) join ``no_negative_fitness``.  Its deviation from exact is recorded,
not gated: exact SNS_VEC is itself unstable on this small dense tensor (at
40 chunks it ends at -0.33 on seed 101, where the relaxed stream ends at
0.84), so there the deviation measures the exact run.

Results land in ``results/BENCH_sharded.json`` / ``.txt``; the regression
gate enforces the three flags plus the exact-path throughput on nyc_taxi
(``exact.sns_vec.events_per_second``).
"""

from __future__ import annotations

import os
import time

from benchmarks._reporting import emit, emit_json
from benchmarks.conftest import scaled_events, thread_settings

from repro.core.base import SNSConfig
from repro.core.registry import create_algorithm
from repro.data.generators import SyntheticStreamConfig, generate_stream
from repro.experiments.config import ExperimentSettings
from repro.experiments.runner import prepare_experiment
from repro.service.config import StreamConfig
from repro.service.session import StreamSession
from repro.stream.processor import ContinuousStreamProcessor

#: (dataset, scale) of the swept streams; the first one feeds the top-level
#: ``exact`` entry the regression gate watches.
BENCH_DATASETS = (("nyc_taxi", 0.2), ("ride_austin", 0.3))
BENCH_EVENTS = 4000
#: The variants benchmarked: the least-squares family representative and
#: the clipped + sampled one.
BENCH_METHODS = ("sns_vec", "sns_rnd_plus")
#: Batch windows as divisors of the period ``T``.
SWEEP_DIVISORS = (64, 16, 4, 1)
#: Accuracy bar: max |final_fitness(relaxed) - final_fitness(exact)| over
#: every point.  Observed worst on the committed workload: 0.0235
#: (sns_rnd_plus, nyc_taxi, T/16), at 1,000 and at 4,000 events.
DEVIATION_BOUND = 0.05
SPEEDUP_FLOOR = 2.0
#: Fitness samples per replay for the ungated series.
N_SAMPLES = 16
#: The served point: the ``service_tcp`` tenants' stream config, the
#: generator seeds of its first three tenants, and the chunking.
SERVED_STREAM = {
    "mode_sizes": (8, 6),
    "window_length": 4,
    "period": 10.0,
    "rank": 4,
    "als_iterations": 4,
    "detector_warmup": 20,
    "seed": 0,
}
SERVED_SEEDS = (100, 101, 102)
SERVED_CHUNKS = 40
SERVED_CHUNK_RECORDS = 50


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _label(divisor: int) -> str:
    return "T" if divisor == 1 else f"T/{divisor}"


def _drive(prepared, method: str, n_events: int, relaxed: bool, batch_window):
    """One batched replay: (final fitness, batches, events per CPU s, series)."""
    stream, spec, window_config, initial, _initial_fitness = prepared
    processor = ContinuousStreamProcessor(stream, window_config)
    model = create_algorithm(
        method,
        SNSConfig(
            rank=spec.rank, theta=spec.theta, eta=spec.eta, seed=0, relaxed=relaxed
        ),
    )
    model.initialize(processor.window, initial)
    every = max(n_events // N_SAMPLES, 1)
    series = [[0, float(model.fitness())]]
    n_batches = 0
    sampling = 0.0
    start = time.process_time()
    for batch in processor.iter_batches(max_events=n_events, batch_window=batch_window):
        model.update_batch(batch)
        n_batches += 1
        if model.n_updates // every > series[-1][0] // every:
            sampled = time.process_time()
            series.append([model.n_updates, float(model.fitness())])
            sampling += time.process_time() - sampled
    seconds = time.process_time() - start - sampling
    if series[-1][0] != model.n_updates:
        series.append([model.n_updates, float(model.fitness())])
    events_per_second = model.n_updates / seconds if seconds > 0 else 0.0
    return series[-1][1], n_batches, events_per_second, series


def _sweep_dataset(dataset: str, scale: float, n_events: int, lines: list[str]):
    prepared = prepare_experiment(
        ExperimentSettings(dataset=dataset, scale=scale, max_events=n_events)
    )
    period = prepared[2].period
    lines.append(f"{dataset} @ {scale}: {n_events} events, T = {period:g}")
    exact: dict[str, dict[str, object]] = {}
    points: dict[str, list[dict[str, object]]] = {}
    for method in BENCH_METHODS:
        fitness, _, eps, series = _drive(
            prepared, method, n_events, False, period / SWEEP_DIVISORS[0]
        )
        exact[method] = {
            "final_fitness": fitness,
            "events_per_second": eps,
            "series": series,
        }
        lines.append(
            f"  {method:13s} exact  fitness={fitness:+.4f} {eps:9.0f} ev/CPU-s"
        )
        points[method] = []
        for divisor in SWEEP_DIVISORS:
            relaxed, n_batches, relaxed_eps, relaxed_series = _drive(
                prepared, method, n_events, True, period / divisor
            )
            deviation = abs(relaxed - fitness)
            ratio = relaxed_eps / eps if eps > 0 else 0.0
            points[method].append(
                {
                    "batch_window": _label(divisor),
                    "batches": n_batches,
                    "final_fitness": relaxed,
                    "fitness_deviation": deviation,
                    "min_fitness": min(value for _, value in relaxed_series),
                    "events_per_second": relaxed_eps,
                    "throughput_ratio": ratio,
                    "series": relaxed_series,
                }
            )
            lines.append(
                f"  {method:13s} {_label(divisor):>5s}  batches={n_batches:3d} "
                f"fitness={relaxed:+.4f} deviation={deviation:.4f} "
                f"({ratio:.1f}x exact)"
            )
    return {"scale": scale, "period": period, "exact": exact, "points": points}


def _serve(seed: int, n_chunks: int, method: str, relaxed: bool):
    """One served replay: (batches per chunk, fitness after every chunk)."""
    span = SERVED_STREAM["window_length"] * SERVED_STREAM["period"]
    n_live = n_chunks * SERVED_CHUNK_RECORDS
    records = list(
        generate_stream(
            SyntheticStreamConfig(
                mode_sizes=SERVED_STREAM["mode_sizes"],
                rank=3,
                # 1.5x the 200 records of the initial window, then the chunks.
                n_records=300 + n_live,
                period=SERVED_STREAM["period"],
                records_per_period=50.0,
                seed=seed,
            )
        )
    )
    warm = [record for record in records if record.time <= records[0].time + span]
    live = records[len(warm) :][:n_live]
    session = StreamSession(
        "served", StreamConfig(method=method, relaxed=relaxed, **SERVED_STREAM)
    )
    session.ingest(warm)
    session.start()
    batches = session.telemetry.batches_applied
    fitness = []
    for start in range(0, n_live, SERVED_CHUNK_RECORDS):
        session.ingest(live[start : start + SERVED_CHUNK_RECORDS])
        fitness.append(session.fitness()["fitness"])
    return (session.telemetry.batches_applied - batches) / n_chunks, fitness


def _served_points(n_chunks: int, lines: list[str]):
    lines.append(
        f"served: {n_chunks} chunks of {SERVED_CHUNK_RECORDS} records, "
        f"batch_window T, generator seeds {list(SERVED_SEEDS)}"
    )
    points: dict[str, list[dict[str, object]]] = {}
    for method in BENCH_METHODS:
        points[method] = []
        for seed in SERVED_SEEDS:
            _, exact = _serve(seed, n_chunks, method, False)
            per_chunk, relaxed = _serve(seed, n_chunks, method, True)
            deviation = relaxed[-1] - exact[-1]
            points[method].append(
                {
                    "generator_seed": seed,
                    "batches_per_chunk": per_chunk,
                    "exact_fitness": exact[-1],
                    "final_fitness": relaxed[-1],
                    "fitness_deviation": abs(deviation),
                    "min_fitness": min(relaxed),
                }
            )
            lines.append(
                f"  {method:13s} seed {seed}  batches/chunk={per_chunk:.2f} "
                f"exact={exact[-1]:+.4f} relaxed={relaxed[-1]:+.4f} "
                f"({deviation:+.4f}) min={min(relaxed):+.4f}"
            )
    return points


def test_relaxed_sweep():
    n_events = scaled_events(BENCH_EVENTS, minimum=1000)
    n_chunks = scaled_events(SERVED_CHUNKS, minimum=10)
    lines = [
        f"relaxed batch update, batch_window sweep "
        f"{[_label(divisor) for divisor in SWEEP_DIVISORS]}, "
        f"usable CPUs: {_usable_cpus()}"
    ]
    datasets = {
        dataset: _sweep_dataset(dataset, scale, n_events, lines)
        for dataset, scale in BENCH_DATASETS
    }
    all_points = [
        point
        for result in datasets.values()
        for method_points in result["points"].values()
        for point in method_points
    ]
    served = _served_points(n_chunks, lines)
    served_points = [point for points in served.values() for point in points]
    max_deviation = max(point["fitness_deviation"] for point in all_points)
    min_fitness = min(point["min_fitness"] for point in all_points + served_points)
    min_speedup = min(
        point["throughput_ratio"]
        for point in all_points
        if point["batch_window"] == _label(1)
    )
    within_bound = bool(max_deviation <= DEVIATION_BOUND)
    no_negative = bool(min_fitness >= 0.0)
    meets_floor = bool(min_speedup >= SPEEDUP_FLOOR)
    lines += [
        f"max fitness deviation: {max_deviation:.4f} "
        f"(bound {DEVIATION_BOUND}) -> {'ok' if within_bound else 'EXCEEDED'}",
        f"max served deviation (ungated): "
        f"{max(point['fitness_deviation'] for point in served_points):.4f}",
        f"min relaxed fitness: {min_fitness:+.4f} -> "
        f"{'ok' if no_negative else 'NEGATIVE'}",
        f"min throughput ratio at T: {min_speedup:.1f}x "
        f"(floor {SPEEDUP_FLOOR}x) -> {'ok' if meets_floor else 'MISSED'}",
    ]
    first_dataset = BENCH_DATASETS[0][0]
    payload = {
        "workload": {
            "datasets": [list(entry) for entry in BENCH_DATASETS],
            "events": n_events,
            "methods": list(BENCH_METHODS),
            "batch_windows": [_label(divisor) for divisor in SWEEP_DIVISORS],
            "timing": "events per CPU second, fitness sampling excluded",
        },
        "thread_context": thread_settings(),
        "n_usable_cpus": _usable_cpus(),
        "exact": {
            method: {
                key: value for key, value in entry.items() if key != "series"
            }
            for method, entry in datasets[first_dataset]["exact"].items()
        },
        "datasets": datasets,
        "served": {
            "stream": dict(SERVED_STREAM),
            "chunks": n_chunks,
            "chunk_records": SERVED_CHUNK_RECORDS,
            "points": served,
        },
        "max_fitness_deviation": max_deviation,
        "deviation_bound": DEVIATION_BOUND,
        "deviation_within_bound": within_bound,
        "min_relaxed_fitness": min_fitness,
        "no_negative_fitness": no_negative,
        "min_throughput_ratio_at_T": min_speedup,
        "speedup_floor": SPEEDUP_FLOOR,
        "meets_speedup_floor": meets_floor,
    }
    emit_json("BENCH_sharded", payload)
    emit("BENCH_sharded", "\n".join(lines))

    assert within_bound, (
        f"relaxed fitness deviated {max_deviation:.4f} from exact "
        f"(bound {DEVIATION_BOUND})"
    )
    assert no_negative, f"relaxed fitness fell to {min_fitness:+.4f}"
    assert meets_floor, (
        f"relaxed throughput at T reached only {min_speedup:.2f}x exact "
        f"(floor {SPEEDUP_FLOOR}x)"
    )


if __name__ == "__main__":
    test_relaxed_sweep()
