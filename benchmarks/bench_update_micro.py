"""Micro-benchmarks: per-event update latency of every SliceNStitch variant.

These are conventional pytest-benchmark measurements (many rounds of a single
event update), complementing the experiment-level timings of Fig. 5 and
supporting Observation 2 (per-update cost ordering: SNS+_RND and SNS_RND stay
bounded by θ, SNS_VEC scales with the row degree, SNS_MAT touches the whole
window).

``test_batched_vs_sequential_throughput`` additionally compares the batched
event engine (``run_batched`` / ``update_batch``) against per-event replay
— pure window replay and every variant, events/sec side by side — and writes
the numbers to ``results/BENCH_update_micro.json``.  Pure replay is timed on
three drains: the reference per-event loop (``benchmarks/reference_drain.py``,
the bar's denominator), the per-event engine (``run()``: batches of one from
the processor's one drain) and the batched engine, each repeated within a
timed round until the round lasts ``MIN_ROUND_SECONDS``, over
``ENGINE_ROUNDS`` alternating rounds; the bar is the median of the per-round
batched / reference ratios.  Its ``randomized``
section measures the SNS-RND / SNS-RND+ per-event loop and engine path
(vectorised flat-index sampling + batched updates) and enforces the >= 3x
acceptance bar against the seed implementation's recorded per-event
throughput.
"""

from __future__ import annotations

import itertools
import math
import os
import statistics
import time

import pytest

from benchmarks._reporting import emit, emit_json
from benchmarks.conftest import bench_scale, scaled_events, thread_settings
from benchmarks.reference_drain import reference_run

from repro.als.als import decompose
from repro.kernels.registry import resolve_backend
from repro.core.base import SNSConfig
from repro.core.registry import ALGORITHMS, create_algorithm
from repro.data.generators import generate_dataset
from repro.stream.processor import ContinuousStreamProcessor
from repro.stream.window import WindowConfig


#: Workload of every benchmark in this module (also recorded in the JSON).
BENCH_DATASET = "nyc_taxi"
BENCH_SCALE = 0.2

#: Per-event throughput (events/sec) of the randomised variants as recorded
#: by the seed implementation's own benchmark run on the reference container
#: (the values committed in BENCH_update_micro.json before the vectorised
#: sampler landed), at this module's canonical workload (nyc_taxi @ 0.2,
#: 1500 model events).  The engine-path acceptance bar is measured against
#: these.
SEED_SEQUENTIAL_EVENTS_PER_SECOND = {
    "sns_rnd": 1341.3703187351832,
    "sns_rnd_plus": 1358.3879231710134,
}


@pytest.fixture(scope="module")
def prepared_stream():
    """A mid-size NY-Taxi-like stream with an ALS initialisation."""
    stream, spec = generate_dataset(BENCH_DATASET, scale=BENCH_SCALE)
    config = WindowConfig(
        mode_sizes=spec.mode_sizes,
        window_length=spec.window_length,
        period=spec.period,
    )
    processor = ContinuousStreamProcessor(stream, config)
    initial = decompose(processor.window.tensor, rank=spec.rank, n_iterations=8, seed=0)
    return stream, spec, config, initial.decomposition


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_update_latency(benchmark, prepared_stream, name):
    """Median latency of a single factor-matrix update for one event."""
    stream, spec, config, initial = prepared_stream
    processor = ContinuousStreamProcessor(stream, config)
    model = create_algorithm(
        name, SNSConfig(rank=spec.rank, theta=spec.theta, eta=spec.eta, seed=0)
    )
    model.initialize(processor.window, initial)
    events = itertools.cycle(
        [delta for _, delta in processor.events(max_events=400)]
    )

    benchmark(lambda: model.update(next(events)))
    assert model.n_updates > 0


#: Shortest timed round of a pure replay.  One replay of the batched engine
#: takes 55-110 ms at full size, and rounds that short followed the host's
#: load: one of five full-size runs read 2.60 against the 3.0 bar.
MIN_ROUND_SECONDS = 0.5

#: Timed rounds of the pure replays.  The engine-replay bar is the median of
#: the per-round ratios: the best of each drain over three rounds let a load
#: spike that hit only the batched rounds decide it (2.93 against 3.0 in one
#: of twenty full-size runs on a shared 2-vCPU host).
ENGINE_ROUNDS = 5


def _timed_rounds(
    *functions, rounds: int = 3, min_round_seconds: float = 0.0
) -> tuple[list[list[float]], list[int]]:
    """Wall-clock seconds per call of each function, in each of ``rounds`` rounds.

    Each round runs every function in turn, back to back, so load that comes
    and goes during the measurement falls on all of them alike, and a ratio
    of two functions' times taken within one round cancels load that spans
    both.  With ``min_round_seconds`` a function is called, within one timed
    round, as many times as one untimed call says it takes to last that
    long.  Returns one list of seconds per call per function, and the calls
    per round.
    """
    calls = [1] * len(functions)
    if min_round_seconds > 0:
        for position, function in enumerate(functions):
            start = time.perf_counter()
            function()
            elapsed = time.perf_counter() - start
            calls[position] = max(1, math.ceil(min_round_seconds / elapsed))
    seconds: list[list[float]] = [[] for _ in functions]
    for _ in range(rounds):
        for position, function in enumerate(functions):
            start = time.perf_counter()
            for _ in range(calls[position]):
                function()
            elapsed = time.perf_counter() - start
            seconds[position].append(elapsed / calls[position])
    return seconds, calls


def test_batched_vs_sequential_throughput(prepared_stream):
    """Events/sec of the batched engine vs per-event replay, side by side.

    Pure replay (no model) isolates the engine itself: scheduler drain,
    delta construction, and window maintenance.  This is where draining a
    whole batch window at once pays off, and where the >= 3x acceptance
    bar of the batched-engine work is enforced — against the reference
    per-event loop, which shares no drain code with either engine, so a
    faster per-event engine cannot read as a batched regression.  The
    per-event engine's own replay rate and its ratio to the reference are
    recorded beside it.  The per-variant rows then show the end-to-end gain
    when the (exactly per-event-equivalent) factor updates dominate.
    """
    stream, spec, config, initial = prepared_stream
    n_events = scaled_events(20000, minimum=4000)
    n_model_events = scaled_events(1500, minimum=400)

    # ------------------------------------------------------------------
    # Randomised variants: per-event loop vs the engine path
    # ------------------------------------------------------------------
    # Measured first (before the machine warms up under the rest of the
    # suite) and round-robin interleaved, so both paths of one variant see
    # comparable conditions: the per-event loop (the events() generator)
    # and the engine path (run_batched / update_batch).
    randomized = {}
    for name in ("sns_rnd", "sns_rnd_plus"):

        def run_randomized(batched: bool) -> float:
            sns_config = SNSConfig(
                rank=spec.rank, theta=spec.theta, eta=spec.eta, seed=0
            )
            processor = ContinuousStreamProcessor(stream, config)
            model = create_algorithm(name, sns_config)
            model.initialize(processor.window, initial)
            start = time.perf_counter()
            if batched:
                processor.run_batched(model=model, max_events=n_model_events)
            else:
                for _, delta in processor.events(max_events=n_model_events):
                    model.update(delta)
            return time.perf_counter() - start

        vectorized_seconds = float("inf")
        engine_seconds = float("inf")
        for _ in range(7):
            vectorized_seconds = min(vectorized_seconds, run_randomized(False))
            engine_seconds = min(engine_seconds, run_randomized(True))
        engine_path = n_model_events / engine_seconds
        seed_reference = SEED_SEQUENTIAL_EVENTS_PER_SECOND[name]
        randomized[name] = {
            "n_events": n_model_events,
            "vectorized_sequential_events_per_second": n_model_events
            / vectorized_seconds,
            "vectorized_batched_events_per_second": engine_path,
            "seed_recorded_sequential_events_per_second": seed_reference,
            "speedup_engine_vs_seed_per_event": engine_path / seed_reference,
        }

    def run_reference() -> None:
        reference_run(ContinuousStreamProcessor(stream, config), max_events=n_events)

    def run_per_event() -> None:
        ContinuousStreamProcessor(stream, config).run(max_events=n_events)

    def run_batched() -> None:
        ContinuousStreamProcessor(stream, config).run_batched(max_events=n_events)

    # The three drains alternate round by round, the reference loop and the
    # batched engine back to back.  "sequential" is the reference loop: the
    # loop run() ran when the older baselines were recorded.  Rates are the
    # median round's; the speedups are medians of per-round ratios.
    (sequential_rounds, batched_rounds, per_event_rounds), calls = _timed_rounds(
        run_reference, run_batched, run_per_event,
        rounds=ENGINE_ROUNDS, min_round_seconds=MIN_ROUND_SECONDS,
    )
    round_speedups = [
        sequential / batched
        for sequential, batched in zip(sequential_rounds, batched_rounds)
    ]
    engine = {
        "n_events": n_events,
        "min_round_seconds": MIN_ROUND_SECONDS,
        "rounds": ENGINE_ROUNDS,
        "replays_per_round": dict(zip(("reference", "batched", "per_event"), calls)),
        "sequential_events_per_second": n_events / statistics.median(sequential_rounds),
        "per_event_events_per_second": n_events / statistics.median(per_event_rounds),
        "batched_events_per_second": n_events / statistics.median(batched_rounds),
        "speedup": statistics.median(round_speedups),
        "round_speedups": round_speedups,
        "per_event_speedup": statistics.median(
            sequential / per_event
            for sequential, per_event in zip(sequential_rounds, per_event_rounds)
        ),
    }

    variants = {}
    for name in sorted(ALGORITHMS):
        sns_config = SNSConfig(
            rank=spec.rank, theta=spec.theta, eta=spec.eta, seed=0
        )

        def run_model_sequential() -> None:
            processor = ContinuousStreamProcessor(stream, config)
            model = create_algorithm(name, sns_config)
            model.initialize(processor.window, initial)
            for _, delta in processor.events(max_events=n_model_events):
                model.update(delta)

        def run_model_batched() -> None:
            processor = ContinuousStreamProcessor(stream, config)
            model = create_algorithm(name, sns_config)
            model.initialize(processor.window, initial)
            processor.run_batched(model=model, max_events=n_model_events)

        (model_sequential_rounds, model_batched_rounds), _ = _timed_rounds(
            run_model_sequential, run_model_batched
        )
        model_sequential_seconds = min(model_sequential_rounds)
        model_batched_seconds = min(model_batched_rounds)
        variants[name] = {
            "n_events": n_model_events,
            "sequential_events_per_second": n_model_events
            / model_sequential_seconds,
            "batched_events_per_second": n_model_events / model_batched_seconds,
            "speedup": model_sequential_seconds / model_batched_seconds,
        }

    lines = [
        "batched event engine vs per-event replay (events/sec)",
        "",
        "pure replay: reference per-event loop, per-event engine, batched "
        f"(median of {ENGINE_ROUNDS} alternating rounds, each >= "
        f"{MIN_ROUND_SECONDS:g} s: "
        + ", ".join(f"{n} x {name}" for name, n in engine["replays_per_round"].items())
        + ")",
        f"{'':<16}{'reference':>12}{'per-event':>12}{'batched':>12}",
        f"{'engine (replay)':<16}"
        f"{engine['sequential_events_per_second']:>12.0f}"
        f"{engine['per_event_events_per_second']:>12.0f}"
        f"{engine['batched_events_per_second']:>12.0f}",
        f"{'vs reference':<16}{'':>12}"
        f"{engine['per_event_speedup']:>11.2f}x"
        f"{engine['speedup']:>11.2f}x",
        "batched vs reference per round: "
        + ", ".join(f"{ratio:.2f}x" for ratio in round_speedups),
        "",
        "variants: per-event engine + update vs run_batched(model) "
        "(best of 3 alternating rounds)",
        f"{'variant':<16}{'sequential':>12}{'batched':>12}{'speedup':>9}",
    ]
    for name, row in variants.items():
        lines.append(
            f"{name:<16}"
            f"{row['sequential_events_per_second']:>12.0f}"
            f"{row['batched_events_per_second']:>12.0f}"
            f"{row['speedup']:>8.2f}x"
        )
    lines += [
        "",
        "randomized variants: engine path (vectorized sampling + update_batch)",
        f"{'variant':<16}{'seed(rec)':>10}{'vec-seq':>9}"
        f"{'engine':>9}{'vs seed':>9}",
    ]
    for name, row in randomized.items():
        lines.append(
            f"{name:<16}"
            f"{row['seed_recorded_sequential_events_per_second']:>10.0f}"
            f"{row['vectorized_sequential_events_per_second']:>9.0f}"
            f"{row['vectorized_batched_events_per_second']:>9.0f}"
            f"{row['speedup_engine_vs_seed_per_event']:>8.2f}x"
        )
    # What "auto" resolves to on this machine — the backend every model
    # above actually ran on — plus the thread pinning in effect, so two
    # JSON files are only ever compared like for like.
    kernel_backend = resolve_backend().name
    lines += ["", f"kernel backend: {kernel_backend}"]
    report = "\n".join(lines)
    emit("BENCH_update_micro", report)
    emit_json(
        "BENCH_update_micro",
        {
            "benchmark": "bench_update_micro",
            "dataset": BENCH_DATASET,
            "scale": BENCH_SCALE,
            "kernel_backend": kernel_backend,
            "environment": thread_settings(),
            "engine_replay": engine,
            "variants": variants,
            "randomized": randomized,
        },
    )

    # Acceptance bars.  At the canonical full-scale workload the batched
    # engine must replay events >= 3x faster than the reference per-event
    # loop, and the randomised engine path must beat the seed's recorded
    # per-event throughput (same container family, same workload) by >= 3x.
    # On scaled-down runs (CI quick mode / slow machines) absolute numbers
    # and amortisation behave differently, so a relaxed engine-replay floor
    # applies instead.  The seed comparison is an absolute bar tied to the
    # reference container the seed numbers were recorded on; on different
    # hardware set REPRO_BENCH_SEED_BAR=0 to skip it.  Model-path
    # batched-vs-sequential speedups and the per-event engine's ratio to the
    # reference are informative only (the regression gate watches the
    # per-event engine's replay rate) — both engines run the same per-event
    # update rule.
    canonical = bench_scale() >= 1.0 and n_model_events == 1500
    enforce_seed_bar = os.environ.get("REPRO_BENCH_SEED_BAR", "1") != "0"
    assert engine["speedup"] >= (3.0 if canonical else 2.0), report
    if canonical and enforce_seed_bar:
        for row in randomized.values():
            assert row["speedup_engine_vs_seed_per_event"] >= 3.0, report
