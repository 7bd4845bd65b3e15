"""The two library workloads on the synthetic NY-Taxi stream.

``taxi_vec_events``
    SNS_VEC on the per-event engine: ``processor.events()`` then
    ``model.update(delta)`` for every event — the paper's µs-per-update
    protocol and the CLI's default engine.
``taxi_rndplus_batched``
    SNS+_RND (θ = 20) on the batched engine: ``iter_batches`` then
    ``score_batch`` (z-score detector, then ``update_batch``) with a batch
    window of two time units, so a pass holds well over a hundred batches.

A *pass* builds the program state from the generated stream (window
bootstrap, ALS initialisation, ``initialize``; that is the set-up time),
replays the first ``n_events`` events, reads the window fitness every
``READ_EVERY`` events (a client polling the model, as in the paper's
fitness-over-time study), and finally checkpoints processor and model (the
durability barrier at the end of the stream).  A run repeats passes until
its time is used up; every pass must end in bit-identical factors, which
must also match the reference recorded for the seed in ``references.json``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import shutil
import time
from pathlib import Path

import numpy as np

from common import OUT, Metrics, Tracer, cpu_ticks, directory_bytes
from common import median, pct, peak_rss_mb, relabel, require, steal_pct
from hooks import TIMED_BACKEND, register_timed_backend, timed_next, traced_score_batch

from repro import (
    ContinuousStreamProcessor,
    EventKind,
    SNSConfig,
    WindowConfig,
    create_algorithm,
    decompose,
)
from repro.anomaly import ZScoreDetector, score_batch
from repro.data import generate_dataset
from repro.kernels import KERNEL_NAMES
from repro.stream.checkpoint import restore_run
from repro.stream.stream import MultiAspectStream

ALS_ITERATIONS = 10
#: ALS sweeps of the offline reference behind ``relative_fitness``.
REFERENCE_ALS_ITERATIONS = 20
READ_EVERY = 200
BATCH_WINDOW = 2.0
DETECTOR_WARMUP = 50
#: Recorded fitness and factor fingerprints, per workload and seed
#: (written by ``record_references.py``).
REFERENCES = Path(__file__).with_name("references.json")
#: Relative tolerance of the recorded-reference check.  A build that
#: reorders floating-point work may move the last digits; a wrong result
#: moves them by far more.
REFERENCE_RTOL = 1e-6
#: Columns of the (wall, thread CPU) clock pairs a pass records.
WALL, CPU = 0, 1


@dataclasses.dataclass(frozen=True)
class TaxiWorkload:
    name: str
    method: str
    engine: str  # "events" or "batched"
    op_name: str
    op_tail: float  # percentile reported as op_ms_tail
    window_ops: int  # ops per stream position (about 0.1 s)
    read_tail: float = 90.0
    n_events: int = 8000
    scale: float = 1.0


WORKLOADS = {
    "taxi_vec_events": TaxiWorkload(
        "taxi_vec_events", "sns_vec", "events", "update(delta)", 99.0, 250
    ),
    "taxi_rndplus_batched": TaxiWorkload(
        "taxi_rndplus_batched", "sns_rnd_plus", "batched", "score_batch", 95.0, 4
    ),
}


@dataclasses.dataclass
class PassResult:
    traced: bool
    #: (wall, CPU) seconds of the set-up.
    setup_s: tuple
    bootstrap_s: float
    als_s: float
    replay_s: float
    drain_s: float
    n_events: int
    n_batches: int
    n_scores: int
    #: (wall, CPU) seconds of each op.
    op_s: np.ndarray
    #: (wall, CPU) clocks at the replay start and after each op and its reads.
    marks: np.ndarray
    op_events: list  # events each op applied
    #: (wall, CPU) seconds of each fitness read.
    read_s: np.ndarray
    reads: list
    fitness: float
    factors: list
    checkpoint_bytes: int = 0


@functools.lru_cache(maxsize=1)
def base_dataset(scale: float):
    """The unrelabelled synthetic stream (seed-independent, so built once)."""
    return generate_dataset("nyc_taxi", scale)


def make_inputs(seed: int, workload: TaxiWorkload):
    """The synthetic NY-Taxi stream relabelled by ``seed`` (not timed)."""
    base, spec = base_dataset(workload.scale)
    stream = MultiAspectStream(
        relabel(base, spec.mode_sizes, seed),
        mode_sizes=spec.mode_sizes,
        mode_names=spec.mode_names,
    )
    config = WindowConfig(
        mode_sizes=spec.mode_sizes,
        window_length=spec.window_length,
        period=spec.period,
    )
    return stream, spec, config


def set_up(inputs, workload: TaxiWorkload, backend: str = "auto"):
    """Window bootstrap, ALS init and ``initialize``.

    Returns the processor, the model and ``((wall, CPU) set-up seconds,
    bootstrap seconds, ALS seconds)``.
    """
    stream, spec, config = inputs
    clock = time.perf_counter
    cpu_started = time.thread_time()
    started = clock()
    processor = ContinuousStreamProcessor(stream, config)
    bootstrapped = clock()
    initial = decompose(
        processor.window.tensor,
        rank=spec.rank,
        n_iterations=ALS_ITERATIONS,
        seed=0,
    ).decomposition
    decomposed = clock()
    model = create_algorithm(
        workload.method,
        SNSConfig(rank=spec.rank, theta=spec.theta, eta=spec.eta, backend=backend),
    )
    model.initialize(processor.window, initial)
    setup = (clock() - started, time.thread_time() - cpu_started)
    return processor, model, (setup, bootstrapped - started, decomposed - bootstrapped)


def run_pass(inputs, workload: TaxiWorkload, tracer: Tracer | None, checkpoint_dir) -> PassResult:
    """One set-up, replay, read and checkpoint cycle."""
    clock = time.perf_counter
    cpu_clock = time.thread_time
    processor, model, (setup_s, bootstrap_s, als_s) = set_up(
        inputs, workload, TIMED_BACKEND if tracer else "auto"
    )
    fitness = model.fitness
    if tracer:
        fitness = tracer.wrap("metrics.fitness", model.fitness)
    op_s: list = []
    marks: list = []
    op_events: list[int] = []
    read_s: list = []
    reads: list[float] = []
    n_events = n_batches = 0
    next_read = READ_EVERY
    detector = None

    def read_due() -> tuple[float, float]:
        """Read the fitness at every ``READ_EVERY`` events; returns the clocks."""
        nonlocal next_read
        while n_events >= next_read:
            started = clock(), cpu_clock()
            reads.append(fitness())
            read_s.append((clock() - started[WALL], cpu_clock() - started[CPU]))
            next_read += READ_EVERY
        return clock(), cpu_clock()

    marks.append((clock(), cpu_clock()))
    replay_started = marks[0][WALL]
    if workload.engine == "events":
        update = tracer.wrap("core.update", model.update) if tracer else model.update
        events = processor.events(max_events=workload.n_events)
        if tracer:
            events = timed_next(events, tracer)
        for _, delta in events:
            started = clock(), cpu_clock()
            update(delta)
            ended = clock(), cpu_clock()
            op_s.append((ended[WALL] - started[WALL], ended[CPU] - started[CPU]))
            op_events.append(1)
            n_events += 1
            marks.append(read_due() if n_events >= next_read else ended)
        n_batches = n_events
    else:
        detector = ZScoreDetector(warmup=DETECTOR_WARMUP)
        score = traced_score_batch(tracer) if tracer else score_batch
        batches = processor.iter_batches(
            max_events=workload.n_events, batch_window=BATCH_WINDOW
        )
        if tracer:
            batches = timed_next(batches, tracer)
        for batch in batches:
            started = clock(), cpu_clock()
            score(model, batch, detector)
            ended = clock(), cpu_clock()
            op_s.append((ended[WALL] - started[WALL], ended[CPU] - started[CPU]))
            op_events.append(batch.n_events)
            n_events += batch.n_events
            n_batches += 1
            marks.append(read_due() if n_events >= next_read else ended)
    replay_s = clock() - replay_started
    extra = {"detector": detector.state_dict()} if detector is not None else None
    started = clock()
    processor.save_checkpoint(checkpoint_dir, model=model, extra=extra)
    drain_s = clock() - started
    return PassResult(
        traced=tracer is not None,
        setup_s=setup_s,
        bootstrap_s=bootstrap_s,
        als_s=als_s,
        replay_s=replay_s,
        drain_s=drain_s,
        n_events=n_events,
        n_batches=n_batches,
        n_scores=detector.count if detector is not None else 0,
        op_s=np.array(op_s, dtype=np.float64).reshape(-1, 2),
        marks=np.array(marks, dtype=np.float64),
        op_events=op_events,
        read_s=np.array(read_s, dtype=np.float64).reshape(-1, 2),
        reads=reads,
        fitness=float(model.fitness()),
        factors=[factor.copy() for factor in model.factors],
        checkpoint_bytes=directory_bytes(checkpoint_dir),
    )


def position_best(passes: list[PassResult], window_ops: int, column: int):
    """Replay time, op times and read times, position by position.

    Every pass replays the same events, so the stream is cut into windows of
    ``window_ops`` ops at fixed positions, and each window counts with the
    least time any pass took for it (on the clock in ``column``).  Other
    tenants of a shared machine slow whole seconds of a run; this keeps their
    effect out while every part of the stream still counts once.  Returns
    ``(seconds, op seconds of the chosen windows, best seconds per read)``.
    """
    n_ops = len(passes[0].op_events)
    starts = list(range(0, max(n_ops - window_ops, 0) + 1, window_ops))
    seconds = 0.0
    ops: list[float] = []
    for low, high in zip(starts, starts[1:] + [n_ops]):
        best = min(passes, key=lambda p: p.marks[high, column] - p.marks[low, column])
        seconds += best.marks[high, column] - best.marks[low, column]
        ops.extend(best.op_s[low:high, column])
    reads = np.min([p.read_s[:, column] for p in passes], axis=0)
    return seconds, ops, reads.tolist()


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def fingerprint(factors) -> dict:
    """A digest of the factors' bits, and sums that move with their values."""
    digest = hashlib.sha256()
    weights = np.random.default_rng(0)
    sums = []
    for factor in factors:
        factor = np.ascontiguousarray(factor, dtype=np.float64)
        digest.update(factor.tobytes())
        sums += [float(np.sum(factor * factor)),
                 float(np.sum(factor * weights.standard_normal(factor.shape)))]
    return {"digest": digest.hexdigest(), "sums": sums}


def reference_record(fitness: float, factors) -> dict:
    return {"fitness": repr(float(fitness)), **fingerprint(factors)}


def recorded_reference(workload_name: str, seed: int) -> dict | None:
    if not REFERENCES.is_file():
        return None
    return json.loads(REFERENCES.read_text()).get(workload_name, {}).get(str(seed))


def check_reference(recorded: dict | None, fitness: float, factors) -> str:
    """Raise :class:`CheckFailed` unless the result matches the recorded one.

    Returns how it matched: bit for bit, within ``REFERENCE_RTOL``, or not
    at all because no reference is recorded for the seed.
    """
    if recorded is None:
        return "no recorded reference for this seed"
    current = reference_record(fitness, factors)
    if current == recorded:
        return "bit-identical"
    expected = float(recorded["fitness"])
    require(abs(fitness - expected) <= REFERENCE_RTOL * abs(expected),
            f"fitness {fitness!r} != recorded reference {recorded['fitness']}")
    require(
        len(current["sums"]) == len(recorded["sums"])
        and all(abs(a - b) <= REFERENCE_RTOL * max(1.0, abs(b))
                for a, b in zip(current["sums"], recorded["sums"])),
        "factors differ from the recorded reference",
    )
    return f"within {REFERENCE_RTOL:g} of the recorded reference"


def reference_replay(inputs, workload: TaxiWorkload):
    """The same events through the *other* engine; returns (model, processor, arrivals).

    The per-event and batched engines are specified to be bit-identical, so
    this is an independent reference for the measured passes.
    """
    processor, model, _ = set_up(inputs, workload)
    arrivals = 0
    if workload.engine == "events":
        processor.run_batched(
            model, max_events=workload.n_events, batch_window=BATCH_WINDOW
        )
    else:
        for event, delta in processor.events(max_events=workload.n_events):
            model.update(delta)
            arrivals += event.kind is EventKind.ARRIVAL
    return model, processor, arrivals


def check_passes(passes: list[PassResult], reference_factors, reference_fitness: float,
                 reference_arrivals: int, workload: TaxiWorkload) -> None:
    """Raise :class:`CheckFailed` unless every pass matches the reference."""
    require(len(passes) > 0, "no pass completed")
    for position, result in enumerate(passes):
        label = f"pass {position}"
        require(result.n_events == workload.n_events,
                f"{label} applied {result.n_events} events, expected {workload.n_events}")
        require(result.op_events == passes[0].op_events,
                f"{label} split the events into other ops than pass 0")
        require(np.isfinite(result.fitness) and 0.0 < result.fitness <= 1.0,
                f"{label} fitness {result.fitness} is outside (0, 1]")
        require(result.fitness == reference_fitness,
                f"{label} fitness {result.fitness!r} != reference {reference_fitness!r}")
        require(
            len(result.factors) == len(reference_factors)
            and all(np.array_equal(a, b) for a, b in zip(result.factors, reference_factors)),
            f"{label} factors differ from the reference replay",
        )
        require(result.reads == passes[0].reads,
                f"{label} fitness reads differ from pass 0")
        if workload.engine == "batched":
            require(result.n_scores == reference_arrivals,
                    f"{label} scored {result.n_scores} arrivals, the reference "
                    f"replay has {reference_arrivals}")


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def run(workload_name: str, seed: int, seconds: float, trace: bool,
        workload: TaxiWorkload | None = None) -> tuple[Metrics, dict, dict]:
    """Measure one workload; returns (metrics, result counts, details)."""
    workload = workload or WORKLOADS[workload_name]
    inputs = make_inputs(seed, workload)
    tracer = Tracer()
    register_timed_backend(tracer)
    checkpoint_dir = OUT / f"{workload.name}-seed{seed}-checkpoint"
    clock = time.perf_counter
    passes: list[PassResult] = []
    ticks = cpu_ticks()
    deadline = clock() + seconds
    last = 0.0
    # Untraced runs repeat passes while another fits; traced runs alternate
    # untraced and traced passes so the overhead is measured on one input.
    while (
        not passes
        or (trace and len(passes) < 2)
        or clock() + last <= deadline
    ):
        started = clock()
        passes.append(
            run_pass(inputs, workload, tracer if trace and len(passes) % 2 else None,
                     checkpoint_dir)
        )
        last = clock() - started
    steal = steal_pct(ticks, cpu_ticks())

    started = clock()
    restored_processor, restored_model, _ = restore_run(checkpoint_dir)
    recover_s = clock() - started
    model, processor, arrivals = reference_replay(inputs, workload)
    reference_fitness = float(model.fitness())
    check_passes(passes, model.factors, reference_fitness, arrivals, workload)
    matched = check_reference(recorded_reference(workload.name, seed),
                              reference_fitness, model.factors)
    require(
        all(np.array_equal(a, b) for a, b in zip(restored_model.factors, model.factors)),
        "the checkpoint restored different factors",
    )
    offline = decompose(processor.window.tensor, rank=inputs[1].rank,
                        n_iterations=REFERENCE_ALS_ITERATIONS, seed=0)
    relative_fitness = reference_fitness / offline.fitness
    shutil.rmtree(checkpoint_dir, ignore_errors=True)

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    attempted = sum(len(p.op_s) + len(p.read_s) for p in passes)
    details = {
        "passes": f"{len(untraced)} untraced, {len(traced)} traced, "
                  f"{workload.n_events} events each",
        "fitness": repr(reference_fitness),
        "reference": matched,
        "offline_als_fitness": repr(float(offline.fitness)),
        "batches_per_pass": passes[0].n_batches,
        "events_per_s_by_pass": [round(p.n_events / p.replay_s, 1) for p in passes],
        "steal_pct": round(steal, 2),
        "failed_ratio": 0.0,
    }
    metrics = Metrics()
    if not trace:
        n_positions = -(-len(untraced[0].op_events) // workload.window_ops)
        best = f"best of {len(untraced)} passes at each of {n_positions} positions"
        replay, ops, reads = position_best(untraced, workload.window_ops, WALL)
        cpu_replay, cpu_ops, _ = position_best(untraced, workload.window_ops, CPU)
        op_tail = f"p{workload.op_tail:g}"
        metrics.add("setup_s", median([p.setup_s[CPU] for p in untraced]), "s",
                    f"thread CPU time, median of {len(untraced)} set-ups")
        metrics.add("relative_fitness", relative_fitness, "ratio",
                    f"fitness {reference_fitness:.6f} / offline ALS {offline.fitness:.6f}")
        metrics.add("peak_rss_mb", peak_rss_mb(), "MB", "benchmark process")
        metrics.add("events_per_cpu_s", workload.n_events / cpu_replay, "1/s",
                    f"per thread CPU second, {best}", gated=False)
        metrics.add("setup_wall_s", median([p.setup_s[WALL] for p in untraced]), "s",
                    f"median of {len(untraced)} set-ups", gated=False)
        metrics.add("events_per_s", workload.n_events / replay, "1/s",
                    f"per wall second, {best}", gated=False)
        metrics.add("op_ms_p50", pct(ops, 50) * 1e3, "ms",
                    f"{workload.op_name} p50 of {len(ops)}", gated=False)
        metrics.add("op_ms_tail", pct(ops, workload.op_tail) * 1e3, "ms",
                    f"{workload.op_name} {op_tail} of {len(ops)}", gated=False)
        metrics.add("op_cpu_ms_p50", pct(cpu_ops, 50) * 1e3, "ms",
                    f"{workload.op_name} thread CPU time p50 of {len(cpu_ops)}", gated=False)
        metrics.add("read_ms_p50", pct(reads, 50) * 1e3, "ms",
                    f"fitness read p50 of {len(reads)}", gated=False)
        metrics.add("read_ms_tail", pct(reads, workload.read_tail) * 1e3, "ms",
                    f"fitness read p{workload.read_tail:g} of {len(reads)}", gated=False)
        metrics.add("drain_s", median([p.drain_s for p in untraced]), "s",
                    f"end-of-stream checkpoint, median of {len(untraced)}", gated=False)
    else:
        layer_metrics(metrics, tracer, traced, untraced, workload.window_ops, recover_s)
        tracer.dump(OUT / f"{workload.name}-seed{seed}-spans.json")
    return metrics, {"correct": True, "attempted": attempted, "failed": 0}, details


def layer_metrics(metrics: Metrics, tracer: Tracer, traced: list[PassResult],
                  untraced: list[PassResult], window_ops: int, recover_s: float) -> None:
    """Per-layer numbers from the traced passes' spans."""
    n_passes = len(traced)
    events = sum(p.n_events for p in traced)
    batches = sum(p.n_batches for p in traced)
    replay = sum(p.replay_s for p in traced)
    per_event = 1e6 / events
    update = tracer.total("core.update")
    kernel_in_update = sum(
        tracer.total(f"kernels.{name}", parent="core.update") for name in KERNEL_NAMES
    )
    metrics.add("core.update_us_per_event", update * per_event, "us")
    metrics.add("core.glue_us_per_event", (update - kernel_in_update) * per_event, "us")
    for name in KERNEL_NAMES:
        spans = tracer.durations(f"kernels.{name}")
        metrics.add(f"kernels.{name}.calls", len(spans) / n_passes, "count", "per pass")
        metrics.add(f"kernels.{name}.us_per_event", sum(spans) * per_event, "us")
    metrics.add("kernels.share", kernel_in_update / update if update else 0.0, "ratio",
                "kernel time / update time")
    metrics.add("stream.drain_us_per_event", tracer.total("stream.next") * per_event, "us")
    metrics.add("stream.events_per_batch", events / batches, "count")
    metrics.add("stream.bootstrap_s", median([p.bootstrap_s for p in traced]), "s")
    metrics.add("als.init_s", median([p.als_s for p in traced]), "s")
    scoring = tracer.total("anomaly.score_batch")
    metrics.add("anomaly.score_us_per_event",
                (scoring - tracer.total("core.update", parent="anomaly.score_batch"))
                * per_event, "us")
    metrics.add("anomaly.reconstruct_calls",
                len(tracer.durations("anomaly.reconstruct")) / n_passes, "count", "per pass")
    metrics.add("metrics.fitness_ms", median(tracer.durations("metrics.fitness")) * 1e3, "ms")
    for name, unit in SERVICE_LAYER_METRICS:
        metrics.add(name, 0.0, unit, "no service layer in this workload")
    metrics.add("checkpoint.writes", 1.0, "count", "per pass (end of stream)")
    metrics.add("checkpoint.save_ms_p50", median([p.drain_s for p in traced]) * 1e3, "ms")
    metrics.add("checkpoint.bytes_per_stream", float(traced[0].checkpoint_bytes), "bytes")
    metrics.add("checkpoint.recover_s", recover_s, "s", "restore_run of the last checkpoint")
    untraced_s = position_best(untraced, window_ops, CPU)[0]
    traced_s = position_best(traced, window_ops, CPU)[0]
    metrics.add("trace.overhead_pct", (traced_s / untraced_s - 1.0) * 100.0, "%",
                "replay thread CPU time, traced vs untraced passes, position by position")
    top_level = (
        tracer.total("stream.next")
        + tracer.total("metrics.fitness")
        + (scoring if scoring else update)
    )
    metrics.add("trace.accounted_pct", 100.0 * top_level / replay, "%",
                "layer spans / traced replay wall time")


#: Service-layer metrics, zero on the library workloads.
SERVICE_LAYER_METRICS = (
    ("service.protocol.us_per_record", "us"),
    ("service.protocol.bytes_per_record", "bytes"),
    ("service.ingest.queue_wait_ms_p50", "ms"),
    ("service.ingest.queue_wait_ms_p90", "ms"),
    ("service.session.apply_ms_per_chunk", "ms"),
    ("service.session.apply_us_per_event", "us"),
    ("service.query.compute_ms_p50", "ms"),
    ("service.query.wait_ms_p50", "ms"),
    ("service.query.wait_ms_p95", "ms"),
    ("service.overload_rejections", "count"),
    ("service.deferred_errors", "count"),
)
