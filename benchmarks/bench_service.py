"""Multi-tenant streaming service benchmark.

Drives an in-process :class:`~repro.service.server.StreamingServer` (the
real asyncio front-end, minus the TCP socket) with several concurrent
tenant streams and measures:

* aggregate ingest throughput (records and events per second across all
  streams, flush-barriered so every queued chunk is actually applied);
* query latency while ingestion is running (factors / fitness round-trips);
* checkpoint-all and full-recovery wall clock at that stream count.

A correctness guard re-runs one stream's chunk sequence sequentially and
requires bit-identical factors — throughput that breaks determinism does
not count.

A cold-start section starts fresh ``python -m repro.service`` processes,
alternately without BLAS thread variables and with
``OPENBLAS_NUM_THREADS=1``, and records the server's CPU time and OS thread
count at ``listening``, then the wall time of a first sns_rnd_plus tenant's
``start_stream`` and the server's CPU time and peak resident memory
(VmHWM) after it.  The ``one_blas_thread`` flag requires the two settings
to start the same number of threads: a server runs BLAS on one thread
unless told otherwise.  Times and memory are recorded, not gated.

An aging section feeds one more tenant of the same shape a short run and
then a run ten times longer, both well past the detector's 100-entry
scoreboard, and records at each point the checkpoint's size on disk, the
time to write it and the compute time of an ``anomalies`` query.  The
``checkpoint_bytes_flat`` flag requires the long run's checkpoint to stay
within 10% of the short run's: a stream's state must not grow with its
age.

Results land in ``results/BENCH_service.json`` / ``.txt``.
"""

from __future__ import annotations

import asyncio
import os
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from benchmarks._reporting import emit, emit_json
from benchmarks.bench_chaos_soak import Server
from benchmarks.conftest import bench_scale

from repro.service.cli import BLAS_THREAD_VARIABLES
from repro.service.config import ServiceConfig, StreamConfig
from repro.service.manager import ServiceManager
from repro.service.server import StreamingServer
from repro.service.session import StreamSession
from repro.stream.events import StreamRecord

N_STREAMS = 8
N_CHUNKS = 12
CHUNK_RECORDS = 50
WARM_RECORDS = 200

STREAM_KWARGS = dict(
    mode_sizes=(8, 6),
    window_length=4,
    period=10.0,
    rank=4,
    method="sns_vec",
    als_iterations=4,
    detector_warmup=20,
    seed=0,
)


def _records(n, start, spacing, seed, mode_sizes=(8, 6)):
    rng = np.random.default_rng(seed)
    return [
        StreamRecord(
            indices=tuple(int(rng.integers(0, size)) for size in mode_sizes),
            value=float(rng.uniform(0.5, 2.0)),
            time=start + position * spacing,
        )
        for position in range(n)
    ]


def _wire(records):
    return [[list(r.indices), r.value, r.time] for r in records]


def _workload():
    scale = bench_scale()
    n_chunks = max(int(N_CHUNKS * scale), 3)
    warm_span = STREAM_KWARGS["window_length"] * STREAM_KWARGS["period"]
    spacing = warm_span / WARM_RECORDS
    streams = {}
    for position in range(N_STREAMS):
        warm = _records(WARM_RECORDS, 0.0, spacing, seed=position + 1)
        live = _records(
            n_chunks * CHUNK_RECORDS,
            warm_span + spacing,
            spacing,
            seed=position + 100,
        )
        chunks = [
            live[i * CHUNK_RECORDS : (i + 1) * CHUNK_RECORDS]
            for i in range(n_chunks)
        ]
        streams[f"tenant-{position}"] = (warm, chunks)
    return streams


#: Fresh servers per BLAS setting in the cold-start section (at scale 1).
COLD_STARTS = 5


def _server_env(**blas):
    """This process's environment without BLAS thread variables, plus ``blas``."""
    env = {
        name: value
        for name, value in os.environ.items()
        if name not in BLAS_THREAD_VARIABLES
    }
    env.update(blas)
    return env


def _cpu_s(pid):
    """User plus system CPU seconds of process ``pid``."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _status_field(pid, field):
    """The first number of ``field`` in ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith(f"{field}:"):
                return int(line.split()[1])
    raise RuntimeError(f"no {field} for process {pid}")


def _cold_start(env, warm):
    """One fresh server: CPU and threads at listening, then a first rnd+ start."""
    server = Server(env=env)
    try:
        pid = server.process.pid
        run = {
            "listening_cpu_s": _cpu_s(pid),
            "listening_threads": _status_field(pid, "Threads"),
        }
        with server.client() as client:
            client.create_stream(
                "cold",
                **dict(
                    STREAM_KWARGS,
                    mode_sizes=list(STREAM_KWARGS["mode_sizes"]),
                    method="sns_rnd_plus",
                ),
            )
            client.ingest("cold", _wire(warm))
            started = time.perf_counter()
            client.start_stream("cold")
            run["rnd_plus_start_stream_s"] = time.perf_counter() - started
            run["rnd_plus_started_cpu_s"] = _cpu_s(pid)
            run["rnd_plus_started_vmhwm_mb"] = _status_field(pid, "VmHWM") / 1024
            client.shutdown()
        server.process.wait(timeout=30)
    finally:
        server.cleanup()
    return run


def _cold_start_section(warm):
    settings = {
        "default": _server_env(),
        "one_thread": _server_env(OPENBLAS_NUM_THREADS="1"),
    }
    runs = {name: [] for name in settings}
    for _ in range(max(int(COLD_STARTS * bench_scale()), 2)):
        for name, env in settings.items():
            runs[name].append(_cold_start(env, warm))
    return {
        name: {key: [run[key] for run in setting] for key in setting[0]}
        for name, setting in runs.items()
    }


#: Chunks in the aging section's short run (at scale 1); the long run is ten
#: times longer.
AGING_CHUNKS = 15
AGING_REPEATS = 5


def _directory_bytes(directory):
    return sum(
        path.stat().st_size for path in Path(directory).rglob("*") if path.is_file()
    )


def _aging_point(session, directory, n_chunks):
    """Checkpoint size and save time, and ``anomalies`` compute time, now."""
    save_ms, query_ms = [], []
    for _ in range(AGING_REPEATS):
        started = time.perf_counter()
        session.save(directory)
        save_ms.append((time.perf_counter() - started) * 1e3)
        started = time.perf_counter()
        session.anomalies(20)
        query_ms.append((time.perf_counter() - started) * 1e3)
    return {
        "chunks": n_chunks,
        "scored": session.anomalies(0)["scored"],
        "checkpoint_bytes": _directory_bytes(directory),
        "checkpoint_save_ms": statistics.median(save_ms),
        "anomalies_compute_ms": statistics.median(query_ms),
    }


def _aging_section():
    """One tenant's checkpoint and query cost after a short and a 10x run."""
    short = max(int(AGING_CHUNKS * bench_scale()), 3)
    warm_span = STREAM_KWARGS["window_length"] * STREAM_KWARGS["period"]
    spacing = warm_span / WARM_RECORDS
    live = _records(
        10 * short * CHUNK_RECORDS, warm_span + spacing, spacing, seed=200
    )
    chunks = [
        live[start : start + CHUNK_RECORDS]
        for start in range(0, len(live), CHUNK_RECORDS)
    ]
    session = StreamSession("aging", StreamConfig(**STREAM_KWARGS))
    session.ingest(_records(WARM_RECORDS, 0.0, spacing, seed=200))
    session.start()
    points = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, begin, end in (("short", 0, short), ("long", short, 10 * short)):
            for chunk in chunks[begin:end]:
                session.ingest(chunk)
            points[name] = _aging_point(session, tmp, end)
    ratio = points["long"]["checkpoint_bytes"] / points["short"]["checkpoint_bytes"]
    return dict(points, bytes_ratio=ratio)


def _sequential_factors(warm, chunks):
    session = StreamSession("reference", StreamConfig(**STREAM_KWARGS))
    session.ingest(warm)
    session.start()
    for chunk in chunks:
        session.ingest(chunk)
    return session.factors()["factors"]


async def _drive(server, streams, query_latencies):
    async def tenant(stream_id, warm, chunks):
        await server._dispatch(
            {
                "op": "create_stream",
                "stream": stream_id,
                "config": dict(STREAM_KWARGS, mode_sizes=list(STREAM_KWARGS["mode_sizes"])),
            }
        )
        await server._dispatch(
            {"op": "ingest", "stream": stream_id, "records": _wire(warm)}
        )
        await server._dispatch({"op": "start_stream", "stream": stream_id})
        for chunk in chunks:
            await server._dispatch(
                {"op": "ingest", "stream": stream_id, "records": _wire(chunk)}
            )
            started = time.perf_counter()
            await server._dispatch({"op": "fitness", "stream": stream_id})
            query_latencies.append(time.perf_counter() - started)
        await server._dispatch({"op": "flush", "stream": stream_id})

    await asyncio.gather(
        *(tenant(stream_id, warm, chunks) for stream_id, (warm, chunks) in streams.items())
    )


def test_service_throughput():
    streams = _workload()
    cold_start = _cold_start_section(streams["tenant-0"][0])
    aging = _aging_section()
    n_live_records = sum(
        len(chunk) for _, chunks in streams.values() for chunk in chunks
    )

    with tempfile.TemporaryDirectory() as tmp:
        config = ServiceConfig(
            max_streams=N_STREAMS, queue_limit=64, checkpoint_root=tmp
        )

        async def scenario():
            server = StreamingServer(ServiceManager(config))
            query_latencies: list[float] = []
            started = time.perf_counter()
            await _drive(server, streams, query_latencies)
            ingest_seconds = time.perf_counter() - started
            telemetry = {
                stream_id: server.manager.get(stream_id).telemetry
                for stream_id in streams
            }
            n_events = sum(t.events_applied for t in telemetry.values())
            started = time.perf_counter()
            await server._dispatch({"op": "checkpoint_all"})
            checkpoint_seconds = time.perf_counter() - started
            factors = {
                stream_id: (
                    await server._dispatch(
                        {"op": "factors", "stream": stream_id}
                    )
                )["factors"]
                for stream_id in streams
            }
            await server.stop()
            return ingest_seconds, n_events, checkpoint_seconds, query_latencies, factors

        ingest_seconds, n_events, checkpoint_seconds, query_latencies, factors = (
            asyncio.run(scenario())
        )

        started = time.perf_counter()
        recovered = ServiceManager(config)
        report = recovered.recover()
        recover_seconds = time.perf_counter() - started
        assert report["failed"] == {}
        assert len(report["recovered"]) == N_STREAMS

    # Correctness guard: the service's concurrent result is bit-identical to
    # a sequential single-tenant replay of the same chunks.
    guard_id = "tenant-0"
    reference = _sequential_factors(*streams[guard_id])
    for served, expected in zip(factors[guard_id], reference):
        assert np.array_equal(np.array(served), np.array(expected))

    payload = {
        "benchmark": "bench_service",
        "workload": {
            "n_streams": N_STREAMS,
            "chunks_per_stream": len(next(iter(streams.values()))[1]),
            "records_per_chunk": CHUNK_RECORDS,
            "live_records_total": n_live_records,
            "stream_config": dict(
                STREAM_KWARGS, mode_sizes=list(STREAM_KWARGS["mode_sizes"])
            ),
        },
        "ingest": {
            "seconds": ingest_seconds,
            "records_per_second": n_live_records / ingest_seconds,
            "events_applied": n_events,
            "events_per_second": n_events / ingest_seconds,
        },
        "queries": {
            "n": len(query_latencies),
            "mean_seconds": statistics.fmean(query_latencies),
            "p95_seconds": sorted(query_latencies)[
                max(int(len(query_latencies) * 0.95) - 1, 0)
            ],
        },
        "durability": {
            "checkpoint_all_seconds": checkpoint_seconds,
            "recover_all_seconds": recover_seconds,
        },
        "concurrent_equals_sequential": True,
        "cold_start": dict(cold_start, cpu_count=os.cpu_count()),
        "one_blas_thread": (
            cold_start["default"]["listening_threads"]
            == cold_start["one_thread"]["listening_threads"]
        ),
        "aging": aging,
        "checkpoint_bytes_flat": aging["bytes_ratio"] <= 1.1,
    }
    emit_json("BENCH_service", payload)
    lines = [
        f"streams: {N_STREAMS}, live records: {n_live_records}",
        f"ingest: {payload['ingest']['records_per_second']:.0f} records/s, "
        f"{payload['ingest']['events_per_second']:.0f} events/s "
        f"(interleaved with {len(query_latencies)} queries)",
        f"query latency: mean {payload['queries']['mean_seconds'] * 1e3:.2f} ms, "
        f"p95 {payload['queries']['p95_seconds'] * 1e3:.2f} ms",
        f"checkpoint all: {checkpoint_seconds * 1e3:.1f} ms, "
        f"recover all: {recover_seconds * 1e3:.1f} ms",
        "concurrent == sequential: bit-identical factors (guarded)",
        f"cold start, medians of {len(cold_start['default']['listening_cpu_s'])} "
        "fresh servers per setting:",
    ]
    for name, label in (
        ("default", "no BLAS variables"),
        ("one_thread", "OPENBLAS_NUM_THREADS=1"),
    ):
        median = {
            key: statistics.median(values) for key, values in cold_start[name].items()
        }
        lines.append(
            f"  {label}: {median['listening_cpu_s']:.3f} s CPU and "
            f"{median['listening_threads']:g} threads at listening; first "
            f"sns_rnd_plus start_stream {median['rnd_plus_start_stream_s']:.3f} s "
            f"wall, {median['rnd_plus_started_cpu_s']:.3f} s server CPU and "
            f"{median['rnd_plus_started_vmhwm_mb']:.1f} MB VmHWM after it"
        )
    lines.append("one tenant aging:")
    for name in ("short", "long"):
        point = aging[name]
        lines.append(
            f"  {point['chunks']} chunks, {point['scored']} scored: "
            f"{point['checkpoint_bytes']} bytes, "
            f"{point['checkpoint_save_ms']:.1f} ms save, "
            f"{point['anomalies_compute_ms']:.3f} ms anomalies"
        )
    lines.append(
        f"  long/short checkpoint bytes: {aging['bytes_ratio']:.3f} "
        f"(flat: {payload['checkpoint_bytes_flat']})"
    )
    emit("BENCH_service", "\n".join(lines))
