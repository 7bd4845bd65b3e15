"""Chaos soak: goodput and convergence of the full service stack under a
seeded fault plan.

Boots the real TCP server subprocess with a probability-based
:class:`~repro.service.faults.FaultPlan` (connection resets around ingest,
synthetic overloads, ENOSPC checkpoint writes) and hammers it from one
retrying ``auto_seq`` client thread per tenant.  Measures:

* goodput — records per second actually *applied*, retries included;
* the retry bill — client retries/reconnects and server-side fault count;
* convergence — after the dust settles every stream's factors must be
  bit-identical to a fault-free sequential replay of its chunk sequence,
  and every record applied exactly once.

The plan is seeded, so a failing soak replays exactly.  Results land in
``results/BENCH_chaos.json`` / ``.txt``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from benchmarks._reporting import emit, emit_json
from benchmarks.conftest import bench_scale

from repro.service.client import ServiceClient
from repro.service.config import StreamConfig
from repro.service.session import StreamSession
from repro.stream.events import StreamRecord

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

N_STREAMS = 24
N_CHUNKS = 8
CHUNK_RECORDS = 8
WARM_RECORDS = 30

STREAM_KWARGS = dict(
    mode_sizes=(4, 3),
    window_length=3,
    period=5.0,
    rank=2,
    als_iterations=2,
    detector_warmup=5,
    seed=0,
)

FAULT_PLAN = {
    "seed": 20210419,  # any fixed seed: the soak must replay exactly
    "rules": [
        {
            "site": "connection.reset",
            "stage": "request",
            "ops": ["ingest"],
            "probability": 0.04,
        },
        {
            "site": "connection.reset",
            "stage": "response",
            "ops": ["ingest"],
            "probability": 0.04,
        },
        {"site": "ingest.overload", "probability": 0.04},
        {
            "site": "checkpoint.write",
            "kind": "enospc",
            "stage": "arrays",
            "probability": 0.3,
            "limit": 16,
        },
    ],
}


def _records(n, start, spacing, seed):
    rng = np.random.default_rng(seed)
    sizes = STREAM_KWARGS["mode_sizes"]
    return [
        StreamRecord(
            indices=tuple(int(rng.integers(0, size)) for size in sizes),
            value=float(rng.uniform(0.5, 2.0)),
            time=start + position * spacing,
        )
        for position in range(n)
    ]


def _wire(records):
    return [[list(r.indices), r.value, r.time] for r in records]


def _workload():
    n_streams = max(int(N_STREAMS * bench_scale()), 4)
    warm_span = STREAM_KWARGS["window_length"] * STREAM_KWARGS["period"]
    spacing = warm_span / WARM_RECORDS
    streams = {}
    for position in range(n_streams):
        warm = _records(WARM_RECORDS, 0.0, spacing, seed=position + 1)
        live = _records(
            N_CHUNKS * CHUNK_RECORDS,
            warm_span + spacing,
            spacing,
            seed=position + 1000,
        )
        streams[f"tenant-{position}"] = (
            warm,
            [
                live[i * CHUNK_RECORDS : (i + 1) * CHUNK_RECORDS]
                for i in range(N_CHUNKS)
            ],
        )
    return streams


def _sequential_factors(warm, chunks):
    session = StreamSession("reference", StreamConfig(**STREAM_KWARGS))
    session.ingest(warm)
    session.start()
    for chunk in chunks:
        session.ingest(chunk)
    return session.factors()["factors"]


class Server:
    """A ``python -m repro.service`` subprocess, returned once it listens.

    ``env`` replaces this process's environment as the server's (its
    ``PYTHONPATH`` still gains this checkout's ``src``).
    """

    def __init__(self, *extra_args: str, env: dict[str, str] | None = None):
        env = dict(os.environ if env is None else env)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC, env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--port", "0", *extra_args],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                break
            if line.startswith("listening on "):
                self.port = int(line.rsplit(":", 1)[1])
                return
        raise AssertionError(
            f"server never announced its port (rc={self.process.poll()})"
        )

    def client(self, **kwargs) -> ServiceClient:
        return ServiceClient("127.0.0.1", self.port, timeout=60.0, **kwargs)

    def cleanup(self):
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
            self.process.wait(timeout=10.0)
        self.process.stdout.close()


def _feed(server, stream_id, warm, chunks):
    """One tenant thread: create, warm, stream every chunk, flush."""
    with server.client(
        retries=12, backoff_base=0.01, backoff_max=0.5, auto_seq=True, seed=7
    ) as client:
        config = dict(
            STREAM_KWARGS, mode_sizes=list(STREAM_KWARGS["mode_sizes"])
        )
        client.create_stream(stream_id, **config)
        client.ingest(stream_id, _wire(warm))
        client.start_stream(stream_id)
        for chunk in chunks:
            client.ingest(stream_id, _wire(chunk))
        flush = client.flush(stream_id)
        assert flush["deferred_errors"] == []
        return {
            "retries": client.retries_performed,
            "reconnects": client.reconnects,
        }


def test_chaos_soak():
    streams = _workload()
    n_records = sum(
        len(warm) + sum(len(c) for c in chunks)
        for warm, chunks in streams.values()
    )

    with tempfile.TemporaryDirectory() as tmp:
        plan_path = os.path.join(tmp, "plan.json")
        with open(plan_path, "w") as handle:
            json.dump(FAULT_PLAN, handle)
        server = Server(
            "--fault-plan", plan_path,
            "--checkpoint-root", os.path.join(tmp, "state"),
            "--checkpoint-events", "40",
            "--checkpoint-retry-backoff", "0.05",
            "--max-streams", str(len(streams)),
        )
        try:
            started = time.perf_counter()
            with ThreadPoolExecutor(max_workers=8) as pool:
                client_stats = list(
                    pool.map(
                        lambda item: _feed(server, item[0], *item[1]),
                        streams.items(),
                    )
                )
            soak_seconds = time.perf_counter() - started

            with server.client() as client:
                health = client.health()
                fired = health["faults"]["fired_by_site"]
                telemetry = {
                    stream: client.telemetry(stream)["telemetry"]
                    for stream in streams
                }
                factors = {
                    stream: client.factors(stream)["factors"]
                    for stream in streams
                }
                client.shutdown()
            assert server.process.wait(timeout=30.0) == 0
        finally:
            server.cleanup()

    # Convergence guard: chaos must not have cost (or duplicated) a single
    # record, and every stream's state must equal the fault-free replay.
    duplicates = 0
    for stream, (warm, chunks) in streams.items():
        expected = len(warm) + sum(len(c) for c in chunks)
        assert telemetry[stream]["records_ingested"] == expected, stream
        duplicates += telemetry[stream]["duplicates_skipped"]
        reference = _sequential_factors(warm, chunks)
        for served, ref in zip(factors[stream], reference):
            assert np.array_equal(np.array(served), np.array(ref)), stream

    retries = sum(stats["retries"] for stats in client_stats)
    reconnects = sum(stats["reconnects"] for stats in client_stats)
    payload = {
        "benchmark": "bench_chaos_soak",
        "workload": {
            "n_streams": len(streams),
            "records_total": n_records,
            "fault_plan": FAULT_PLAN,
        },
        "soak": {
            "seconds": soak_seconds,
            "goodput_records_per_second": n_records / soak_seconds,
            "client_retries": retries,
            "client_reconnects": reconnects,
            "duplicate_acks": duplicates,
            "faults_fired": fired,
        },
        "converged_to_fault_free_state": True,
    }
    emit_json("BENCH_chaos", payload)
    lines = [
        f"streams: {len(streams)}, records: {n_records}, "
        f"faults fired: {sum(fired.values())} {fired}",
        f"soak: {soak_seconds:.2f} s, "
        f"goodput {payload['soak']['goodput_records_per_second']:.0f} records/s",
        f"retry bill: {retries} retries, {reconnects} reconnects, "
        f"{duplicates} duplicate acks",
        "converged: factors bit-identical to fault-free replay, "
        "every record applied exactly once",
    ]
    emit("BENCH_chaos", "\n".join(lines))
