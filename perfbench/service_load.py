"""The ``service_tcp`` workload: the streaming service over TCP and JSON.

The server runs in its own process (``python -m repro.service``, or
``serve_traced.py`` for the traced run) with count-triggered checkpoints.
This process is the load generator: one ingest connection on the main
thread and one read connection on a second thread, so it never uses more
than two threads or two connections.

Phases of the measured server:

1. set-up: start the server, then create, warm-ingest and ``start_stream``
   every tenant (repeated on fresh servers; ``setup_s`` is the median);
2. open loop: every ``BURST_PERIOD_S`` one 50-record chunk per tenant is sent
   as a synchronized, pipelined burst and every tenant is then flushed (the
   drain: backlog plus durability barrier).  The read connection sends
   ``fitness``, ``anomalies`` and ``factors`` queries at fixed offsets inside
   each burst period.  Latencies count from the scheduled send time;
3. closed loop: the remaining chunks sent back to back, then a flush of
   every tenant — the service's capacity, in events per server CPU second.

Outputs are checked against the generator: one tenant's served factors must
equal an in-process sequential :class:`StreamSession` replay bit for bit,
every tenant must have applied exactly the events its records imply, and no
deferred error may surface.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import select
import shutil
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from common import OUT, SRC, Metrics, Tracer, cpu_ticks, directory_bytes, median, pct
from common import peak_rss_mb, process_cpu_s, relabel, require, steal_pct

from repro import ContinuousStreamProcessor, WindowConfig, decompose
from repro.data.generators import SyntheticStreamConfig, generate_stream
from repro.exceptions import ServiceError
from repro.kernels import KERNEL_NAMES
from repro.service.config import StreamConfig
from repro.service.protocol import encode_message, records_to_wire
from repro.service.session import StreamSession
from repro.stream.stream import MultiAspectStream

TENANTS = 8
CHUNK_RECORDS = 50
STREAM = {
    "mode_sizes": [8, 6],
    "window_length": 4,
    "period": 10.0,
    "rank": 4,
    "method": "sns_vec",
    "als_iterations": 4,
    "detector_warmup": 20,
    "seed": 0,
}
#: Records per period of each tenant's stream (5 per time unit).
RECORDS_PER_PERIOD = 50.0
#: Open-loop burst period: 8 x 50 records per 2.4 s is about 170 records/s,
#: a third of the closed-loop capacity measured on a 2-CPU machine, so the
#: open loop stays below capacity when other tenants halve the CPU speed.
BURST_PERIOD_S = 2.4
#: Query send times as fractions of the burst period (see read_schedule).
QUERY_OFFSETS = (0.03, 0.06, 0.09, 0.12) + tuple(0.50 + 0.04 * k for k in range(12))
QUERY_OPS = ("fitness", "anomalies", "factors")
#: About every fourth chunk of a tenant requests a checkpoint.
CHECKPOINT_EVENTS = 1000
QUEUE_LIMIT = 64
SETUP_TRIALS = 3
#: Capacity assumed when sizing the closed-loop phase (events/s).
NOMINAL_EVENTS_PER_S = 2000.0
OPEN_SHARE = 0.5
CLOSED_SHARE = 0.3
#: Generator seed of tenant 0's base stream; the run seed relabels it.
BASE_SEED = 100
OP_TAIL = 90.0
READ_TAIL = 95.0
REFERENCE_ALS_ITERATIONS = 20
SERVER_START_TIMEOUT_S = 60.0
UNIT_EPSILON = 1e-9


@dataclasses.dataclass
class Plan:
    """Generated inputs: per tenant its warm records and live chunks."""

    warm: dict
    chunks: dict
    n_bursts: int
    n_closed: int
    #: Encoded ingest request of every chunk, so no encoding is timed.
    lines: dict

    @property
    def tenants(self) -> list[str]:
        return list(self.warm)


def make_plan(seed: int, seconds: float, tenants: int = TENANTS) -> Plan:
    n_bursts = max(2, round(OPEN_SHARE * seconds / BURST_PERIOD_S))
    events_per_chunk = CHUNK_RECORDS * (STREAM["window_length"] + 1)
    n_closed = max(
        2,
        round(CLOSED_SHARE * seconds * NOMINAL_EVENTS_PER_S / (tenants * events_per_chunk)),
    )
    warm, chunks = {}, {}
    n_live = (n_bursts + n_closed) * CHUNK_RECORDS
    span = STREAM["window_length"] * STREAM["period"]
    # The warm part covers the initial window (plus a margin of records so
    # every seed fills it); live chunks start strictly after it.
    n_records = int(span * RECORDS_PER_PERIOD / STREAM["period"] * 1.5) + n_live
    for position in range(tenants):
        stream = generate_stream(
            SyntheticStreamConfig(
                mode_sizes=tuple(STREAM["mode_sizes"]),
                rank=3,
                n_records=n_records,
                period=STREAM["period"],
                records_per_period=RECORDS_PER_PERIOD,
                seed=BASE_SEED + position,
            )
        )
        records = relabel(stream, stream.mode_sizes, seed * TENANTS + position)
        start = records[0].time + span
        name = f"tenant-{position}"
        warm[name] = [r for r in records if r.time <= start]
        live = records[len(warm[name]) :][:n_live]
        require(len(live) == n_live, f"{name}: generated too few records")
        chunks[name] = [
            live[i : i + CHUNK_RECORDS] for i in range(0, len(live), CHUNK_RECORDS)
        ]
    lines = {
        tenant: [
            encode_message(
                {
                    "op": "ingest",
                    "stream": tenant,
                    "records": records_to_wire(chunk),
                    "seq": position + 2,
                }
            )
            for position, chunk in enumerate(chunks[tenant])
        ]
        for tenant in chunks
    }
    return Plan(warm, chunks, n_bursts, n_closed, lines)


def expected_events(records, window_length: int, period: float) -> int:
    """Events a tenant's records imply once applied up to their last time.

    Each record fires ``W + 1`` events, at ``t + k*T`` for ``k = 0..W``; the
    initial window (records up to ``first + W*T``) has already taken the
    steps up to its unit offset.
    """
    start = records[0].time + window_length * period
    horizon = records[-1].time
    total = 0
    for record in records:
        first = 0
        if record.time <= start:
            offset = math.floor((start - record.time) / period + UNIT_EPSILON)
            if offset >= window_length:
                continue
            first = offset + 1
        total += sum(
            1
            for step in range(first, window_length + 1)
            if record.time + step * period <= horizon
        )
    return total


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class Connection:
    """One line-delimited JSON connection; requests may be pipelined."""

    def __init__(self, host: str, port: int) -> None:
        self._socket = socket.create_connection((host, port), timeout=120.0)
        self._reader = self._socket.makefile("rb")

    def pipeline(self, lines: list) -> list:
        """Send every encoded request line, then read the responses:
        ``[(response, clock)]``."""
        self._socket.sendall(b"".join(lines))
        responses = []
        for _ in lines:
            line = self._reader.readline()
            if not line:
                raise ServiceError("connection", "the server closed the connection")
            responses.append((json.loads(line), time.perf_counter()))
        return responses

    def request(self, op: str, **fields) -> dict:
        """One request; raises :class:`ServiceError` on an error response."""
        (response, _), = self.pipeline([encode_message({"op": op, **fields})])
        if not response.get("ok"):
            raise ServiceError(response.get("error", "internal"), response.get("message", ""))
        return response

    def close(self) -> None:
        self._reader.close()
        self._socket.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class Server:
    """A service process on a free port; stopped by :meth:`stop`."""

    def __init__(self, root: Path, spans: Path | None = None) -> None:
        command = [sys.executable]
        if spans is not None:
            command += [str(Path(__file__).with_name("serve_traced.py")), "--spans", str(spans)]
        else:
            command += ["-m", "repro.service"]
        command += [
            "--host", "127.0.0.1",
            "--port", "0",
            "--checkpoint-root", str(root),
            "--checkpoint-events", str(CHECKPOINT_EVENTS),
            "--queue-limit", str(QUEUE_LIMIT),
            "--max-streams", str(2 * TENANTS),
        ]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        OUT.mkdir(parents=True, exist_ok=True)
        self._log = open(OUT / "server.log", "ab")
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log, env=env
        )
        try:
            self.host, self.port = self._wait_listening()
        except BaseException:
            self.kill()
            raise

    def _wait_listening(self) -> tuple[str, int]:
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        buffer = b""
        stdout = self.process.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.5)
            if not ready:
                if self.process.poll() is not None:
                    break
                continue
            data = os.read(stdout.fileno(), 4096)
            if not data:
                break
            buffer += data
            # Only complete lines: a partial one could cut the port short.
            for line in buffer.decode(errors="replace").split("\n")[:-1]:
                if line.startswith("listening on "):
                    host, port = line.split()[-1].rsplit(":", 1)
                    return host, int(port)
        raise RuntimeError(f"the service did not start; see {OUT / 'server.log'}")

    def connect(self) -> Connection:
        return Connection(self.host, self.port)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def cpu_s(self) -> float:
        return process_cpu_s(self.process.pid)

    def stop(self, client: Connection) -> None:
        """Graceful shutdown through ``client`` (checkpoints every stream)."""
        try:
            client.request("shutdown")
        finally:
            client.close()
            try:
                self.process.wait(timeout=120)
            finally:
                self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=30)
        self.process.stdout.close()
        self._log.close()


def set_up(plan: Plan, root: Path, spans: Path | None = None):
    """Start a server and bring every tenant live.

    Returns ``(server, client, wall seconds, CPU seconds)``; the CPU time is
    the server process's plus this thread's.
    """
    started = time.perf_counter()
    cpu_started = time.thread_time()
    server = Server(root, spans)
    try:
        client = server.connect()
        for tenant in plan.tenants:
            client.request("create_stream", stream=tenant, config=STREAM)
            client.request("ingest", stream=tenant, records=records_to_wire(plan.warm[tenant]),
                           seq=1)
            client.request("start_stream", stream=tenant)
        cpu = server.cpu_s() + time.thread_time() - cpu_started
    except BaseException:
        server.kill()
        raise
    return server, client, time.perf_counter() - started, cpu


def flush_all(client: Connection, plan: Plan, counters: dict) -> dict:
    """Flush every tenant; returns events applied per tenant."""
    applied = {}
    for tenant in plan.tenants:
        response = client.request("flush", stream=tenant)
        counters["attempted"] += 1
        counters["deferred"] += len(response["deferred_errors"])
        applied[tenant] = response["events_applied"]
    return applied


def closed_loop(server: Server, client: Connection, plan: Plan, counters: dict,
                first: int) -> tuple[int, float, float]:
    """Chunks ``first`` to ``first + n_closed`` of every tenant back to back,
    then a flush of every tenant.

    Returns ``(events applied, wall seconds, server CPU seconds)``.
    """
    before = flush_all(client, plan, counters)
    cpu_started = server.cpu_s()
    started = time.perf_counter()
    for position in range(first, first + plan.n_closed):
        send_burst(client, plan, position, counters)
    after = flush_all(client, plan, counters)
    elapsed = time.perf_counter() - started
    cpu = server.cpu_s() - cpu_started
    return sum(after[t] - before[t] for t in plan.tenants), elapsed, cpu


def send_burst(client: Connection, plan: Plan, position: int, counters: dict) -> list:
    """Chunk ``position`` of every tenant, pipelined; returns the ack clocks."""
    lines = [plan.lines[tenant][position] for tenant in plan.tenants]
    acked = []
    for tenant, (response, received) in zip(plan.tenants, client.pipeline(lines)):
        counters["attempted"] += 1
        if response.get("ok"):
            acked.append(received)
        else:
            counters["failed"] += 1
            counters["errors"].append(f"ingest {tenant}#{position}: {response.get('error')}")
    return acked


def read_schedule(plan: Plan, origin: float) -> list[tuple[float, str, str, int]]:
    """``(due, op, tenant, burst)`` for every open-loop query.

    The queries sit at fixed offsets inside each burst period
    (``QUERY_OFFSETS``): a quarter right after the burst, beside its apply
    work, and the rest once it has drained.  So the median query is an
    uncontended one and the 95th percentile one that waited behind a write,
    on every run.
    """
    schedule = []
    tenants = plan.tenants
    for burst in range(plan.n_bursts):
        for slot, offset in enumerate(QUERY_OFFSETS):
            due = origin + (burst + offset) * BURST_PERIOD_S
            index = burst * len(QUERY_OFFSETS) + slot
            schedule.append((
                due,
                QUERY_OPS[index % len(QUERY_OPS)],
                tenants[(slot + burst) % len(tenants)],
                burst,
            ))
    return schedule


def sleep_until(due: float) -> None:
    delay = due - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


def read_loop(server: Server, schedule, results: list, counters: dict) -> None:
    """The read connection: one query per scheduled slot, in order.

    A query that fails, on the wire or in the server, counts as failed and
    the loop goes on, so every slot leaves a result.
    """
    with server.connect() as client:
        for due, op, tenant, burst in schedule:
            sleep_until(due)
            sent = time.perf_counter()
            try:
                if op == "anomalies":
                    client.request(op, stream=tenant, k=20)
                else:
                    client.request(op, stream=tenant)
            except ServiceError as error:
                counters["failed"] += 1
                counters["errors"].append(f"{op} {tenant}: {error.code}")
            except (OSError, ValueError) as error:
                counters["failed"] += 1
                counters["errors"].append(f"{op} {tenant}: {type(error).__name__}: {error}")
            done = time.perf_counter()
            results.append((op, tenant, done - due, sent - due, burst))


def open_loop(server: Server, client: Connection, plan: Plan, counters: dict):
    """Burst cycles on the ingest connection, queries on the read connection.

    A cycle sends one chunk per tenant at its scheduled time, then flushes
    every tenant.  Returns ``(cycles, reads, lateness)`` where a cycle is
    ``(ack latencies, drain seconds)``.
    """
    flush_all(client, plan, counters)
    origin = time.perf_counter() + 0.1
    schedule = read_schedule(plan, origin)
    reads: list = []
    reader = threading.Thread(
        target=read_loop, args=(server, schedule, reads, counters), daemon=True
    )
    reader.start()
    cycles, lateness = [], []
    try:
        for burst in range(plan.n_bursts):
            due = origin + burst * BURST_PERIOD_S
            sleep_until(due)
            lateness.append(time.perf_counter() - due)
            acks = [acked - due for acked in send_burst(client, plan, burst, counters)]
            flush_all(client, plan, counters)
            cycles.append((acks, time.perf_counter() - due))
    finally:
        reader.join(timeout=150)
    require(not reader.is_alive(), "the read connection did not finish its schedule")
    require(len(reads) == len(schedule),
            f"the read connection stopped after {len(reads)} of {len(schedule)} queries")
    counters["attempted"] += len(schedule)
    return cycles, reads, lateness


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def reference_factors(plan: Plan, tenant: str) -> list[np.ndarray]:
    """An in-process sequential replay of one tenant's chunks."""
    session = StreamSession("reference", StreamConfig.from_dict(STREAM))
    session.ingest(plan.warm[tenant])
    session.start()
    for chunk in plan.chunks[tenant]:
        session.ingest(chunk)
    return [np.asarray(f) for f in session.factors()["factors"]]


def offline_fitness(plan: Plan, tenant: str) -> tuple[float, int]:
    """Offline ALS fitness of a tenant's final window, and its event count."""
    records = plan.warm[tenant] + [r for c in plan.chunks[tenant] for r in c]
    config = WindowConfig(
        mode_sizes=tuple(STREAM["mode_sizes"]),
        window_length=STREAM["window_length"],
        period=STREAM["period"],
    )
    processor = ContinuousStreamProcessor(
        MultiAspectStream(records, mode_sizes=config.mode_sizes), config
    )
    processor.run_batched(end_time=records[-1].time)
    result = decompose(processor.window.tensor, rank=STREAM["rank"],
                       n_iterations=REFERENCE_ALS_ITERATIONS, seed=0)
    return float(result.fitness), processor.n_events_emitted


def check_service(plan: Plan, served_factors, applied: dict, fitness: dict,
                  counters: dict, reference) -> None:
    """Raise :class:`~common.CheckFailed` unless the served state is right."""
    require(counters["failed"] == 0, f"failed operations: {counters['errors'][:5]}")
    require(counters["deferred"] == 0, f"{counters['deferred']} deferred errors surfaced")
    for tenant in plan.tenants:
        records = plan.warm[tenant] + [r for c in plan.chunks[tenant] for r in c]
        expected = expected_events(records, STREAM["window_length"], STREAM["period"])
        require(applied[tenant] == expected,
                f"{tenant} applied {applied[tenant]} events, its records imply {expected}")
        require(np.isfinite(fitness[tenant]) and 0.0 < fitness[tenant] <= 1.0,
                f"{tenant} fitness {fitness[tenant]} is outside (0, 1]")
    served = [np.asarray(f) for f in served_factors]
    require(
        len(served) == len(reference)
        and all(a.shape == b.shape and np.array_equal(a, b) for a, b in zip(served, reference)),
        "served factors differ from the sequential in-process replay",
    )


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def run(workload_name: str, seed: int, seconds: float, trace: bool,
        plan: Plan | None = None):
    plan = plan or make_plan(seed, seconds)
    work = OUT / f"service-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    counters = {"attempted": 0, "failed": 0, "deferred": 0, "errors": []}
    try:
        return _run(plan, work, seed, trace, counters)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(plan: Plan, work: Path, seed: int, trace: bool, counters: dict):
    ticks = cpu_ticks()
    setups = []
    untraced_capacity = None
    # Extra set-ups on fresh servers; in a traced run the first one also
    # measures untraced capacity for the overhead figure.
    for trial in range(SETUP_TRIALS - 1):
        server, client, wall, cpu = set_up(plan, work / f"setup-{trial}")
        setups.append((wall, cpu))
        try:
            if trace and trial == 0:
                untraced_capacity = closed_loop(server, client, plan, counters, first=0)
        finally:
            server.stop(client)
    root = work / "main"
    spans_path = work / "spans.json"
    server, client, wall, cpu = set_up(plan, root, spans_path if trace else None)
    setups.append((wall, cpu))
    try:
        cycles, reads, lateness = open_loop(server, client, plan, counters)
        capacity = closed_loop(server, client, plan, counters, first=plan.n_bursts)
        applied = flush_all(client, plan, counters)
        fitness = {t: client.request("fitness", stream=t)["fitness"] for t in plan.tenants}
        served = client.request("factors", stream=plan.tenants[0])["factors"]
        telemetry = {
            t: client.request("telemetry", stream=t)["telemetry"] for t in plan.tenants
        }
        counters["attempted"] += 3 * len(plan.tenants)
        server_rss = server.peak_rss_mb()
    finally:
        server.stop(client)
    recover_s = 0.0
    if trace:
        started = time.perf_counter()
        restarted = Server(root)
        try:
            restarted_client = restarted.connect()
        except BaseException:
            restarted.kill()
            raise
        try:
            streams = restarted_client.request("streams")["streams"]
            recover_s = time.perf_counter() - started
        finally:
            restarted.stop(restarted_client)
        listed = {row["stream"] for row in streams}
        require(listed == set(plan.tenants), f"recovered streams {sorted(listed)}")
    steal = steal_pct(ticks, cpu_ticks())

    check_service(plan, served, applied, fitness, counters,
                  reference_factors(plan, plan.tenants[0]))
    offline = {t: offline_fitness(plan, t) for t in plan.tenants}
    for tenant, (_, n_events) in offline.items():
        require(n_events == applied[tenant],
                f"{tenant}: window replay emitted {n_events}, the service applied "
                f"{applied[tenant]}")
    relative = float(np.mean([fitness[t] / offline[t][0] for t in plan.tenants]))

    ack_ms = [a * 1e3 for acks, _ in cycles for a in acks]
    read_ms = [r[2] * 1e3 for r in reads]
    drains = [drain for _, drain in cycles]
    events, capacity_wall, capacity_cpu = capacity
    details = {
        "tenants": f"{len(plan.tenants)} x (initial window + "
                   f"{plan.n_bursts} open-loop + {plan.n_closed} closed-loop chunks "
                   f"of {CHUNK_RECORDS} records)",
        "open_loop": f"{plan.n_bursts} bursts every {BURST_PERIOD_S} s, "
                     f"{len(QUERY_OFFSETS)} queries per burst period",
        "closed_loop": f"{events} events in {capacity_wall:.3f} s wall, "
                       f"{capacity_cpu:.3f} s server CPU",
        "fitness_mean": repr(float(np.mean(list(fitness.values())))),
        "ingest_send_late_ms_max": round(max(lateness) * 1e3, 3),
        "cycle_drain_s": [round(drain, 4) for drain in drains],
        "read_late_ms_p50": round(pct([r[3] for r in reads], 50) * 1e3, 3),
        "steal_pct": round(steal, 2),
        "failed_ratio": counters["failed"] / max(counters["attempted"], 1),
        "overload_rejections": sum(t["overload_rejections"] for t in telemetry.values()),
        "checkpoints_written": sum(t["checkpoints_written"] for t in telemetry.values()),
    }
    result = {
        "correct": True,
        "attempted": counters["attempted"],
        "failed": counters["failed"] + counters["deferred"],
    }
    metrics = Metrics()
    if not trace:
        metrics.add("setup_s", median([cpu for _, cpu in setups]), "s",
                    f"CPU time (server + client), median of {len(setups)} server set-ups")
        metrics.add("relative_fitness", relative, "ratio", "mean over tenants")
        metrics.add("peak_rss_mb", server_rss, "MB", "server process")
        metrics.add("events_per_cpu_s", events / capacity_cpu, "1/s",
                    f"closed loop, {plan.n_closed} chunks per tenant, per server CPU second",
                    gated=False)
        metrics.add("setup_wall_s", median([wall for wall, _ in setups]), "s",
                    f"median of {len(setups)} server set-ups", gated=False)
        metrics.add("events_per_s", events / capacity_wall, "1/s",
                    "closed loop, per wall second", gated=False)
        metrics.add("op_ms_p50", pct(ack_ms, 50), "ms",
                    f"ingest ack p50 of {len(ack_ms)}", gated=False)
        metrics.add("op_ms_tail", pct(ack_ms, OP_TAIL), "ms",
                    f"ingest ack p{OP_TAIL:g} of {len(ack_ms)}", gated=False)
        metrics.add("read_ms_p50", pct(read_ms, 50), "ms",
                    f"query p50 of {len(read_ms)}", gated=False)
        metrics.add("read_ms_tail", pct(read_ms, READ_TAIL), "ms",
                    f"query p{READ_TAIL:g} of {len(read_ms)}", gated=False)
        metrics.add("drain_s", median(drains), "s",
                    f"burst to all flushes returned, median of {len(drains)} cycles",
                    gated=False)
    else:
        log = json.loads(spans_path.read_text())
        untraced_events, _, untraced_cpu = untraced_capacity
        overhead = (untraced_events / untraced_cpu) / (events / capacity_cpu) - 1.0
        layer_metrics(metrics, log, reads, telemetry, counters, overhead,
                      directory_bytes(root) / len(plan.tenants), recover_s)
        shutil.copyfile(spans_path, OUT / f"service_tcp-seed{seed}-spans.json")
    return metrics, result, details


def layer_metrics(metrics: Metrics, log: dict, reads: list, telemetry: dict,
                  counters: dict, overhead: float, bytes_per_stream: float,
                  recover_s: float) -> None:
    """Per-layer numbers from the traced server's spans and join logs."""
    tracer = Tracer.from_log(log)
    events = sum(t["events_applied"] for t in telemetry.values())
    batches = sum(t["batches_applied"] for t in telemetry.values())
    per_event = 1e6 / events
    update = tracer.total("core.update")
    kernel_in_update = sum(
        tracer.total(f"kernels.{k}", parent="core.update") for k in KERNEL_NAMES
    )
    metrics.add("core.update_us_per_event", update * per_event, "us")
    metrics.add("core.glue_us_per_event", (update - kernel_in_update) * per_event, "us")
    for name in KERNEL_NAMES:
        kernel = tracer.durations(f"kernels.{name}")
        metrics.add(f"kernels.{name}.calls", len(kernel), "count", "whole server run")
        metrics.add(f"kernels.{name}.us_per_event", sum(kernel) * per_event, "us")
    metrics.add("kernels.share", kernel_in_update / update if update else 0.0, "ratio",
                "kernel time / update time")
    metrics.add("stream.drain_us_per_event", tracer.total("stream.next") * per_event, "us")
    metrics.add("stream.events_per_batch", events / batches, "count")
    metrics.add("stream.bootstrap_s", median(tracer.durations("stream.bootstrap")), "s",
                "per tenant start")
    metrics.add("als.init_s", median(tracer.durations("als.decompose")), "s",
                "per tenant start")
    scoring = tracer.total("anomaly.score_batch")
    metrics.add("anomaly.score_us_per_event",
                (scoring - tracer.total("core.update", "anomaly.score_batch")) * per_event,
                "us")
    metrics.add("anomaly.reconstruct_calls", len(tracer.durations("anomaly.reconstruct")),
                "count", "whole server run")
    queries = log["queries"]
    fitness_ms = [(e - s) * 1e3 for op, _, s, e in queries if op == "fitness"]
    metrics.add("metrics.fitness_ms", median(fitness_ms), "ms", "fitness query compute")
    records = tracer.counts.get("protocol.ingest_records", 0)
    protocol = tracer.total("protocol.decode_ingest") + tracer.total("protocol.parse_records")
    metrics.add("service.protocol.us_per_record", protocol * 1e6 / records, "us",
                "decode + parse of ingest lines")
    metrics.add("service.protocol.bytes_per_record",
                tracer.counts.get("protocol.ingest_bytes", 0) / records, "bytes")
    acks = log["acks"]
    waits = [
        (start - acks[f"{stream}/{seq}"]) * 1e3
        for stream, seq, start, *_ in log["applies"]
        if f"{stream}/{seq}" in acks
    ]
    require(len(waits) == len(log["applies"]), "an applied chunk has no matching ack")
    metrics.add("service.ingest.queue_wait_ms_p50", pct(waits, 50), "ms",
                f"ack to apply start, {len(waits)} chunks")
    metrics.add("service.ingest.queue_wait_ms_p90", pct(waits, 90), "ms")
    applies = log["applies"]
    apply_s = sum(row[3] - row[2] for row in applies)
    apply_cpu_s = sum(row[5] for row in applies)
    apply_events = sum(row[4] for row in applies)
    metrics.add("service.session.apply_ms_per_chunk", apply_s * 1e3 / len(applies), "ms",
                f"wall (stream lock held), mean of {len(applies)}")
    metrics.add("service.session.apply_us_per_event", apply_cpu_s * 1e6 / apply_events, "us",
                "thread CPU time")
    # The read connection's queries are the first ones the server computed,
    # in the same order.
    served = queries[: len(reads)]
    require(
        [(q[0], q[1]) for q in served] == [(r[0], r[1]) for r in reads],
        "server query log does not line up with the read connection",
    )
    compute_ms = [(e - s) * 1e3 for _, _, s, e in served]
    wait_ms = [r[2] * 1e3 - c for r, c in zip(reads, compute_ms)]
    metrics.add("service.query.compute_ms_p50", pct(compute_ms, 50), "ms",
                f"of {len(compute_ms)} open-loop queries")
    metrics.add("service.query.wait_ms_p50", pct(wait_ms, 50), "ms", "latency - compute")
    metrics.add("service.query.wait_ms_p95", pct(wait_ms, 95), "ms")
    metrics.add("service.overload_rejections",
                sum(t["overload_rejections"] for t in telemetry.values()), "count")
    metrics.add("service.deferred_errors", counters["deferred"], "count")
    saves = tracer.durations("checkpoint.save")
    metrics.add("checkpoint.writes", len(saves), "count", "incl. the shutdown sweep")
    metrics.add("checkpoint.save_ms_p50", pct(saves, 50) * 1e3, "ms")
    metrics.add("checkpoint.bytes_per_stream", bytes_per_stream, "bytes")
    metrics.add("checkpoint.recover_s", recover_s, "s", "restart until all tenants listed")
    metrics.add("trace.overhead_pct", overhead * 100.0, "%",
                "closed-loop events per server CPU second, untraced vs traced server")
    inside_apply = (
        tracer.total("stream.next", "session.apply_chunk")
        + tracer.total("anomaly.score_batch", "session.apply_chunk")
    )
    metrics.add("trace.accounted_pct", 100.0 * inside_apply / apply_s, "%",
                "drain + scoring spans / apply_chunk spans")
