"""Asyncio front-end of the multi-tenant streaming service.

Concurrency model
-----------------
* One bounded :class:`asyncio.Queue` and one worker task per stream.  An
  ``ingest`` (or ``advance``) request enqueues one work item and returns
  immediately; a full queue is an explicit ``overloaded`` response — the
  chunk is *rejected*, never silently dropped, and the client owns the
  retry.  The worker applies items strictly in arrival order, so each
  stream's state is a deterministic function of its chunk sequence no
  matter how many streams run concurrently.
* One :class:`asyncio.Lock` per stream guards every touch of its session.
  The worker holds it across a whole chunk application and queries hold it
  across their read, so a query observes either the pre-chunk or the
  post-chunk state — never a half-applied batch (atomic snapshots).
* Every session/manager call — applies, ``start_stream``, recovery,
  queries, checkpoint writes and the shutdown sweep — runs on one
  process-wide *numeric worker* thread (:func:`_offload`), keeping the
  event loop responsive while numpy grinds.  One thread, not a pool: the
  update glue is Python holding the GIL, so only one thread can run it at
  a time, and every extra thread adds GIL handoffs, context switches and
  a malloc arena of its own.  The cost is head-of-line blocking: a heavy
  one-off call (a large tenant's ``start_stream`` ALS) finishes before
  other streams' queued chunks run, instead of time-slicing with them.

Durability: checkpoints are performed by a dedicated background *writer
task*, off each stream's apply loop.  Workers merely *request* a write once
``checkpoint_events`` events have accumulated; the periodic sweep
(``checkpoint_interval``) and explicit ``checkpoint`` ops feed the same
machinery.  A failed write marks the stream *degraded* (telemetry:
``last_checkpoint_error`` / ``checkpoint_failure_streak``) and is retried
on an exponential backoff schedule — never re-attempted on every chunk,
and never fatal to the worker; the next successful write clears the
degraded state.  Graceful shutdown still checkpoints every stream.

Idempotent ingest: ``ingest`` / ``advance`` may carry a per-stream
monotonic ``seq``.  Already-seen sequence numbers (the applied high-water
mark persisted in checkpoints, plus a bounded window of recently enqueued
ones) are acknowledged as duplicates without re-applying, making client
retries after ambiguous transport failures exactly-once.

Deferred errors: because ingestion is acknowledged before it is applied, an
out-of-order chunk fails *after* its response was sent.  Such failures are
kept per stream and surfaced on the next ``flush`` / ``telemetry`` response
instead of vanishing.

Health: the ``health`` op aggregates per-stream liveness (queue depth,
deferred errors, checkpoint staleness, degraded state, watchdog stall
flags); a background watchdog flags workers stuck applying one chunk for
longer than ``watchdog_stall_seconds``.  The stall clock starts when the
apply begins on the numeric worker, so a chunk queued behind other
streams' work is not counted as stuck.

Fault injection: when the :class:`~repro.service.config.ServiceConfig`
carries a :class:`~repro.service.faults.FaultPlan`, the server threads a
:class:`~repro.service.faults.FaultInjector` through its checkpoint writer,
worker apply loop, connection handler, and ingest path — the chaos suites
drive scripted failures through exactly the code paths production takes.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

from repro.anomaly.detector import scoreboard_k
from repro.exceptions import ReproError, ServiceError
from repro.service.config import ServiceConfig
from repro.service.faults import FaultAction, FaultInjector
from repro.service.manager import ServiceManager
from repro.service.protocol import (
    MAX_REQUEST_BYTES,
    decode_request,
    encode_message,
    error_response,
    ok_response,
    parse_records,
)
from repro.stream import checkpoint as checkpoint_module
from repro.validation import matches

#: Lock-discipline contract, enforced by ``repro lint``: every mention of
#: ``<receiver>.<method>`` below must sit inside an ``async with
#: <stream>.lock`` block (the atomic-snapshot guarantee).  Deliberate
#: unguarded uses (shutdown after the workers stopped, streams that never
#: had a worker) carry an inline ``# repro: allow[lock-discipline]``.
LOCK_GUARDED_METHODS = frozenset(
    {
        "session.ingest",
        "session.advance",
        "manager.checkpoint_stream",
        "manager.checkpoint_all",
    }
)

#: The process's numeric worker (see the module docstring), created on
#: first use so that importing this module starts no thread.  It is
#: process-wide because the GIL is: servers and event loops come and go,
#: the worker stays.
_numeric_worker: ThreadPoolExecutor | None = None
_numeric_worker_lock = threading.Lock()


async def _offload(function: Callable[..., Any], *args: Any) -> Any:
    """Run ``function(*args)`` on the numeric worker thread and await it."""
    global _numeric_worker
    with _numeric_worker_lock:
        if _numeric_worker is None:
            _numeric_worker = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-numeric"
            )
        executor = _numeric_worker
    return await asyncio.get_running_loop().run_in_executor(
        executor, function, *args
    )


class _StreamWorker:
    """Queue + lock + apply-loop + seq-dedup window of one stream."""

    def __init__(self, server: "StreamingServer", stream_id: str) -> None:
        self.stream_id = stream_id
        self.queue: asyncio.Queue = asyncio.Queue(
            maxsize=server.manager.config.queue_limit
        )
        self.lock = asyncio.Lock()
        self.deferred_errors: list[str] = []
        #: Recently accepted (enqueued or applied) ingest seqs, oldest first.
        self.seen_seqs: OrderedDict[int, bool] = OrderedDict()
        #: Highest seq ever accepted on this stream (monotonicity guard);
        #: starts at the session's applied high-water mark so a recovered
        #: stream keeps deduplicating across the restart.
        self.max_seq_seen = server.manager.get(stream_id).last_seq
        #: ``time.monotonic()`` at which the in-flight apply began on the
        #: numeric worker (``None`` otherwise, including while the chunk
        #: waits for the worker) — the watchdog's stall signal.
        self.busy_since: float | None = None
        #: Set by the watchdog when one apply exceeds the stall threshold;
        #: cleared when the apply finally completes.
        self.stalled = False
        self._server = server
        self._task: asyncio.Task | None = None

    def ensure_running(self) -> None:
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._task
            self._task = None

    def take_deferred_errors(self) -> list[str]:
        errors, self.deferred_errors = self.deferred_errors, []
        return errors

    # ------------------------------------------------------------------
    # Idempotent-ingest bookkeeping
    # ------------------------------------------------------------------
    def note_seq(self, seq: int) -> None:
        """Remember an accepted seq (bounded dedup window)."""
        self.seen_seqs[seq] = True
        if seq > self.max_seq_seen:
            self.max_seq_seen = seq
        limit = self._server.manager.config.dedup_window
        while len(self.seen_seqs) > limit:
            self.seen_seqs.popitem(last=False)

    def _forget_seq(self, seq: int | None) -> None:
        """Drop a failed seq so an intentional retry is re-applied, not
        silently swallowed as a duplicate."""
        if seq is not None:
            self.seen_seqs.pop(seq, None)

    async def _run(self) -> None:
        server = self._server
        manager = server.manager
        checkpoint_events = manager.config.checkpoint_events
        while True:
            kind, payload, seq = await self.queue.get()
            try:
                session = manager.get(self.stream_id)
                async with self.lock:
                    stall = fault = None
                    if server.faults is not None:
                        stall = server.faults.check(
                            "worker.stall", stream=self.stream_id
                        )
                        fault = server.faults.check(
                            "apply", stream=self.stream_id
                        )
                    apply = (
                        session.ingest if kind == "ingest" else session.advance
                    )
                    await _offload(self._apply, apply, payload, stall, fault)
                    if seq is not None and seq > session.last_seq:
                        session.last_seq = seq
                    if (
                        checkpoint_events is not None
                        and session.telemetry.events_since_checkpoint
                        >= checkpoint_events
                    ):
                        server.request_checkpoint(self.stream_id)
            except asyncio.CancelledError:
                raise
            except ServiceError as error:
                self._forget_seq(seq)
                self.deferred_errors.append(f"{error.code}: {error}")
            except Exception as error:  # keep the worker alive
                self._forget_seq(seq)
                self.deferred_errors.append(f"internal: {error!r}")
            finally:
                self.stalled = False
                self.queue.task_done()

    def _apply(
        self,
        apply: Callable[[Any], Any],
        payload: Any,
        stall: FaultAction | None,
        fault: FaultAction | None,
    ) -> None:
        """Apply one chunk; runs on the numeric worker thread, so the stall
        clock counts only the apply itself, never its wait for the worker."""
        self.busy_since = time.monotonic()
        try:
            if stall is not None and stall.kind == "delay":
                # Injected stall: a stuck apply holds the worker and the
                # stream lock, exactly where a real one would.
                time.sleep(stall.delay)
            if fault is not None:
                fault.raise_fault()
            apply(payload)
        finally:
            self.busy_since = None


class _CheckpointWriter:
    """Dedicated background checkpoint writer (off the ingest hot path).

    Workers, the periodic sweep, and count triggers *request* writes here;
    one task performs them under the stream lock.  Failure isolation: a
    failed write leaves the stream live and degraded
    (:meth:`~repro.service.session.StreamSession.save` records the error on
    its telemetry) and is retried after
    ``checkpoint_retry_backoff * 2**(streak-1)`` seconds (capped at
    ``checkpoint_retry_max``); count-triggered requests arriving during the
    backoff are coalesced into that retry instead of hammering the disk on
    every chunk.
    """

    def __init__(self, server: "StreamingServer") -> None:
        self._server = server
        self._queue: asyncio.Queue[str] = asyncio.Queue()
        self._pending: set[str] = set()
        self._idle: dict[str, asyncio.Event] = {}
        self._retry_not_before: dict[str, float] = {}
        self._retry_handles: dict[str, asyncio.TimerHandle] = {}
        self._task: asyncio.Task | None = None

    def ensure_running(self) -> None:
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(self._run())

    def request(self, stream_id: str, force: bool = False) -> None:
        """Ask for one background checkpoint of ``stream_id``.

        Coalesces: a no-op while a write for the stream is already queued
        or in flight, and — unless ``force`` — while the stream is inside
        its failure backoff window (the scheduled retry will cover it).
        """
        if stream_id in self._pending:
            return
        if not force and time.monotonic() < self._retry_not_before.get(
            stream_id, 0.0
        ):
            return
        self.ensure_running()
        self._pending.add(stream_id)
        self._idle.setdefault(stream_id, asyncio.Event()).clear()
        self._queue.put_nowait(stream_id)

    async def wait_idle(self, stream_id: str) -> None:
        """Barrier: wait until no write for ``stream_id`` is queued/in flight
        (scheduled backoff retries are *not* waited for)."""
        event = self._idle.get(stream_id)
        if event is not None:
            await event.wait()

    def forget(self, stream_id: str) -> None:
        """Drop retry state for a removed stream."""
        handle = self._retry_handles.pop(stream_id, None)
        if handle is not None:
            handle.cancel()
        self._retry_not_before.pop(stream_id, None)

    async def stop(self) -> None:
        """Finish queued writes, cancel retries, and stop the task."""
        for handle in self._retry_handles.values():
            handle.cancel()
        self._retry_handles.clear()
        self._retry_not_before.clear()
        if self._task is not None and not self._task.done():
            await self._queue.join()
        if self._task is not None:
            self._task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._task
            self._task = None
        self._pending.clear()
        for event in self._idle.values():
            event.set()

    async def _run(self) -> None:
        while True:
            stream_id = await self._queue.get()
            try:
                await self._write(stream_id)
            finally:
                self._pending.discard(stream_id)
                event = self._idle.get(stream_id)
                if event is not None:
                    event.set()
                self._queue.task_done()

    async def _write(self, stream_id: str) -> None:
        server = self._server
        if stream_id not in server.manager:
            return  # dropped while the request was queued
        worker = server._workers.get(stream_id)
        try:
            if worker is None:
                # No worker == no concurrent ingest on this stream.
                await _offload(
                    # repro: allow[lock-discipline] stream has no worker
                    server.manager.checkpoint_stream,
                    stream_id,
                )
            else:
                async with worker.lock:
                    await _offload(
                        server.manager.checkpoint_stream, stream_id
                    )
        except asyncio.CancelledError:
            raise
        # The writer task must survive *any* write failure; session.save
        # already recorded the cause on the stream's telemetry (degraded).
        except Exception:  # repro: allow[broad-except] retried via backoff
            self._schedule_retry(stream_id)
        else:
            self.forget(stream_id)

    def _schedule_retry(self, stream_id: str) -> None:
        config = self._server.manager.config
        try:
            streak = self._server.manager.get(
                stream_id
            ).telemetry.checkpoint_failure_streak
        except ServiceError:
            return
        delay = min(
            config.checkpoint_retry_max,
            config.checkpoint_retry_backoff * (2 ** max(streak - 1, 0)),
        )
        self._retry_not_before[stream_id] = time.monotonic() + delay
        old = self._retry_handles.pop(stream_id, None)
        if old is not None:
            old.cancel()
        self._retry_handles[stream_id] = asyncio.get_running_loop().call_later(
            delay, self._fire_retry, stream_id
        )

    def _fire_retry(self, stream_id: str) -> None:
        self._retry_handles.pop(stream_id, None)
        self._retry_not_before.pop(stream_id, None)
        if stream_id in self._server.manager:
            self.request(stream_id, force=True)


class StreamingServer:
    """Line-delimited JSON TCP server over a :class:`ServiceManager`."""

    def __init__(
        self,
        manager: ServiceManager | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        # Not `manager or ...`: an empty manager has __len__ == 0 and would
        # be discarded as falsy.
        self.manager = (
            manager if manager is not None else ServiceManager(ServiceConfig())
        )
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._workers: dict[str, _StreamWorker] = {}
        self._writer = _CheckpointWriter(self)
        self._checkpoint_task: asyncio.Task | None = None
        self._watchdog_task: asyncio.Task | None = None
        self._shutdown = asyncio.Event()
        plan = self.manager.config.fault_plan
        #: Active fault injector (``None`` outside chaos runs).
        self.faults: FaultInjector | None = (
            FaultInjector(plan) if plan is not None else None
        )
        self._hook_installed = False
        if self.faults is not None:
            checkpoint_module.install_write_fault_hook(
                self.faults.checkpoint_write_hook
            )
            self._hook_installed = True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """Resolved ``(host, port)`` once the server is started."""
        if self._server is None or not self._server.sockets:
            raise ServiceError("conflict", "the server is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def start(self) -> tuple[str, int]:
        """Recover persisted streams and start accepting connections."""
        await _offload(self.manager.recover)
        self._server = await asyncio.start_server(
            self._handle_client,
            host=self.host,
            port=self.port,
            limit=MAX_REQUEST_BYTES + 1024,
        )
        interval = self.manager.config.checkpoint_interval
        if interval > 0 and self.manager.config.root_path is not None:
            self._checkpoint_task = asyncio.get_running_loop().create_task(
                self._checkpoint_loop(interval)
            )
        threshold = self.manager.config.watchdog_stall_seconds
        if threshold > 0:
            self._watchdog_task = asyncio.get_running_loop().create_task(
                self._watchdog_loop(threshold)
            )
        return self.address

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` op (or :meth:`request_shutdown`)."""
        await self._shutdown.wait()
        await self.stop()

    def request_shutdown(self) -> None:
        """Ask the serve loop to stop (signal handlers call this)."""
        self._shutdown.set()

    async def stop(self) -> None:
        """Graceful stop: drain queues, checkpoint everything, close."""
        for task_attr in ("_checkpoint_task", "_watchdog_task"):
            task = getattr(self, task_attr)
            if task is not None:
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await task
                setattr(self, task_attr, None)
        for worker in self._workers.values():
            await worker.queue.join()
            await worker.stop()
        await self._writer.stop()
        # Every worker and the writer have stopped: nothing else can touch
        # the sessions, so the final sweep needs no per-stream lock.
        # repro: allow[lock-discipline] quiesced shutdown sweep
        await _offload(self.manager.checkpoint_all)
        if self._hook_installed:
            checkpoint_module.install_write_fault_hook(None)
            self._hook_installed = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _checkpoint_loop(self, interval: float) -> None:
        while True:
            await asyncio.sleep(interval)
            for stream_id in self.manager.stream_ids:
                self._writer.request(stream_id)

    async def _watchdog_loop(self, threshold: float) -> None:
        """Flag workers stuck applying one chunk longer than ``threshold``."""
        interval = max(min(threshold / 4.0, 1.0), 0.01)
        while True:
            await asyncio.sleep(interval)
            now = time.monotonic()
            for stream_id, worker in list(self._workers.items()):
                busy_since = worker.busy_since
                if (
                    busy_since is not None
                    and not worker.stalled
                    and now - busy_since >= threshold
                ):
                    worker.stalled = True
                    with contextlib.suppress(ServiceError):
                        self.manager.get(
                            stream_id
                        ).telemetry.stalls_detected += 1

    def request_checkpoint(self, stream_id: str) -> None:
        """Hand a stream to the background checkpoint writer (no-op without
        a checkpoint root)."""
        if self.manager.config.root_path is not None:
            self._writer.request(stream_id)

    # ------------------------------------------------------------------
    # Per-stream plumbing
    # ------------------------------------------------------------------
    def _worker(self, stream_id: str) -> _StreamWorker:
        """Worker for an *existing* stream (``unknown_stream`` otherwise)."""
        self.manager.get(stream_id)  # raises unknown_stream
        worker = self._workers.get(stream_id)
        if worker is None:
            worker = _StreamWorker(self, stream_id)
            self._workers[stream_id] = worker
        worker.ensure_running()
        return worker

    @staticmethod
    def _require(request: dict[str, Any], key: str) -> Any:
        value = request.get(key)
        if value is None:
            raise ServiceError(
                "bad_request", f'the {request["op"]!r} op needs a {key!r} field'
            )
        return value

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    @staticmethod
    def _peek_request(line: bytes) -> tuple[str | None, str | None]:
        """Best-effort ``(op, stream)`` of a raw request line (fault
        matching only; real validation happens in ``decode_request``)."""
        try:
            payload = json.loads(line)
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None, None
        if not isinstance(payload, dict):
            return None, None
        op = payload.get("op")
        stream = payload.get("stream")
        return (
            op if isinstance(op, str) else None,
            str(stream) if stream is not None else None,
        )

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(
                        encode_message(
                            error_response(
                                "bad_request",
                                "request line too long; closing connection",
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                reset = None
                if self.faults is not None:
                    op, stream = self._peek_request(line)
                    reset = self.faults.check(
                        "connection.reset", stream=stream, op=op
                    )
                if reset is not None and reset.kind == "delay":
                    # Slow response: the op proceeds, the client may time out.
                    await asyncio.sleep(reset.delay)
                    reset = None
                if reset is not None and reset.stage == "request":
                    # Drop the request before any processing happened.
                    writer.transport.abort()
                    break
                response = await self._dispatch_safely(line)
                if reset is not None:
                    # The op was applied; its ack is lost — the ambiguous
                    # failure idempotent retries exist for.
                    writer.transport.abort()
                    break
                writer.write(encode_message(response))
                await writer.drain()
                if response.get("shutdown"):
                    self._shutdown.set()
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            # Peer may already be gone; nothing to do about close errors.
            # repro: allow[broad-except] best-effort socket teardown
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _dispatch_safely(self, line: bytes) -> dict[str, Any]:
        try:
            request = decode_request(line)
            return await self._dispatch(request)
        except ServiceError as error:
            return error_response(error.code, str(error))
        except ReproError as error:
            return error_response("bad_request", str(error))
        except Exception as error:  # pragma: no cover - defensive
            return error_response("internal", repr(error))

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    async def _dispatch(self, request: dict[str, Any]) -> dict[str, Any]:
        op = request["op"]
        if op == "ping":
            return ok_response(pong=True, streams=len(self.manager))
        if op == "streams":
            rows = self.manager.describe()
            for row in rows:
                worker = self._workers.get(row["stream"])
                row["queue_depth"] = worker.queue.qsize() if worker else 0
            return ok_response(streams=rows)
        if op == "create_stream":
            return await self._op_create(request)
        if op == "checkpoint_all":
            written: list[str] = []
            failed: dict[str, str] = {}
            for stream_id in self.manager.stream_ids:
                worker = self._worker(stream_id)
                try:
                    async with worker.lock:
                        await _offload(
                            self.manager.checkpoint_stream, stream_id
                        )
                except Exception as error:
                    failed[stream_id] = f"{type(error).__name__}: {error}"
                    continue
                written.append(stream_id)
            return ok_response(checkpointed=written, failed=failed)
        if op == "health":
            if request.get("stream") is None:
                return self._op_health_service()
            return ok_response(
                **self._stream_health(str(request["stream"]))
            )
        if op == "shutdown":
            return ok_response(shutdown=True)

        # Everything below addresses one existing stream.
        stream_id = str(self._require(request, "stream"))
        if op == "ingest":
            return self._op_ingest(stream_id, request)
        if op == "advance":
            return self._op_advance(stream_id, request)
        worker = self._worker(stream_id)
        session = self.manager.get(stream_id)
        if op == "start_stream":
            await worker.queue.join()  # buffered ingests land first
            async with worker.lock:
                result = await _offload(
                    session.start, request.get("start_time")
                )
            return ok_response(**result)
        if op == "flush":
            await worker.queue.join()
            # Flush is also a durability barrier: requested checkpoint
            # writes land before the response (backoff retries excluded).
            await self._writer.wait_idle(stream_id)
            return ok_response(
                clock=None if session.clock == float("-inf") else session.clock,
                events_applied=session.telemetry.events_applied,
                deferred_errors=worker.take_deferred_errors(),
            )
        if op == "factors":
            async with worker.lock:
                return ok_response(
                    **await _offload(session.factors)
                )
        if op == "fitness":
            async with worker.lock:
                return ok_response(
                    **await _offload(session.fitness)
                )
        if op == "anomalies":
            k = scoreboard_k(request.get("k", 20))
            async with worker.lock:
                return ok_response(
                    **await _offload(session.anomalies, k)
                )
        if op == "stats":
            async with worker.lock:
                return ok_response(**await _offload(session.stats))
        if op == "telemetry":
            async with worker.lock:
                payload = await _offload(session.telemetry_snapshot)
            payload["queue_depth"] = worker.queue.qsize()
            return ok_response(
                telemetry=payload,
                deferred_errors=list(worker.deferred_errors),
            )
        if op == "checkpoint":
            async with worker.lock:
                path = await _offload(
                    self.manager.checkpoint_stream, stream_id
                )
            return ok_response(path=None if path is None else str(path))
        if op == "drop_stream":
            await worker.queue.join()
            await worker.stop()
            self._workers.pop(stream_id, None)
            self._writer.forget(stream_id)
            await _offload(
                self.manager.drop_stream,
                stream_id,
                bool(request.get("delete_state", False)),
            )
            return ok_response(dropped=stream_id)
        raise ServiceError("bad_request", f"unknown op {op!r}")

    async def _op_create(self, request: dict[str, Any]) -> dict[str, Any]:
        from repro.service.config import StreamConfig

        stream_id = str(self._require(request, "stream"))
        config = StreamConfig.from_dict(self._require(request, "config"))
        session = self.manager.create_stream(stream_id, config)
        self._worker(stream_id)
        return ok_response(stream=stream_id, phase=session.phase)

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def _stream_health(self, stream_id: str) -> dict[str, Any]:
        """Liveness/readiness snapshot of one stream (lock-free on purpose:
        health must answer even while an apply is stalled under the lock)."""
        session = self.manager.get(stream_id)
        telemetry = session.telemetry
        worker = self._workers.get(stream_id)
        config = self.manager.config
        busy_since = worker.busy_since if worker is not None else None
        busy_seconds = (
            time.monotonic() - busy_since if busy_since is not None else None
        )
        threshold = config.watchdog_stall_seconds
        stalled = bool(worker is not None and worker.stalled) or (
            threshold > 0
            and busy_seconds is not None
            and busy_seconds >= threshold
        )
        checkpoint_stale = (
            config.checkpoint_events is not None
            and config.root_path is not None
            and telemetry.events_since_checkpoint
            >= 2 * config.checkpoint_events
        )
        degraded = telemetry.degraded or checkpoint_stale
        status = "stalled" if stalled else "degraded" if degraded else "ok"
        return {
            "stream": stream_id,
            "status": status,
            "phase": session.phase,
            "queue_depth": worker.queue.qsize() if worker is not None else 0,
            "deferred_errors": (
                len(worker.deferred_errors) if worker is not None else 0
            ),
            "degraded": telemetry.degraded,
            "last_checkpoint_error": telemetry.last_checkpoint_error,
            "checkpoint_failures": telemetry.checkpoint_failures,
            "checkpoint_age": telemetry.checkpoint_age,
            "checkpoint_stale": bool(checkpoint_stale),
            "events_since_checkpoint": telemetry.events_since_checkpoint,
            "apply_busy_seconds": busy_seconds,
            "stalled": stalled,
            "stalls_detected": telemetry.stalls_detected,
            "last_seq": session.last_seq,
        }

    def _op_health_service(self) -> dict[str, Any]:
        """Service-wide health: worst stream status wins."""
        rows = [
            self._stream_health(stream_id)
            for stream_id in self.manager.stream_ids
        ]
        degraded = [row["stream"] for row in rows if row["status"] == "degraded"]
        stalled = [row["stream"] for row in rows if row["status"] == "stalled"]
        status = "stalled" if stalled else "degraded" if degraded else "ok"
        payload: dict[str, Any] = {
            "status": status,
            "streams": {
                "total": len(rows),
                "ok": len(rows) - len(degraded) - len(stalled),
                "degraded": degraded,
                "stalled": stalled,
            },
        }
        if self.faults is not None:
            payload["faults"] = self.faults.report()
        return ok_response(**payload)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def _accept_seq(
        self,
        worker: _StreamWorker,
        session,
        request: dict[str, Any],
    ) -> tuple[int | None, dict[str, Any] | None]:
        """Validate an optional ``seq``; returns ``(seq, duplicate_response)``.

        A ``seq`` at or below the applied high-water mark, or inside the
        recent-seq window (enqueued but not yet applied), is a duplicate:
        acknowledged without re-applying.  A ``seq`` below the highest one
        seen that is *not* a known duplicate is refused (``conflict``) —
        it would silently reorder the stream.
        """
        raw = request.get("seq")
        if raw is None:
            return None, None
        if not matches(raw, int):
            # 2.7 is not seq 2: truncated, it would read as a duplicate.
            raise ServiceError("bad_request", f"seq must be an integer, got {raw!r}")
        seq = int(raw)
        if seq < 1:
            raise ServiceError(
                "bad_request", f"seq must be >= 1, got {seq}"
            )
        if seq <= session.last_seq or seq in worker.seen_seqs:
            session.telemetry.duplicates_skipped += 1
            return seq, ok_response(
                duplicate=True,
                queued=0,
                depth=worker.queue.qsize(),
                seq=seq,
            )
        if seq < worker.max_seq_seen:
            raise ServiceError(
                "conflict",
                f"non-monotonic seq {seq} on stream "
                f"{worker.stream_id!r}: {worker.max_seq_seen} was already "
                "accepted",
            )
        return seq, None

    def _check_injected_overload(self, stream_id: str, session, op: str) -> None:
        if self.faults is None:
            return
        action = self.faults.check(
            "ingest.overload", stream=stream_id, op=op
        )
        if action is not None:
            session.telemetry.overload_rejections += 1
            raise ServiceError(
                "overloaded", f"{action.message}; retry after a flush"
            )

    def _op_ingest(
        self, stream_id: str, request: dict[str, Any]
    ) -> dict[str, Any]:
        worker = self._worker(stream_id)
        session = self.manager.get(stream_id)
        records = parse_records(self._require(request, "records"))
        seq, duplicate = self._accept_seq(worker, session, request)
        if duplicate is not None:
            return duplicate
        self._check_injected_overload(stream_id, session, "ingest")
        try:
            worker.queue.put_nowait(("ingest", records, seq))
        except asyncio.QueueFull:
            session.telemetry.overload_rejections += 1
            raise ServiceError(
                "overloaded",
                f"stream {stream_id!r}'s ingest queue is full "
                f"({worker.queue.maxsize} chunks); retry after a flush",
            ) from None
        if seq is not None:
            worker.note_seq(seq)
        response = ok_response(
            queued=len(records), depth=worker.queue.qsize()
        )
        if seq is not None:
            response["seq"] = seq
            response["duplicate"] = False
        return response

    def _op_advance(
        self, stream_id: str, request: dict[str, Any]
    ) -> dict[str, Any]:
        worker = self._worker(stream_id)
        session = self.manager.get(stream_id)
        to_time = float(self._require(request, "time"))
        seq, duplicate = self._accept_seq(worker, session, request)
        if duplicate is not None:
            return duplicate
        self._check_injected_overload(stream_id, session, "advance")
        try:
            worker.queue.put_nowait(("advance", to_time, seq))
        except asyncio.QueueFull:
            session.telemetry.overload_rejections += 1
            raise ServiceError(
                "overloaded",
                f"stream {stream_id!r}'s ingest queue is full "
                f"({worker.queue.maxsize} chunks); retry after a flush",
            ) from None
        if seq is not None:
            worker.note_seq(seq)
        response = ok_response(depth=worker.queue.qsize())
        if seq is not None:
            response["seq"] = seq
            response["duplicate"] = False
        return response


async def serve(
    manager: ServiceManager,
    host: str = "127.0.0.1",
    port: int = 0,
    ready: "asyncio.Future | None" = None,
) -> None:
    """Start a server, announce its address, and run until shutdown."""
    server = StreamingServer(manager, host=host, port=port)
    address = await server.start()
    if ready is not None and not ready.done():
        ready.set_result(address)
    await server.serve_until_shutdown()
