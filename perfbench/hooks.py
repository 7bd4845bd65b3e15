"""Timing wrappers around the public entry points of each layer.

Everything here wraps a function or method from the outside and records its
calls as :class:`~common.Tracer` spans; nothing under ``src/`` changes, and
the wrapped calls return exactly what the originals return, so traced runs
keep their bit-identical outputs.
"""

from __future__ import annotations

import time

from common import Tracer

from repro.kernels import KERNEL_NAMES, KernelBackend, resolve_backend

#: Registry name of the timing kernel backend.
TIMED_BACKEND = "perfbench-timed"


def timed_backend(tracer: Tracer, base: KernelBackend) -> KernelBackend:
    """``base``'s five kernels, each recorded as a span."""
    kernels = {
        name: tracer.wrap(f"kernels.{name}", getattr(base, name))
        for name in KERNEL_NAMES
    }
    return KernelBackend(name=f"timed-{base.name}", description="timed", **kernels)


def register_timed_backend(tracer: Tracer) -> None:
    """Register the timing backend around the backend ``"auto"`` resolves to now."""
    from repro.kernels import register_backend

    base = resolve_backend()
    register_backend(TIMED_BACKEND, lambda: timed_backend(tracer, base), replace=True)


def timed_next(iterator, tracer: Tracer, name: str = "stream.next"):
    """Yield from ``iterator``, recording the time spent inside ``next()``."""
    clock = time.perf_counter
    while True:
        started = clock()
        try:
            item = next(iterator)
        except StopIteration:
            tracer.record(name, started, clock())
            return
        tracer.record(name, started, clock())
        yield item


class ModelProxy:
    """Times the calls :func:`repro.anomaly.score_batch` makes into a model."""

    def __init__(self, model, tracer: Tracer) -> None:
        self._model = model
        self.update_batch = tracer.wrap("core.update", model.update_batch)
        self.reconstruction_at = tracer.wrap(
            "anomaly.reconstruct", model.reconstruction_at
        )

    @property
    def window(self):
        return self._model.window


def traced_score_batch(tracer: Tracer):
    """``score_batch`` recorded as a span, with the model behind a proxy."""
    from repro.anomaly import score_batch

    timed = tracer.wrap("anomaly.score_batch", score_batch)

    def score(model, batch, detector):
        return timed(ModelProxy(model, tracer), batch, detector)

    return score


def install_service_hooks(tracer: Tracer, log: dict) -> None:
    """Wrap the service's layers in this process (the traced server).

    ``log`` collects the records a span list cannot join by itself: ingest
    ack times keyed by ``stream/seq``, one row per applied chunk (stream,
    seq, start, end, events, thread CPU seconds) and one row per read query
    (op, stream, start, end).
    """
    import repro.service.server as server_module
    import repro.service.session as session_module
    from repro.service.manager import ServiceManager
    from repro.service.session import StreamSession
    from repro.stream.processor import ContinuousStreamProcessor

    clock = time.perf_counter
    acks = log.setdefault("acks", {})
    applies = log.setdefault("applies", [])
    queries = log.setdefault("queries", [])

    decode = server_module.decode_request

    def decode_request(line):
        started = clock()
        request = decode(line)
        ended = clock()
        if request.get("op") == "ingest":
            tracer.record("protocol.decode_ingest", started, ended)
            tracer.count("protocol.ingest_bytes", len(line))
            tracer.count("protocol.ingest_records", len(request.get("records") or ()))
            # Ingest is acknowledged without an await after decoding, so
            # this is the ack time to within microseconds.
            acks[f"{request.get('stream')}/{request.get('seq')}"] = ended
        else:
            tracer.record("protocol.decode", started, ended)
        return request

    server_module.decode_request = decode_request
    server_module.encode_message = tracer.wrap(
        "protocol.encode", server_module.encode_message
    )
    server_module.parse_records = tracer.wrap(
        "protocol.parse_records", server_module.parse_records
    )

    apply_chunk = tracer.wrap("session.apply_chunk", StreamSession.apply_chunk)

    def traced_apply_chunk(self, records):
        seq = self.last_seq + 1  # the worker advances last_seq after each apply
        before = self.telemetry.events_applied
        cpu_started = time.thread_time()
        started = clock()
        try:
            return apply_chunk(self, records)
        finally:
            ended = clock()
            applies.append(
                [self.stream_id, seq, started, ended,
                 self.telemetry.events_applied - before,
                 time.thread_time() - cpu_started]
            )

    StreamSession.apply_chunk = traced_apply_chunk

    def traced_read(op: str, function):
        def read(self, *args):
            started = clock()
            try:
                return function(self, *args)
            finally:
                queries.append([op, self.stream_id, started, clock()])

        return read

    for op in ("fitness", "anomalies", "factors"):
        setattr(StreamSession, op, traced_read(op, getattr(StreamSession, op)))

    ServiceManager.checkpoint_stream = tracer.wrap(
        "checkpoint.save", ServiceManager.checkpoint_stream
    )
    session_module.score_batch = traced_score_batch(tracer)
    session_module.decompose = tracer.wrap("als.decompose", session_module.decompose)
    session_module.ContinuousStreamProcessor = tracer.wrap(
        "stream.bootstrap", ContinuousStreamProcessor
    )
    iter_batches = ContinuousStreamProcessor.iter_batches

    def traced_iter_batches(self, *args, **kwargs):
        return timed_next(iter_batches(self, *args, **kwargs), tracer)

    ContinuousStreamProcessor.iter_batches = traced_iter_batches
    register_timed_backend(tracer)
    from repro.kernels import set_default_backend

    set_default_backend(TIMED_BACKEND)
