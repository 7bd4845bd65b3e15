"""One tenant stream: buffering, live factor maintenance, durable state.

A :class:`StreamSession` is the synchronous core behind one stream of the
multi-tenant service.  It has two phases:

``buffering``
    Records accumulate in a chronological buffer.  Nothing is decomposed
    yet — the stream needs an initial window before factors exist.
``live``
    :meth:`start` replays the buffer into a
    :class:`~repro.stream.processor.ContinuousStreamProcessor`, initialises
    the configured SliceNStitch variant from an ALS decomposition of the
    initial window, and from then on every ingest chunk is applied with
    :meth:`apply_chunk`: ``processor.extend`` + a batched drain up to the
    chunk's watermark, with every arrival scored by the stream's
    :class:`~repro.anomaly.detector.ZScoreDetector`
    (:func:`repro.anomaly.scoring.score_batch`).

Determinism contract
--------------------
A session's factor/detector state is a pure function of its config and the
*sequence of chunks* applied — wall-clock time never enters the state.  The
service applies one queued chunk at a time in arrival order, so N streams
ingesting concurrently produce states bit-identical to replaying each
stream's chunk sequence alone.

Sessions are not thread-safe: the async layer serialises all access to one
session behind a per-stream lock.

Durability: :meth:`save` persists a ``meta.json`` (identity, config, phase,
and — for buffering streams — the buffer itself) plus, for live streams, an
exact run checkpoint (window, scheduler, factors, RNG stream, detector
state, telemetry) under ``state/`` via the atomic checkpoint writer.
:meth:`load` rebuilds the session; a live stream resumes bit-exactly from
its last checkpoint.
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Sequence
from pathlib import Path
from typing import Any

from repro.als.als import decompose
from repro.anomaly.detector import ZScoreDetector
from repro.anomaly.scoring import score_batch
from repro.core.registry import create_algorithm
from repro.exceptions import (
    CheckpointError,
    ReproError,
    ServiceError,
)
from repro.service.config import StreamConfig
from repro.service.telemetry import StreamTelemetry
from repro.stream.checkpoint import (
    is_checkpoint,
    require_keys,
    restore_run,
    sweep_stale_sibling_dirs,
    write_json_atomic,
)
from repro.stream.events import StreamRecord
from repro.stream.processor import ContinuousStreamProcessor
from repro.stream.stream import MultiAspectStream

_META_FORMAT = "slicenstitch-service-stream"
_META_VERSION = 2
#: Subdirectory of a stream's state directory holding the run checkpoint.
_STATE_DIR = "state"

PHASE_BUFFERING = "buffering"
PHASE_LIVE = "live"

#: The keys :meth:`StreamSession.save` writes, with their types (see
#: :func:`~repro.stream.checkpoint.require_keys`): every ``meta.json``, a
#: buffering stream's ``meta.json`` on top, and a live stream's checkpoint
#: ``extra``.
_META_KEYS = {
    "format": str,
    "version": int,
    "stream_id": str,
    "phase": str,
    "config": dict,
}
_BUFFERING_META_KEYS = {
    "clock": float | None,
    "last_seq": int,
    "buffer": list,
    "telemetry": dict,
}
_LIVE_EXTRA_KEYS = {
    "clock": float,
    "last_seq": int,
    "detector": dict,
    "telemetry": dict,
}


class StreamSession:
    """Synchronous state machine of one tenant stream."""

    def __init__(self, stream_id: str, config: StreamConfig) -> None:
        self.stream_id = str(stream_id)
        self.config = config
        self.telemetry = StreamTelemetry()
        self.phase = PHASE_BUFFERING
        self._buffer: list[StreamRecord] = []
        self._processor: ContinuousStreamProcessor | None = None
        self._model = None
        self._detector = ZScoreDetector(warmup=config.detector_warmup)
        #: Logical stream time: the latest instant whose events have been
        #: applied (or, while buffering, the newest buffered record's time).
        #: Ingests must not go backwards past it.
        self.clock = float("-inf")
        #: High-water mark of *applied* idempotent ingest sequence numbers
        #: (0 = none yet).  Persisted in checkpoints, so after a crash the
        #: mark rolls back with the state and retried chunks re-apply.
        self.last_seq = 0

    # ------------------------------------------------------------------
    # Phase and identity
    # ------------------------------------------------------------------
    @property
    def is_live(self) -> bool:
        """True once :meth:`start` has run."""
        return self.phase == PHASE_LIVE

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest(self, records: Sequence[StreamRecord]) -> int:
        """Accept a chunk of chronologically ordered records.

        Buffering: records are validated and appended to the buffer.
        Live: the chunk is applied immediately (extend + drain + score).
        Returns the number of records accepted.
        """
        records = list(records)
        if not records:
            return 0
        if self.is_live:
            return self.apply_chunk(records)
        self._validate_chunk(records)
        self._buffer.extend(records)
        self.clock = records[-1].time
        self.telemetry.records_ingested += len(records)
        return len(records)

    def _validate_chunk(self, records: Sequence[StreamRecord]) -> None:
        n_categorical = len(self.config.mode_sizes)
        previous = self.clock
        for record in records:
            if len(record.indices) != n_categorical:
                raise ServiceError(
                    "bad_request",
                    f"record {record.indices} has {len(record.indices)} "
                    f"categorical indices; stream {self.stream_id!r} has "
                    f"{n_categorical}",
                )
            for mode, (index, size) in enumerate(
                zip(record.indices, self.config.mode_sizes)
            ):
                if not 0 <= index < size:
                    raise ServiceError(
                        "bad_request",
                        f"record index {index} exceeds size {size} of mode "
                        f"{mode} on stream {self.stream_id!r}",
                    )
            if record.time < previous:
                raise ServiceError(
                    "conflict",
                    f"record at time {record.time} is behind stream "
                    f"{self.stream_id!r}'s clock {previous}; feed records "
                    "chronologically",
                )
            previous = record.time

    def apply_chunk(self, records: Sequence[StreamRecord]) -> int:
        """Apply one chunk to a live stream: extend, drain, score.

        One chunk is the unit of atomicity: the caller (the async layer)
        holds the stream lock across this call, so queries observe either
        the pre-chunk or the post-chunk state, never a half-applied one.
        """
        if not self.is_live:
            raise ServiceError(
                "conflict",
                f"stream {self.stream_id!r} is still buffering; start it "
                "before applying chunks",
            )
        records = list(records)
        if not records:
            return 0
        self._validate_chunk(records)
        processor = self._processor
        assert processor is not None
        started = time.perf_counter()
        try:
            added = processor.extend(records)
        except ReproError as error:
            raise ServiceError("bad_request", str(error)) from error
        n_events, n_batches = self._drain(processor.ingest_horizon)
        self.clock = max(self.clock, processor.ingest_horizon)
        self.telemetry.record_apply(
            n_records=added,
            n_events=n_events,
            n_batches=n_batches,
            seconds=time.perf_counter() - started,
        )
        return added

    def advance(self, to_time: float) -> int:
        """Advance stream time without new data (shifts/expiries fire).

        Lets a tenant with a quiet stream age its window forward; after
        advancing, records earlier than ``to_time`` are refused (their
        arrival would land in the wrong tensor unit).
        Returns the number of events applied.
        """
        to_time = float(to_time)
        if not math.isfinite(to_time):
            raise ServiceError(
                "bad_request",
                f"cannot advance stream {self.stream_id!r} to {to_time}: "
                "the time must be finite",
            )
        if not self.is_live:
            raise ServiceError(
                "conflict",
                f"stream {self.stream_id!r} is still buffering; start it "
                "before advancing",
            )
        if to_time < self.clock:
            raise ServiceError(
                "conflict",
                f"cannot advance stream {self.stream_id!r} to {to_time}: "
                f"its clock is already at {self.clock}",
            )
        started = time.perf_counter()
        n_events, n_batches = self._drain(to_time)
        self.clock = to_time
        self.telemetry.record_apply(
            n_records=0,
            n_events=n_events,
            n_batches=n_batches,
            seconds=time.perf_counter() - started,
        )
        return n_events

    def _drain(self, end_time: float) -> tuple[int, int]:
        """Apply every pending event up to ``end_time``, scoring arrivals."""
        processor = self._processor
        assert processor is not None and self._model is not None
        n_events = 0
        n_batches = 0
        for batch in processor.iter_batches(
            end_time=end_time, batch_window=self.config.batch_window
        ):
            score_batch(self._model, batch, self._detector)
            n_events += batch.n_events
            n_batches += 1
        return n_events, n_batches

    # ------------------------------------------------------------------
    # Going live
    # ------------------------------------------------------------------
    def start(self, start_time: float | None = None) -> dict[str, Any]:
        """Build the initial window from the buffer and initialise factors.

        ``start_time`` defaults to ``first record + W * T`` (a fully
        populated initial window).  Buffered records after ``start_time``
        are replayed as live events immediately, so the session comes up
        caught-up to its newest buffered record.
        """
        if self.is_live:
            raise ServiceError(
                "conflict", f"stream {self.stream_id!r} is already live"
            )
        if not self._buffer:
            raise ServiceError(
                "conflict",
                f"stream {self.stream_id!r} has no buffered records to "
                "build an initial window from",
            )
        try:
            stream = MultiAspectStream(
                self._buffer, mode_sizes=self.config.mode_sizes
            )
            processor = ContinuousStreamProcessor(
                stream, self.config.window_config, start_time=start_time
            )
            initial = decompose(
                processor.window.tensor,
                rank=self.config.rank,
                n_iterations=self.config.als_iterations,
                seed=self.config.seed,
            ).decomposition
            model = create_algorithm(self.config.method, self.config.sns_config)
            model.initialize(processor.window, initial)
        except ServiceError:
            raise
        except ReproError as error:
            raise ServiceError("bad_request", str(error)) from error
        self._processor = processor
        self._model = model
        self._buffer = []
        self.phase = PHASE_LIVE
        self.clock = processor.start_time
        started = time.perf_counter()
        n_events, n_batches = self._drain(processor.ingest_horizon)
        self.clock = max(self.clock, processor.ingest_horizon)
        self.telemetry.record_apply(
            n_records=0,
            n_events=n_events,
            n_batches=n_batches,
            seconds=time.perf_counter() - started,
        )
        return {
            "start_time": processor.start_time,
            "initial_events": n_events,
            "clock": self.clock,
        }

    # ------------------------------------------------------------------
    # Queries (read-only; callers hold the stream lock)
    # ------------------------------------------------------------------
    def _require_live(self, what: str):
        if not self.is_live:
            raise ServiceError(
                "conflict",
                f"stream {self.stream_id!r} is still buffering; {what} "
                "is only available on live streams",
            )
        return self._model

    def factors(self) -> dict[str, Any]:
        """Current factor matrices (dense lists) of the live decomposition."""
        model = self._require_live("factors")
        started = time.perf_counter()
        payload = {
            "rank": self.config.rank,
            "factors": [factor.tolist() for factor in model.factors],
            "n_updates": model.n_updates,
            "clock": self.clock,
        }
        self.telemetry.record_query(time.perf_counter() - started)
        return payload

    def fitness(self) -> dict[str, Any]:
        """Current window fitness of the live decomposition."""
        model = self._require_live("fitness")
        started = time.perf_counter()
        payload = {"fitness": float(model.fitness()), "clock": self.clock}
        self.telemetry.record_query(time.perf_counter() - started)
        return payload

    def anomalies(self, k: int = 20) -> dict[str, Any]:
        """Top-``k`` anomaly scoreboard of the live stream (``k`` in
        ``0..SCOREBOARD_SIZE``)."""
        self._require_live("anomalies")
        started = time.perf_counter()
        payload = {
            "k": int(k),
            "scored": self._detector.count,
            "anomalies": [
                {
                    "coordinate": list(score.coordinate),
                    "z_score": score.z_score,
                    "error": score.error,
                    "event_time": score.event_time,
                    "detection_time": score.detection_time,
                }
                for score in self._detector.top_k(k)
            ],
            "clock": self.clock,
        }
        self.telemetry.record_query(time.perf_counter() - started)
        return payload

    def stats(self) -> dict[str, Any]:
        """Cheap structural snapshot (no factor math)."""
        started = time.perf_counter()
        payload: dict[str, Any] = {
            "stream": self.stream_id,
            "phase": self.phase,
            "method": self.config.method,
            "rank": self.config.rank,
            "mode_sizes": list(self.config.mode_sizes),
            "window_length": self.config.window_length,
            "period": self.config.period,
            "clock": None if self.clock == float("-inf") else self.clock,
            "buffered_records": len(self._buffer),
        }
        if self.is_live:
            processor = self._processor
            assert processor is not None
            payload.update(
                {
                    "window_nnz": processor.window.tensor.nnz,
                    "pending_records": processor.n_pending_records,
                    "events_applied": processor.n_events_emitted,
                    "n_updates": self._model.n_updates,
                    "relaxed": self._model.config.relaxed,
                }
            )
        self.telemetry.record_query(time.perf_counter() - started)
        return payload

    def telemetry_snapshot(self) -> dict[str, Any]:
        """Lifetime telemetry counters of this stream."""
        payload = self.telemetry.to_dict()
        payload["relaxed"] = self._model.config.relaxed if self.is_live else None
        return payload

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def save(self, directory: str | Path) -> Path:
        """Persist the session under ``directory`` (one dir per stream).

        Live streams write an exact run checkpoint (atomic directory swap);
        buffering streams persist their buffer inside ``meta.json``.  Either
        way a killed-and-restarted service rebuilds the session with
        :meth:`load`.
        """
        directory = Path(directory)
        meta: dict[str, Any] = {
            "format": _META_FORMAT,
            "version": _META_VERSION,
            "stream_id": self.stream_id,
            "phase": self.phase,
            "config": self.config.to_dict(),
        }
        # Count the checkpoint first so the persisted counters include it (a
        # restored stream then reports the write that produced its state).
        # On failure the bump is rolled back and the failure recorded
        # instead: the stream is then *degraded*, never half-counted.
        rollback = (
            self.telemetry.checkpoints_written,
            self.telemetry.events_since_checkpoint,
            self.telemetry.last_checkpoint_time,
            self.telemetry.last_checkpoint_monotonic,
            self.telemetry.checkpoint_failure_streak,
            self.telemetry.last_checkpoint_error,
        )
        self.telemetry.record_checkpoint()
        try:
            directory.mkdir(parents=True, exist_ok=True)
            if self.is_live:
                processor = self._processor
                assert processor is not None
                processor.save_checkpoint(
                    directory / _STATE_DIR,
                    model=self._model,
                    extra={
                        "clock": self.clock,
                        "last_seq": self.last_seq,
                        "detector": self._detector.state_dict(),
                        "telemetry": self.telemetry.to_dict(),
                    },
                )
            else:
                meta["clock"] = (
                    None if self.clock == float("-inf") else self.clock
                )
                meta["last_seq"] = self.last_seq
                meta["buffer"] = [
                    [list(record.indices), record.value, record.time]
                    for record in self._buffer
                ]
                meta["telemetry"] = self.telemetry.to_dict()
            write_json_atomic(directory / "meta.json", meta)
        except BaseException as error:
            (
                self.telemetry.checkpoints_written,
                self.telemetry.events_since_checkpoint,
                self.telemetry.last_checkpoint_time,
                self.telemetry.last_checkpoint_monotonic,
                self.telemetry.checkpoint_failure_streak,
                self.telemetry.last_checkpoint_error,
            ) = rollback
            if isinstance(error, Exception):
                self.telemetry.record_checkpoint_failure(
                    f"{type(error).__name__}: {error}"
                )
            raise
        return directory

    @classmethod
    def load(cls, directory: str | Path) -> "StreamSession":
        """Rebuild a session saved by :meth:`save`.

        Live streams resume bit-exactly from their run checkpoint (stale
        ``*.tmp`` / ``*.old`` siblings from a mid-write kill are swept or
        salvaged first).  State is read as :meth:`save` writes it: damaged
        state, a missing, unknown or mistyped key, and state of another
        format version raise :class:`CheckpointError` or
        :class:`~repro.exceptions.ConfigurationError`, which
        :meth:`ServiceManager.recover` reports per stream.
        """
        directory = Path(directory)
        meta_path = directory / "meta.json"
        if not meta_path.is_file():
            raise CheckpointError(
                f"{directory} has no meta.json; not a service stream directory"
            )
        try:
            meta = json.loads(meta_path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise CheckpointError(
                f"stream metadata at {meta_path} is unreadable: {error}"
            ) from error
        if not isinstance(meta, dict) or meta.get("format") != _META_FORMAT:
            raise CheckpointError(
                f"{meta_path} is not a service stream metadata file"
            )
        if meta.get("version") != _META_VERSION:
            raise CheckpointError(
                f"service metadata version {meta.get('version')!r} at "
                f"{meta_path} is not supported (this implementation reads "
                f"version {_META_VERSION}); delete the stream directory"
            )
        phase = meta.get("phase")
        if phase not in (PHASE_BUFFERING, PHASE_LIVE):
            raise CheckpointError(
                f"unknown stream phase {phase!r} at {meta_path}"
            )
        require_keys(
            meta,
            _META_KEYS | (_BUFFERING_META_KEYS if phase == PHASE_BUFFERING else {}),
            f"stream metadata {meta_path}",
        )
        config = StreamConfig.from_dict(meta["config"])
        session = cls(meta["stream_id"], config)
        if phase == PHASE_BUFFERING:
            try:
                session._buffer = [
                    StreamRecord(indices=indices, value=value, time=record_time)
                    for indices, value, record_time in meta["buffer"]
                ]
            except (TypeError, ValueError, ReproError) as error:
                raise CheckpointError(
                    f"buffered records at {meta_path} are unreadable: {error}"
                ) from error
            clock = meta["clock"]
            session.clock = float("-inf") if clock is None else float(clock)
            session.last_seq = meta["last_seq"]
            session.telemetry = StreamTelemetry.from_dict(meta["telemetry"])
            return session
        state_dir = directory / _STATE_DIR
        sweep_stale_sibling_dirs(state_dir)
        if not is_checkpoint(state_dir):
            raise CheckpointError(
                f"live stream {session.stream_id!r} has no run checkpoint at "
                f"{state_dir}"
            )
        processor, model, extra = restore_run(state_dir)
        if model is None:
            raise CheckpointError(
                f"checkpoint at {state_dir} holds no model state"
            )
        require_keys(extra, _LIVE_EXTRA_KEYS, f"checkpoint extra at {state_dir}")
        session._processor = processor
        session._model = model
        session.phase = PHASE_LIVE
        session.clock = float(extra["clock"])
        session.last_seq = extra["last_seq"]
        session._detector = ZScoreDetector.from_state(extra["detector"])
        session.telemetry = StreamTelemetry.from_dict(extra["telemetry"])
        return session
