"""Per-stream telemetry counters.

Every mutation of a stream bumps counters here; the ``telemetry`` wire op
returns them verbatim.  Counters are plain numbers (JSON-serialisable), ride
along in checkpoint ``extra`` payloads, and survive restarts — a recovered
stream reports lifetime totals, not totals-since-restart.

Timings are wall-clock observability data, *not* part of the deterministic
stream state: two runs with identical factor state may report different
``apply_seconds``.
"""

from __future__ import annotations

import dataclasses
import time
import typing
from typing import Any

from repro.stream.checkpoint import require_keys


@dataclasses.dataclass(slots=True)
class StreamTelemetry:
    """Lifetime counters and stage timings of one stream."""

    #: Stream records accepted by ``ingest`` (buffered or applied).
    records_ingested: int = 0
    #: Ingest chunks applied to the live processor.
    chunks_applied: int = 0
    #: Window events (arrival/shift/expiry) applied.
    events_applied: int = 0
    #: Delta batches handed to the model.
    batches_applied: int = 0
    #: Read queries served (factors / fitness / anomalies / stats).
    queries_served: int = 0
    #: Ingest requests refused because the stream's queue was full.
    overload_rejections: int = 0
    #: Checkpoints written for this stream.
    checkpoints_written: int = 0
    #: Events applied since the last checkpoint (drives count-triggered saves).
    events_since_checkpoint: int = 0
    #: Unix time of the last checkpoint write (0.0 = never).  Diagnostic
    #: only — ``checkpoint_age`` prefers the monotonic stamp below.
    last_checkpoint_time: float = 0.0
    #: ``time.monotonic()`` stamp of the last checkpoint written *by this
    #: process* (0.0 = none yet).  Never persisted: monotonic clocks are
    #: process-local, so a restored stream falls back to wall-clock age.
    last_checkpoint_monotonic: float = 0.0
    #: Checkpoint write attempts that failed (lifetime).
    checkpoint_failures: int = 0
    #: Consecutive failed checkpoint attempts since the last success
    #: (drives the background writer's retry backoff).
    checkpoint_failure_streak: int = 0
    #: Human-readable cause of the most recent checkpoint failure, cleared
    #: by the next successful write.  Non-``None`` == the stream is degraded.
    last_checkpoint_error: str | None = None
    #: Duplicate ingest/advance requests skipped by seq-based dedup.
    duplicates_skipped: int = 0
    #: Stall episodes flagged by the worker watchdog.
    stalls_detected: int = 0
    #: Cumulative seconds spent applying chunks (extend + drain + score).
    apply_seconds: float = 0.0
    #: Cumulative seconds spent serving read queries.
    query_seconds: float = 0.0

    def record_apply(
        self, n_records: int, n_events: int, n_batches: int, seconds: float
    ) -> None:
        """Account one applied ingest chunk."""
        self.chunks_applied += 1
        self.records_ingested += int(n_records)
        self.events_applied += int(n_events)
        self.batches_applied += int(n_batches)
        self.events_since_checkpoint += int(n_events)
        self.apply_seconds += float(seconds)

    def record_query(self, seconds: float) -> None:
        """Account one served read query."""
        self.queries_served += 1
        self.query_seconds += float(seconds)

    def record_checkpoint(self) -> None:
        """Account one written checkpoint and reset the since-counter."""
        self.checkpoints_written += 1
        self.events_since_checkpoint = 0
        # Persisted diagnostic timestamp; in-process staleness math uses
        # the monotonic stamp below, not this.
        # repro: allow[wall-clock] persisted diagnostic timestamp
        self.last_checkpoint_time = time.time()
        self.last_checkpoint_monotonic = time.monotonic()
        self.checkpoint_failure_streak = 0
        self.last_checkpoint_error = None

    def record_checkpoint_failure(self, message: str) -> None:
        """Account one failed checkpoint attempt; marks the stream degraded."""
        self.checkpoint_failures += 1
        self.checkpoint_failure_streak += 1
        self.last_checkpoint_error = str(message)

    @property
    def degraded(self) -> bool:
        """True while the last checkpoint attempt failed (durability at risk:
        ingestion keeps running, but a crash would lose more than expected)."""
        return self.last_checkpoint_error is not None

    @property
    def checkpoint_age(self) -> float | None:
        """Seconds since the last checkpoint, or ``None`` if never written.

        Checkpoints written by this process are aged with the monotonic
        clock, immune to wall-clock steps (an NTP jump must not flip a
        healthy stream into the stale alarm).  A freshly recovered stream
        has no monotonic stamp yet, so its age falls back to the persisted
        wall-clock timestamp, clamped at zero.
        """
        if self.last_checkpoint_monotonic > 0.0:
            return max(time.monotonic() - self.last_checkpoint_monotonic, 0.0)
        if self.last_checkpoint_time <= 0.0:
            return None
        # The monotonic stamp does not survive a restart; the persisted
        # wall timestamp is the only age signal a recovered stream has.
        # repro: allow[wall-clock] cross-restart staleness fallback
        return max(time.time() - self.last_checkpoint_time, 0.0)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable snapshot (includes the derived fields)."""
        payload = dataclasses.asdict(self)
        # Monotonic stamps are meaningless outside this process.
        payload.pop("last_checkpoint_monotonic", None)
        payload["checkpoint_age"] = self.checkpoint_age
        payload["degraded"] = self.degraded
        return payload

    @classmethod
    def from_dict(cls, payload: Any) -> "StreamTelemetry":
        """Rebuild from :meth:`to_dict` output, read as written.

        Every key :meth:`to_dict` writes is required and must have its
        type (:func:`~repro.stream.checkpoint.require_keys`); the derived
        ``checkpoint_age`` and ``degraded`` are checked, then dropped.
        """
        fields = typing.get_type_hints(cls)
        del fields["last_checkpoint_monotonic"]
        require_keys(
            payload,
            fields | {"checkpoint_age": float | None, "degraded": bool},
            "stream telemetry",
        )
        return cls(**{key: payload[key] for key in fields})
