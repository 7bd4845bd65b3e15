"""Configuration objects for the multi-tenant streaming service.

Two layers of configuration:

* :class:`StreamConfig` — everything one tenant stream needs: the window
  geometry (categorical mode sizes, ``W``, ``T``), the SliceNStitch variant
  that maintains its factors, and the hyper-parameters of that variant.
  Serialisable to/from plain JSON dicts so it can travel over the wire and
  live in per-stream metadata files.
* :class:`ServiceConfig` — service-wide knobs: the stream cap, the
  per-stream ingest queue bound (backpressure), and the checkpoint policy.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from pathlib import Path
from typing import Any

from repro.core.base import SNSConfig
from repro.core.registry import ALGORITHMS
from repro.exceptions import ConfigurationError, RankError
from repro.service.faults import FaultPlan
from repro.stream.window import WindowConfig
from repro.validation import check_fields, from_dict


@dataclasses.dataclass(frozen=True, slots=True)
class StreamConfig:
    """Static description of one tenant stream.

    Parameters
    ----------
    mode_sizes:
        Sizes of the categorical modes (the time mode is implicit).
    window_length:
        Number of tensor units ``W`` in the sliding window.
    period:
        Unit period ``T`` in stream time units.
    rank:
        CP rank of the maintained decomposition.
    method:
        Registered SliceNStitch variant maintaining the factors.
    theta, eta, regularization, nonnegative, seed:
        Hyper-parameters forwarded to :class:`~repro.core.base.SNSConfig`.
    relaxed:
        ``False`` (the default) keeps the exact algorithm; ``True`` runs the
        relaxed batch update (see :mod:`repro.core.relaxed`), forwarded to
        :class:`~repro.core.base.SNSConfig`.  A stream's batches are its
        ingest chunks cut at ``batch_window``, so the client's chunking
        sets the batch size; ``bench_sharded.py``'s ``served`` point
        measures the ``service_tcp`` chunk shape.
    als_iterations:
        ALS sweeps used to initialise the factors when the stream starts.
    detector_warmup:
        Warm-up observations of the per-stream anomaly detector.
    batch_window:
        Batch grouping window for the live drain (``None`` = the period).

    Every field must have its annotated type (:mod:`repro.validation`);
    anything else raises :class:`ConfigurationError` here rather than a
    ``TypeError`` later, or worse, a silently different stream.
    """

    mode_sizes: tuple[int, ...]
    window_length: int
    period: float
    rank: int
    method: str = "sns_vec"
    theta: int = 20
    eta: float = 1000.0
    regularization: float = 1e-12
    nonnegative: bool = False
    relaxed: bool = False
    seed: int = 0
    als_iterations: int = 10
    detector_warmup: int = 30
    batch_window: float | None = None

    def __post_init__(self) -> None:
        check_fields(self)
        if self.method not in ALGORITHMS:
            raise ConfigurationError(
                f"unknown method {self.method!r}; choose one of "
                f"{sorted(ALGORITHMS)}"
            )
        if self.als_iterations <= 0:
            raise ConfigurationError(
                f"als_iterations must be positive, got {self.als_iterations}"
            )
        if self.batch_window is not None and self.batch_window < 0:
            raise ConfigurationError(
                f"batch_window must be >= 0, got {self.batch_window}"
            )
        # The window and the model check their own ranges, here at
        # construction, so create_stream refuses what start would.
        self.window_config
        try:
            self.sns_config
        except RankError as error:
            raise ConfigurationError(str(error)) from error

    @property
    def window_config(self) -> WindowConfig:
        """The stream's window geometry."""
        return WindowConfig(
            mode_sizes=self.mode_sizes,
            window_length=self.window_length,
            period=self.period,
        )

    @property
    def sns_config(self) -> SNSConfig:
        """The hyper-parameters of the stream's model."""
        return SNSConfig(
            rank=self.rank,
            theta=self.theta,
            eta=self.eta,
            regularization=self.regularization,
            nonnegative=self.nonnegative,
            seed=self.seed,
            relaxed=self.relaxed,
        )

    def to_dict(self) -> dict[str, Any]:
        """Plain JSON-serialisable representation."""
        payload = dataclasses.asdict(self)
        payload["mode_sizes"] = list(self.mode_sizes)
        return payload

    @classmethod
    def from_dict(cls, payload: Any) -> "StreamConfig":
        """Rebuild from :meth:`to_dict` output (or a wire request)."""
        return from_dict(cls, payload, "stream config")


@dataclasses.dataclass(frozen=True, slots=True)
class ServiceConfig:
    """Service-wide policy knobs.

    Parameters
    ----------
    max_streams:
        Admission cap: ``create_stream`` beyond this count is refused.
    queue_limit:
        Bound of each stream's ingest queue; a full queue makes further
        ingests fail fast with an ``overloaded`` response (backpressure —
        the records are *rejected*, never silently dropped).
    checkpoint_root:
        Directory holding one subdirectory of durable state per stream.
        ``None`` disables persistence (queries and ingestion still work).
    checkpoint_events:
        Write a stream's checkpoint whenever this many events have been
        applied since its last one.  ``None`` disables count-triggered
        checkpoints.
    checkpoint_interval:
        Seconds between background checkpoint sweeps over all live streams.
        ``0`` disables the sweep.
    checkpoint_retry_backoff:
        Base delay (seconds) before a *failed* background checkpoint is
        retried; doubles per consecutive failure up to
        ``checkpoint_retry_max``.  Failed checkpoints mark the stream
        degraded and retry on this schedule instead of re-attempting on
        every subsequent chunk.
    checkpoint_retry_max:
        Cap on the checkpoint retry backoff (seconds).
    dedup_window:
        How many recent ingest/advance ``seq`` numbers each stream
        remembers for idempotent-retry dedup (on top of the applied
        high-water mark, which is persisted in checkpoints).
    watchdog_stall_seconds:
        A worker busy applying one chunk for longer than this is flagged
        as stalled by the watchdog (telemetry + ``health``).  ``0``
        disables the watchdog.
    fault_plan:
        Optional :class:`~repro.service.faults.FaultPlan` (or its dict
        form) scripting deterministic fault injection for chaos runs.
        ``None`` — the default — injects nothing.
    """

    max_streams: int = 64
    queue_limit: int = 64
    checkpoint_root: str | Path | None = None
    checkpoint_events: int | None = None
    checkpoint_interval: float = 0.0
    checkpoint_retry_backoff: float = 0.5
    checkpoint_retry_max: float = 30.0
    dedup_window: int = 1024
    watchdog_stall_seconds: float = 0.0
    fault_plan: FaultPlan | Mapping | None = None

    def __post_init__(self) -> None:
        check_fields(self)
        if isinstance(self.fault_plan, Mapping):
            object.__setattr__(
                self, "fault_plan", FaultPlan.from_dict(self.fault_plan)
            )
        if self.max_streams <= 0:
            raise ConfigurationError(
                f"max_streams must be positive, got {self.max_streams}"
            )
        if self.queue_limit <= 0:
            raise ConfigurationError(
                f"queue_limit must be positive, got {self.queue_limit}"
            )
        if self.checkpoint_events is not None and self.checkpoint_events <= 0:
            raise ConfigurationError(
                f"checkpoint_events must be positive, got {self.checkpoint_events}"
            )
        if self.checkpoint_interval < 0:
            raise ConfigurationError(
                f"checkpoint_interval must be >= 0, got {self.checkpoint_interval}"
            )
        if self.checkpoint_retry_backoff <= 0:
            raise ConfigurationError(
                "checkpoint_retry_backoff must be positive, got "
                f"{self.checkpoint_retry_backoff}"
            )
        if self.checkpoint_retry_max < self.checkpoint_retry_backoff:
            raise ConfigurationError(
                "checkpoint_retry_max must be >= checkpoint_retry_backoff, "
                f"got {self.checkpoint_retry_max}"
            )
        if self.dedup_window <= 0:
            raise ConfigurationError(
                f"dedup_window must be positive, got {self.dedup_window}"
            )
        if self.watchdog_stall_seconds < 0:
            raise ConfigurationError(
                "watchdog_stall_seconds must be >= 0, got "
                f"{self.watchdog_stall_seconds}"
            )

    @property
    def root_path(self) -> Path | None:
        """``checkpoint_root`` as a :class:`~pathlib.Path` (or ``None``)."""
        if self.checkpoint_root is None:
            return None
        return Path(self.checkpoint_root)
