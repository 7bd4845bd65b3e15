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
import math
import numbers
from collections.abc import Mapping
from pathlib import Path
from typing import Any

from repro.core.base import migrate_relaxed
from repro.core.registry import ALGORITHMS
from repro.exceptions import ConfigurationError


#: StreamConfig fields that must be integers (``bool`` excluded).
_INTEGER_FIELDS = (
    "window_length",
    "rank",
    "theta",
    "seed",
    "als_iterations",
    "detector_warmup",
)
#: StreamConfig fields that must be finite numbers (``batch_window`` may be None).
_FINITE_FIELDS = ("period", "eta", "regularization", "batch_window")


def _is_integer(value: Any) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite(value: Any) -> bool:
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


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

    Every field is type-checked, because wire requests are JSON: the flags
    must be booleans, the counts and the seed integers (not ``bool``), and
    ``period``, ``eta``, ``regularization`` and ``batch_window`` finite
    numbers.  Anything else raises :class:`ConfigurationError` here rather
    than a ``TypeError`` later, or worse, a silently different stream.
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
        if not isinstance(self.mode_sizes, (list, tuple)) or not all(
            _is_integer(n) for n in self.mode_sizes
        ):
            raise ConfigurationError(
                f"mode_sizes must be a list of integers, got {self.mode_sizes!r}"
            )
        object.__setattr__(self, "mode_sizes", tuple(int(n) for n in self.mode_sizes))
        for name in ("nonnegative", "relaxed"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigurationError(
                    f"{name} must be true or false, got {getattr(self, name)!r}"
                )
        for name in _INTEGER_FIELDS:
            if not _is_integer(getattr(self, name)):
                raise ConfigurationError(
                    f"{name} must be an integer, got {getattr(self, name)!r}"
                )
        for name in _FINITE_FIELDS:
            value = getattr(self, name)
            if not _is_finite(value) and not (name == "batch_window" and value is None):
                raise ConfigurationError(
                    f"{name} must be a finite number, got {value!r}"
                )
        if not self.mode_sizes or any(n <= 0 for n in self.mode_sizes):
            raise ConfigurationError(
                f"mode_sizes must be positive, got {self.mode_sizes}"
            )
        if self.window_length <= 0:
            raise ConfigurationError(
                f"window_length must be positive, got {self.window_length}"
            )
        if self.period <= 0:
            raise ConfigurationError(f"period must be positive, got {self.period}")
        if self.rank <= 0:
            raise ConfigurationError(f"rank must be positive, got {self.rank}")
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

    def to_dict(self) -> dict[str, Any]:
        """Plain JSON-serialisable representation."""
        payload = dataclasses.asdict(self)
        payload["mode_sizes"] = list(self.mode_sizes)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "StreamConfig":
        """Rebuild from :meth:`to_dict` output (or a wire request).

        Unknown keys raise :class:`ConfigurationError` rather than being
        silently dropped — a typoed hyper-parameter must not produce a
        stream with defaults the caller never asked for.  Four keys of
        older configs are the exceptions: ``sampling``, which configs written
        while there were two slice samplers carry (``"vectorized"`` is the
        sampler that remains and is dropped, any other value raises);
        ``backend``, which configs written while streams chose a kernel
        backend carry (any string is dropped, because one set of kernels
        remains, and anything else raises); and ``shards`` and
        ``staleness``, rewritten to ``relaxed`` by
        :func:`~repro.core.base.migrate_relaxed`.
        """
        payload = dict(payload)
        sampling = payload.pop("sampling", "vectorized")
        if sampling != "vectorized":
            raise ConfigurationError(
                f"stream config has sampling={sampling!r}; only the "
                "'vectorized' slice sampler exists"
            )
        backend = payload.pop("backend", "auto")
        if not isinstance(backend, str):
            raise ConfigurationError(
                f"backend must be a backend name, got {backend!r}"
            )
        migrate_relaxed(payload)
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown stream config keys {unknown}; known keys: "
                f"{sorted(known)}"
            )
        try:
            return cls(**payload)
        except TypeError as error:
            raise ConfigurationError(
                f"invalid stream config: {error}"
            ) from error


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
    fault_plan: Any = None

    def __post_init__(self) -> None:
        if self.fault_plan is not None:
            from repro.service.faults import FaultPlan

            if isinstance(self.fault_plan, Mapping):
                object.__setattr__(
                    self, "fault_plan", FaultPlan.from_dict(self.fault_plan)
                )
            elif not isinstance(self.fault_plan, FaultPlan):
                raise ConfigurationError(
                    "fault_plan must be a FaultPlan or its dict form, got "
                    f"{type(self.fault_plan).__name__}"
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
