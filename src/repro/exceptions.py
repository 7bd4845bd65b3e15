"""Exception hierarchy for the :mod:`repro` package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can distinguish library errors from bugs or
numpy-level failures with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class ShapeError(ReproError, ValueError):
    """A tensor, matrix, or coordinate has an incompatible shape."""


class IndexOutOfBoundsError(ReproError, IndexError):
    """A coordinate lies outside the declared tensor shape."""


class RankError(ReproError, ValueError):
    """A decomposition rank is invalid (non-positive or inconsistent)."""


class StreamOrderError(ReproError, ValueError):
    """A multi-aspect data stream violates chronological ordering."""


class ConfigurationError(ReproError, ValueError):
    """An algorithm or experiment was configured with invalid parameters."""


class NotFittedError(ReproError, RuntimeError):
    """A model method requiring fitted factors was called before ``fit``."""


class UnknownAlgorithmError(ReproError, KeyError):
    """A registry lookup referenced an algorithm name that is not registered."""


class DataGenerationError(ReproError, ValueError):
    """A synthetic data generator was asked for an impossible configuration."""


class TimerError(ReproError, RuntimeError):
    """A timing helper was driven through an invalid start/stop sequence."""


class WorkerError(ReproError, RuntimeError):
    """A parallel experiment worker process died before its tasks finished.

    The message names the unfinished tasks and the checkpoint directory a
    ``resume`` rerun continues them from.
    """


class CheckpointError(ConfigurationError):
    """A checkpoint / snapshot directory is missing pieces, truncated, or corrupt.

    Subclasses :class:`ConfigurationError` so existing ``except
    ConfigurationError`` handlers around the load paths keep working; the
    narrower type lets a service's background checkpoint reader distinguish
    "this directory is damaged" (skip / rewrite it) from "you called the API
    wrong".
    """


class ConcurrentIterationError(ReproError, RuntimeError):
    """A second ``events()`` / ``iter_batches()`` iteration was started while
    one is already active on the same processor.

    Concurrent iteration would interleave two drains of the same scheduler
    heap and corrupt its state; callers must exhaust (or close) the active
    iterator first.
    """


class ServiceError(ReproError, RuntimeError):
    """A streaming-service request could not be honoured.

    Carries a machine-readable ``code`` (e.g. ``"unknown_stream"``,
    ``"overloaded"``, ``"stream_cap"``, ``"conflict"``) so the wire protocol
    can map errors onto structured responses.  The ``"connection"`` code is
    special: it is raised by the *client* for transport failures (reset,
    timeout, truncated response) that never produced a server response, so
    callers can branch on transport-vs-server faults.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = str(code)


class InjectedFaultError(ReproError, RuntimeError):
    """An error deliberately raised by the fault-injection harness.

    Raised at ``exception``-kind fault points of a
    :class:`~repro.service.faults.FaultPlan`, so chaos tests can tell an
    injected failure apart from a genuine bug with one ``except`` clause.
    """
