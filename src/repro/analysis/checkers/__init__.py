"""The project-specific checkers enforced by ``repro lint``."""

from __future__ import annotations

from repro.analysis.checkers.async_safety import AsyncSafetyChecker
from repro.analysis.checkers.determinism import DeterminismChecker
from repro.analysis.checkers.exception_discipline import (
    ExceptionDisciplineChecker,
)
from repro.analysis.checkers.lock_discipline import LockDisciplineChecker

#: The standing lint gate, in report order.
ALL_CHECKERS = (
    DeterminismChecker(),
    AsyncSafetyChecker(),
    LockDisciplineChecker(),
    ExceptionDisciplineChecker(),
)

__all__ = [
    "ALL_CHECKERS",
    "AsyncSafetyChecker",
    "DeterminismChecker",
    "ExceptionDisciplineChecker",
    "LockDisciplineChecker",
]
