"""The finding model of the static analyzer.

A :class:`Finding` is one rule violation at one source location.  Findings
are plain data: checkers yield them, the framework filters suppressed ones,
and the CLI formats them.
"""

from __future__ import annotations

import dataclasses
from typing import Any

#: Finding severities, in decreasing order of urgency.  Severity is
#: informational — any unsuppressed finding fails the lint.
SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"
SEVERITIES = (SEVERITY_ERROR, SEVERITY_WARNING)


@dataclasses.dataclass(frozen=True, slots=True)
class Rule:
    """Metadata of one enforced invariant."""

    id: str
    severity: str
    summary: str
    #: Why the invariant matters for this codebase (shown by --list-rules).
    rationale: str

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"rule {self.id!r} severity must be one of {SEVERITIES}, "
                f"got {self.severity!r}"
            )


@dataclasses.dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one location."""

    rule: str
    severity: str
    #: Dotted module name (``repro.service.server``) — a stable coordinate
    #: that does not depend on the invocation directory.
    module: str
    #: Path as scanned (diagnostic; may be absolute or ``<memory>``).
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> tuple[Any, ...]:
        return (
            SEVERITIES.index(self.severity)
            if self.severity in SEVERITIES
            else len(SEVERITIES),
            self.module,
            self.line,
            self.col,
            self.rule,
        )

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    def format_text(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity}[{self.rule}] {self.message}"
        )
