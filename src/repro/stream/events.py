"""Stream records and the events they induce in the continuous tensor model.

Each timestamped tuple ``(e_n = (i_1, ..., i_{M-1}, v_n), t_n)`` of a
multi-aspect data stream (Definition 1) causes ``W + 1`` events in the
continuous tensor model (Section IV-B):

* S.1 — at ``t = t_n`` the value enters the newest tensor unit,
* S.2 — at ``t = t_n + w T`` (``w = 1 .. W-1``) the value moves one unit older,
* S.3 — at ``t = t_n + W T`` the value leaves the window.

:class:`WindowEvent` captures one such event; the corresponding entry-level
change ``ΔX`` is derived by :class:`repro.stream.deltas.Delta`.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.exceptions import ShapeError
from repro.validation import check_fields


@dataclasses.dataclass(frozen=True, slots=True)
class StreamRecord:
    """One timestamped tuple of a multi-aspect data stream (Definition 1).

    Attributes
    ----------
    indices:
        The ``M - 1`` categorical indices ``(i_1, ..., i_{M-1})``.
    value:
        The numerical value ``v_n``.
    time:
        The timestamp ``t_n`` (any monotone real clock, e.g. Unix seconds).
    """

    indices: tuple[int, ...]
    value: float
    time: float

    def __post_init__(self) -> None:
        # A float index is refused, not truncated.  A NaN time would drain
        # the whole schedule at once, an infinite one freeze the clock, and
        # a NaN value poison the fit; NaN and Infinity parse from JSON.
        check_fields(self)
        if len(self.indices) == 0:
            raise ShapeError("a stream record needs at least one categorical index")
        if min(self.indices) < 0:
            raise ShapeError(f"negative categorical index in {self.indices}")


class EventKind(enum.Enum):
    """Kind of window event caused by a stream record."""

    ARRIVAL = "arrival"  # S.1: value enters the newest unit
    SHIFT = "shift"      # S.2: value moves one unit older
    EXPIRY = "expiry"    # S.3: value leaves the window


@dataclasses.dataclass(frozen=True, slots=True, order=True)
class WindowEvent:
    """One of the ``W + 1`` events induced by a stream record.

    Events are totally ordered by ``(time, sequence)`` so that the scheduler
    processes simultaneous events deterministically in creation order.

    Attributes
    ----------
    time:
        The wall-clock time at which the event fires.
    sequence:
        Tie-breaking sequence number assigned by the scheduler.
    kind:
        Arrival, shift, or expiry.
    record:
        The stream record that caused the event.
    step:
        The ``w`` of Section IV-B: 0 for arrival, ``1 .. W-1`` for shifts,
        ``W`` for expiry.
    """

    time: float
    sequence: int
    kind: EventKind = dataclasses.field(compare=False)
    record: StreamRecord = dataclasses.field(compare=False)
    step: int = dataclasses.field(compare=False)

    @staticmethod
    def kind_for_step(step: int, window_length: int) -> EventKind:
        """Map the step ``w`` to its event kind for a window of ``W`` units."""
        if step == 0:
            return EventKind.ARRIVAL
        if step == window_length:
            return EventKind.EXPIRY
        if 0 < step < window_length:
            return EventKind.SHIFT
        raise ShapeError(
            f"step {step} is outside the valid range 0..{window_length}"
        )
