"""Deterministic event scheduler for the continuous tensor model.

A small wrapper around :mod:`heapq` that assigns every pushed event a
monotonically increasing sequence number, so events firing at the same time
are delivered in the order they were scheduled.  This mirrors the
"schedule the (w+1)-th update" bookkeeping of Algorithm 1.

Internally the heap stores plain ``(time, sequence, kind, record, step)``
tuples instead of :class:`~repro.stream.events.WindowEvent` objects: tuple
comparison short-circuits on ``(time, sequence)`` at C speed, which makes
heap maintenance several times cheaper than comparing dataclasses.  The
processor's one drain (:meth:`ContinuousStreamProcessor._drain_group`, behind
both ``events()`` and ``iter_batches()``) works on these raw entries directly
via :meth:`begin_drain`/:meth:`end_drain`; :meth:`schedule` and :meth:`pop`
materialise a :class:`WindowEvent` per entry.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable

from repro.stream.events import EventKind, StreamRecord, WindowEvent

#: Raw heap entry layout: ``(time, sequence, kind, record, step)``.  The
#: sequence number is unique, so comparisons never reach the ``kind`` field
#: (which is not orderable).
RawEvent = tuple[float, int, EventKind, StreamRecord, int]


class EventScheduler:
    """Priority queue of :class:`~repro.stream.events.WindowEvent` objects."""

    def __init__(self) -> None:
        self._heap: list[RawEvent] = []
        self._sequence = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push_raw(
        self, time: float, kind: EventKind, record: StreamRecord, step: int
    ) -> RawEvent:
        """Enqueue a raw heap entry (no :class:`WindowEvent` materialised)."""
        entry: RawEvent = (float(time), self._sequence, kind, record, int(step))
        self._sequence += 1
        heapq.heappush(self._heap, entry)
        return entry

    def schedule(
        self, time: float, kind: EventKind, record: StreamRecord, step: int
    ) -> WindowEvent:
        """Create, enqueue, and return a new event."""
        entry = self.push_raw(time, kind, record, step)
        return WindowEvent(
            time=entry[0], sequence=entry[1], kind=kind, record=record, step=entry[4]
        )

    def begin_drain(self) -> tuple[list[RawEvent], int]:
        """Hand the raw heap and sequence counter to an inlined drain loop.

        The processor's drain pops and pushes thousands of entries per
        batch; going through :meth:`pop`/:meth:`push_raw` costs a Python
        method call per entry.  ``begin_drain`` returns ``(heap, sequence)``
        so the drain can use :func:`heapq.heappush`/:func:`heapq.heappop`
        directly and allocate sequence numbers from a local counter; the
        caller must hand the counter back via :meth:`end_drain` before any
        other scheduler method is used.
        """
        return self._heap, self._sequence

    def end_drain(self, sequence: int) -> None:
        """Restore the sequence counter after an inlined drain loop."""
        if sequence < self._sequence:
            raise ValueError(
                f"sequence counter may only advance ({sequence} < {self._sequence})"
            )
        self._sequence = sequence

    def snapshot(self) -> tuple[tuple[RawEvent, ...], int]:
        """Return ``(heap entries, sequence counter)`` for checkpointing.

        The entries are returned in raw heap-array order (NOT sorted): the
        list *is* a valid binary heap, so restoring it verbatim via
        :meth:`from_snapshot` reproduces the exact pop order — including
        tie-breaking — of the original scheduler.
        """
        return tuple(self._heap), self._sequence

    @classmethod
    def from_snapshot(
        cls, entries: Iterable[RawEvent], sequence: int
    ) -> "EventScheduler":
        """Rebuild a scheduler from :meth:`snapshot` output.

        ``entries`` must be in the heap-array order produced by
        :meth:`snapshot`; they are adopted verbatim (no re-heapify), which is
        what makes the restored pop order bit-identical.
        """
        scheduler = cls()
        scheduler._heap = list(entries)
        scheduler._sequence = int(sequence)
        return scheduler

    def peek_time(self) -> float | None:
        """Time of the earliest pending event, or None if empty."""
        return self._heap[0][0] if self._heap else None

    def pop(self) -> WindowEvent:
        """Remove and return the earliest pending event."""
        time, sequence, kind, record, step = heapq.heappop(self._heap)
        return WindowEvent(
            time=time, sequence=sequence, kind=kind, record=record, step=step
        )
