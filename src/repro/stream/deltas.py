"""Input changes ``ΔX`` caused by window events (Definition 6).

Every event touches at most two entries of the tensor window: an arrival adds
the value to the newest unit, a shift moves it one unit older (a subtraction
and an addition), and an expiry subtracts it from the oldest unit.  The
:class:`Delta` object records those entry changes explicitly so that the
online update rules can iterate over them without re-deriving the event
semantics.

:class:`DeltaBatch` is the batched counterpart: the coalesced ``ΔX`` of a
whole *group* of chronologically consecutive events, as the event engine
builds it (:meth:`ContinuousStreamProcessor._drain_group
<repro.stream.processor.ContinuousStreamProcessor._drain_group>`).  It holds
every entry change in event order, and :meth:`DeltaBatch.entry_groups` slices
them per event, so batched processing keeps exact per-event semantics
without building per-event :class:`Delta` objects.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator

from repro.exceptions import ShapeError
from repro.stream.events import EventKind, StreamRecord, WindowEvent

Coordinate = tuple[int, ...]


@dataclasses.dataclass(frozen=True, slots=True)
class Delta:
    """The sparse change ``ΔX`` in the tensor window caused by one event.

    Attributes
    ----------
    entries:
        Tuple of ``(coordinate, value)`` pairs; at most two.  Coordinates are
        full ``M``-dimensional window coordinates (categorical indices followed
        by the time-mode index, 0-based with ``W - 1`` the newest unit).
    record:
        The stream record that caused the event.
    step:
        The ``w`` of Section IV-B (0 arrival, ``1..W-1`` shift, ``W`` expiry).
    kind:
        The event kind, kept for convenience.
    """

    entries: tuple[tuple[Coordinate, float], ...]
    record: StreamRecord
    step: int
    kind: EventKind

    @property
    def categorical_indices(self) -> tuple[int, ...]:
        """The ``(i_1, ..., i_{M-1})`` indices of the affected entries."""
        return self.record.indices

    @property
    def time_indices(self) -> tuple[int, ...]:
        """Time-mode indices touched by this delta (one or two)."""
        return tuple(coordinate[-1] for coordinate, _ in self.entries)

    @property
    def nnz(self) -> int:
        """Number of changed entries (1 or 2)."""
        return len(self.entries)

    def value_at(self, coordinate: Coordinate) -> float:
        """Return the delta value at ``coordinate`` (0.0 if untouched)."""
        for entry_coordinate, value in self.entries:
            if entry_coordinate == coordinate:
                return value
        return 0.0

    @staticmethod
    def from_event(event: WindowEvent, window_length: int) -> "Delta":
        """Build the ``ΔX`` of Definition 6 for ``event`` in a window of ``W`` units.

        Using 0-based time indices with ``W - 1`` the newest unit:

        * arrival (``w = 0``): ``+v`` at index ``W - 1``,
        * shift (``0 < w < W``): ``-v`` at index ``W - w`` and ``+v`` at
          ``W - w - 1``,
        * expiry (``w = W``): ``-v`` at index ``0``.
        """
        window_length = int(window_length)
        if window_length <= 0:
            raise ShapeError(f"window length must be positive, got {window_length}")
        record = event.record
        step = int(event.step)
        value = record.value
        prefix = record.indices
        if step == 0:
            entries = (((*prefix, window_length - 1), value),)
        elif step == window_length:
            entries = (((*prefix, 0), -value),)
        elif 0 < step < window_length:
            entries = (
                ((*prefix, window_length - step), -value),
                ((*prefix, window_length - step - 1), value),
            )
        else:
            raise ShapeError(
                f"event step {step} is outside the valid range 0..{window_length}"
            )
        return Delta(entries=entries, record=record, step=step, kind=event.kind)


class DeltaBatch:
    """The coalesced ``ΔX`` of a group of consecutive window events.

    Built only by the event engine (:meth:`ContinuousStreamProcessor._drain_group
    <repro.stream.processor.ContinuousStreamProcessor._drain_group>`), from the
    raw scheduler entries of one batch window, so its coordinates are in
    bounds by construction and consumers apply them unchecked.  The batch
    stores the entry-level changes of all its events *in event order* —
    event order is what makes window application bit-identical to the
    per-event path — plus the event metadata :meth:`entry_groups` and
    :attr:`events` need.

    Parameters
    ----------
    raw_events:
        ``(time, sequence, kind, record, step)`` tuples, chronological.
    coordinates:
        Full window coordinates of every entry change, in event order.
        An arrival or expiry contributes one entry, a shift two, so
        ``len(coordinates) >= len(raw_events)``.
    values:
        The signed change at each coordinate, aligned with ``coordinates``.
    window_length:
        The window length ``W`` (tells a shift's two entries from one).
    """

    __slots__ = ("_raw_events", "_coordinates", "_values", "_window_length", "_events")

    def __init__(
        self,
        raw_events: list[tuple[float, int, EventKind, StreamRecord, int]],
        coordinates: list[Coordinate],
        values: list[float],
        window_length: int,
    ) -> None:
        self._raw_events = raw_events
        self._coordinates = coordinates
        self._values = values
        self._window_length = window_length
        self._events: tuple[WindowEvent, ...] | None = None

    # ------------------------------------------------------------------
    # Sizes and time span
    # ------------------------------------------------------------------
    @property
    def n_events(self) -> int:
        """Number of events coalesced into this batch."""
        return len(self._raw_events)

    @property
    def nnz(self) -> int:
        """Number of entry changes carried by this batch."""
        return len(self._coordinates)

    def __len__(self) -> int:
        return self.n_events

    @property
    def start_time(self) -> float:
        """Fire time of the first event in the batch."""
        return self._raw_events[0][0]

    @property
    def end_time(self) -> float:
        """Fire time of the last event in the batch."""
        return self._raw_events[-1][0]

    @property
    def window_length(self) -> int:
        """Window length ``W`` the batch was generated for."""
        return self._window_length

    # ------------------------------------------------------------------
    # Entry changes
    # ------------------------------------------------------------------
    @property
    def coordinates(self) -> list[Coordinate]:
        """Full window coordinates of every entry change, in event order."""
        return self._coordinates

    @property
    def raw_values(self) -> list[float]:
        """Entry-change values aligned with :attr:`coordinates`."""
        return self._values

    def entry_groups(
        self,
    ) -> Iterator[tuple[StreamRecord, int, tuple[tuple[Coordinate, float], ...]]]:
        """Yield ``(record, step, entries)`` per event, in event order.

        The flat per-event view of the batch: ``entries`` is exactly what the
        event's :class:`Delta` (:meth:`Delta.from_event`) carries, sliced out
        of the batch's entry lists.
        :meth:`repro.core.base.ContinuousCPD.update_batch` iterates this to
        keep exact per-event semantics at batch speed.
        """
        coordinates = self._coordinates
        values = self._values
        window_length = self._window_length
        position = 0
        for _time, _sequence, _kind, record, step in self._raw_events:
            if 0 < step < window_length:
                entries = (
                    (coordinates[position], values[position]),
                    (coordinates[position + 1], values[position + 1]),
                )
                position += 2
            else:
                entries = ((coordinates[position], values[position]),)
                position += 1
            yield record, step, entries

    @property
    def events(self) -> tuple[WindowEvent, ...]:
        """The batch's events, materialised lazily in chronological order."""
        if self._events is None:
            self._events = tuple(
                WindowEvent(
                    time=time, sequence=sequence, kind=kind, record=record, step=step
                )
                for time, sequence, kind, record, step in self._raw_events
            )
        return self._events

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeltaBatch(n_events={self.n_events}, nnz={self.nnz})"
