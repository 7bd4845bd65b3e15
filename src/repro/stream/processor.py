"""Event-driven implementation of the continuous tensor model (Algorithm 1).

The processor replays a :class:`~repro.stream.stream.MultiAspectStream`
against a :class:`~repro.stream.window.TensorWindow`:

1. Records with timestamps up to the chosen ``start_time`` are aggregated
   directly into the initial window ``D(start_time, W)`` (and their remaining
   shift/expiry events are scheduled), so streaming algorithms can be
   initialised with a batch decomposition of a realistic window, exactly as
   in Section VI-A of the paper.
2. Records after ``start_time`` generate arrival events; every processed
   event schedules the record's next event ``T`` time units later, exactly as
   in Algorithm 1, so each record causes ``W + 1`` events in total.

One method, :meth:`ContinuousStreamProcessor._drain_group`, pops events off
the schedule in that order and builds their ``ΔX`` as a
:class:`~repro.stream.deltas.DeltaBatch`; both engines are views of it.
Nothing else builds batches, and their coordinates are in bounds by
construction (record indices checked against the mode sizes on the way in,
time indices in ``[0, W)``), so the window applies them unchecked.

* :meth:`ContinuousStreamProcessor.iter_batches` (and :meth:`run_batched`)
  drains every event inside a batch window — arrivals, shifts and expiries
  between consecutive update points — in one pull, and leaves applying the
  batch to the consumer: one ``apply_batch`` on the window (pure replay) or a
  model's ``update_batch``.
* :meth:`ContinuousStreamProcessor.events` (and :meth:`run`) drains batches
  of one and yields ``(event, delta)`` pairs *after* applying the delta to
  the window, so consumers always observe the up-to-date window ``X + ΔX``
  together with the change ``ΔX`` — the exact inputs of Problem 2.

Windows and models end up bit-identical on both engines (see
``tests/stream/test_batched_equivalence``, which checks both against the
reference loop in ``benchmarks/reference_drain.py``).
"""

from __future__ import annotations

import contextlib
import functools
import math
from collections.abc import Iterator, Sequence
from heapq import heappop, heappush
from typing import TYPE_CHECKING

from repro.exceptions import (
    ConcurrentIterationError,
    ConfigurationError,
    IndexOutOfBoundsError,
    ShapeError,
    StreamOrderError,
)
from repro.stream.deltas import Delta, DeltaBatch
from repro.stream.events import EventKind, StreamRecord, WindowEvent
from repro.stream.scheduler import EventScheduler
from repro.stream.stream import MultiAspectStream
from repro.stream.window import TensorWindow, WindowConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from pathlib import Path

    from repro.core.base import ContinuousCPD

#: Relative slack used when assigning a timestamp to a tensor unit, guarding
#: against floating-point error when ``t - t_n`` is an exact multiple of ``T``.
_UNIT_EPSILON = 1e-9


class ContinuousStreamProcessor:
    """Replays a multi-aspect stream through the continuous tensor model.

    Parameters
    ----------
    stream:
        The input multi-aspect data stream.
    config:
        Window configuration (categorical mode sizes, ``W``, ``T``).
    start_time:
        The time ``t_0`` at which streaming starts.  Records with
        ``t_n <= t_0`` form the initial window; later records are replayed as
        events.  Defaults to ``stream.start_time + W * T`` so the initial
        window is fully populated.
    """

    def __init__(
        self,
        stream: MultiAspectStream,
        config: WindowConfig,
        start_time: float | None = None,
    ) -> None:
        if len(stream) == 0:
            raise ConfigurationError("cannot process an empty stream")
        if stream.mode_sizes != config.mode_sizes:
            raise ConfigurationError(
                f"stream mode sizes {stream.mode_sizes} do not match window "
                f"config {config.mode_sizes}"
            )
        self._config = config
        if start_time is None:
            start_time = stream.start_time + config.span
        self._start_time = float(start_time)
        self._window = TensorWindow(config)
        self._scheduler = EventScheduler()
        self._n_events_emitted = 0
        self._future_records: list[StreamRecord] = []
        self._iterating = False
        # The stream is read once here and not kept: its records live on in
        # the window, the scheduler and the pending records.
        self._bootstrap(stream)
        # Latest record time this processor has seen; extend() may only feed
        # records at or after it (future records are newest-first).
        self._ingest_horizon = (
            self._future_records[0].time
            if self._future_records
            else self._start_time
        )

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @functools.cached_property
    def _kind_by_step(self) -> tuple[EventKind, ...]:
        """Step -> event kind, built once per processor."""
        window_length = self._config.window_length
        return tuple(
            WindowEvent.kind_for_step(step, window_length)
            for step in range(window_length + 1)
        )

    @property
    def window(self) -> TensorWindow:
        """The tensor window, kept up to date as events are emitted."""
        return self._window

    @property
    def config(self) -> WindowConfig:
        """Window configuration."""
        return self._config

    @property
    def start_time(self) -> float:
        """The streaming start time ``t_0``."""
        return self._start_time

    @property
    def n_events_emitted(self) -> int:
        """Number of events emitted so far.

        Counts exactly the events handed to consumers: everything drained by
        :meth:`iter_batches`, and every pair yielded by :meth:`events`.  This
        is the counter persisted by :meth:`save_checkpoint`.
        """
        return self._n_events_emitted

    @property
    def n_pending_records(self) -> int:
        """Number of stream records not yet arrived."""
        return len(self._future_records)

    @property
    def has_pending_events(self) -> bool:
        """True while any arrival, shift, or expiry is still due."""
        return bool(self._future_records) or len(self._scheduler) > 0

    @property
    def next_event_time(self) -> float | None:
        """Fire time of the next pending event, or ``None`` when drained.

        Pure peek — no state is touched, so it is safe between events /
        batches.  Callers use it to tell a replay that stopped because it
        reached ``end_time`` apart from one that stopped on ``max_events``
        mid-interval.
        """
        next_arrival = self._future_records[-1].time if self._future_records else None
        next_scheduled = self._scheduler.peek_time()
        if next_arrival is None:
            return next_scheduled
        if next_scheduled is None:
            return next_arrival
        return min(next_scheduled, next_arrival)

    @property
    def ingest_horizon(self) -> float:
        """Latest record time this processor has seen.

        :meth:`extend` only accepts records at or after this time, and a
        streaming service drains events up to it after every ingest (the
        "watermark" of the live ingestion path).
        """
        return self._ingest_horizon

    # ------------------------------------------------------------------
    # Live ingestion
    # ------------------------------------------------------------------
    def extend(self, records: "Sequence[StreamRecord]") -> int:
        """Feed new records into a live processor; return how many were added.

        The service ingestion path: a processor normally replays a stream
        fixed at construction time, but a long-running service keeps feeding
        it events as they arrive.  ``records`` must be chronologically
        ordered, start no earlier than :attr:`ingest_horizon` (ties with the
        newest known record are allowed), lie strictly after
        :attr:`start_time` (earlier records belong to the already-built
        initial window), and match the window's categorical modes.  The new
        arrivals become pending future records; nothing is applied until the
        next :meth:`events` / :meth:`iter_batches` drain.
        """
        if self._iterating:
            raise ConcurrentIterationError(
                "cannot extend the processor while an events()/iter_batches() "
                "iteration is active; exhaust or close the iterator first"
            )
        incoming = list(records)
        if not incoming:
            return 0
        n_categorical = len(self._config.mode_sizes)
        previous = self._ingest_horizon
        for record in incoming:
            if len(record.indices) != n_categorical:
                raise ShapeError(
                    f"record {record.indices} has {len(record.indices)} "
                    f"categorical indices; the window has {n_categorical}"
                )
            for mode, (index, size) in enumerate(
                zip(record.indices, self._config.mode_sizes)
            ):
                if not 0 <= index < size:
                    raise IndexOutOfBoundsError(
                        f"record index {index} exceeds size {size} of mode {mode}"
                    )
            if record.time <= self._start_time:
                raise StreamOrderError(
                    f"record at time {record.time} is not after the start "
                    f"time {self._start_time}; it belongs to the initial "
                    "window, which is already built"
                )
            if record.time < previous:
                raise StreamOrderError(
                    f"record at time {record.time} arrives before the "
                    f"processor's ingest horizon {previous}; feed records "
                    "chronologically"
                )
            previous = record.time
        # Pending records are kept newest-first (arrivals pop from the end),
        # so the new, newer block goes to the front in reversed order.
        self._future_records[:0] = reversed(incoming)
        self._ingest_horizon = incoming[-1].time
        return len(incoming)

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def save_checkpoint(
        self,
        path: "str | Path",
        model: "ContinuousCPD | None" = None,
        extra: object | None = None,
    ) -> "Path":
        """Snapshot the full run state to ``path`` (a checkpoint directory).

        Persists the window (COO arrays), the scheduler heap with its
        sequence counter, the pending future records, the event counter, and
        — when ``model`` is given — the model's :meth:`state_dict` including
        its RNG stream.  Call it only *between* events / batches (never from
        inside an ``events()`` / ``iter_batches()`` step); restoring then
        continues the run exactly.  See :mod:`repro.stream.checkpoint` for
        the format and guarantees.
        """
        from repro.stream.checkpoint import save_checkpoint

        return save_checkpoint(path, self, model=model, extra=extra)

    @classmethod
    def from_checkpoint(cls, path: "str | Path") -> "ContinuousStreamProcessor":
        """Rebuild a processor from a checkpoint directory.

        Restores only the stream-processor state; use
        :func:`repro.stream.checkpoint.restore_run` to also rebuild the model
        saved alongside it.
        """
        from repro.stream.checkpoint import load_checkpoint, restore_processor

        return restore_processor(load_checkpoint(path))

    @classmethod
    def _restore(
        cls,
        config: WindowConfig,
        start_time: float,
        window: TensorWindow,
        scheduler: EventScheduler,
        future_records: list[StreamRecord],
        n_events_emitted: int,
        ingest_horizon: float,
    ) -> "ContinuousStreamProcessor":
        """Assemble a processor from restored state (no bootstrap replay).

        ``future_records`` must be in the internal pop order (newest first;
        arrivals are consumed from the end of the list).  ``ingest_horizon``
        is the saved live-ingestion watermark.
        """
        processor = object.__new__(cls)
        processor._config = config
        processor._start_time = float(start_time)
        processor._window = window
        processor._scheduler = scheduler
        processor._n_events_emitted = int(n_events_emitted)
        processor._future_records = list(future_records)
        processor._iterating = False
        processor._ingest_horizon = float(ingest_horizon)
        return processor

    # ------------------------------------------------------------------
    # Bootstrap
    # ------------------------------------------------------------------
    def _unit_offset(self, record_time: float, now: float) -> int:
        """Number of full periods between ``record_time`` and ``now`` (0 = newest)."""
        elapsed = now - record_time
        return int(math.floor(elapsed / self._config.period + _UNIT_EPSILON))

    def _bootstrap(self, stream: MultiAspectStream) -> None:
        """Load the initial window and schedule its records' remaining events.

        The same window mutations and scheduler pushes, in the same order,
        as :meth:`TensorWindow.add_entry` plus :meth:`EventScheduler.schedule`
        per record, minus re-validating each coordinate and building a
        discarded :class:`WindowEvent`: every record's indices are ints
        checked against the mode sizes by :class:`MultiAspectStream`, whose
        sizes the constructor matched to the window's, and the unit lies in
        ``[0, W)`` because ``0 <= offset < W``.
        """
        window_length = self._config.window_length
        period = self._config.period
        add = self._window.tensor._add_trusted
        push = self._scheduler.push_raw
        kind_by_step = self._kind_by_step
        for record in stream:
            if record.time > self._start_time:
                self._future_records.append(record)
                continue
            offset = self._unit_offset(record.time, self._start_time)
            if offset >= window_length:
                continue  # already expired before streaming starts
            add((*record.indices, window_length - 1 - offset), record.value)
            next_step = offset + 1
            if next_step <= window_length:
                next_time = record.time + next_step * period
                push(next_time, kind_by_step[next_step], record, next_step)
        # Future records are consumed front-to-back as arrivals.
        self._future_records.reverse()  # pop() from the end is O(1)

    # ------------------------------------------------------------------
    # Event generation
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def _exclusive_drain(self) -> Iterator[None]:
        """Hold the processor's one drain for an events()/iter_batches() run."""
        if self._iterating:
            raise ConcurrentIterationError(
                "another events()/iter_batches() iteration is already active "
                "on this processor; a concurrent drain would corrupt the "
                "scheduler heap — exhaust or close the active iterator first"
            )
        self._iterating = True
        try:
            yield
        finally:
            self._iterating = False

    def _drain_group(
        self,
        end_time: float | None,
        budget: int | None,
        batch_window: float,
        whole: bool = False,
    ) -> DeltaBatch | None:
        """Pop the next group of events off the schedule as one batch.

        The group starts at the next due event and takes, in Algorithm 1's
        order, every event that fires within ``batch_window`` of it and not
        after ``end_time`` — at most ``budget`` of them (``None``: no cap).
        Each popped event schedules its record's next one as the group is
        drained, so chains within a group are respected.  Returns ``None``
        when no event is due by ``end_time``, and — with ``whole`` — when
        ``budget`` would cut the group short; the group is then put back and
        the schedule left as it was.
        """
        first_time = self.next_event_time
        if first_time is None or (end_time is not None and first_time > end_time):
            # Stop *before* touching any state (no sequence number taken),
            # so that resuming with a later end_time numbers simultaneous
            # events exactly as an uninterrupted run does.
            return None
        group_end = first_time + batch_window
        if end_time is not None and end_time < group_end:
            group_end = end_time
        window_length = self._config.window_length
        period = self._config.period
        records = self._future_records
        kind_by_step = self._kind_by_step
        arrival_kind = EventKind.ARRIVAL
        newest_unit = window_length - 1
        raw_events: list[tuple[float, int, EventKind, StreamRecord, int]] = []
        coordinates: list[tuple[int, ...]] = []
        values: list[float] = []
        append_event = raw_events.append
        append_coordinate = coordinates.append
        append_value = values.append
        # Inlined drain: operate on the raw heap and a local sequence
        # counter (handed back below) to avoid per-event method calls.
        heap, sequence = self._scheduler.begin_drain()
        heap_before = heap.copy() if whole else None
        while budget is None or len(raw_events) < budget:
            # Scheduled (shift/expiry) events win ties against new arrivals
            # so old mass has moved before a simultaneous new arrival is
            # applied.
            if heap and (not records or heap[0][0] <= records[-1].time):
                if heap[0][0] > group_end:
                    break
                entry = heappop(heap)
                record = entry[3]
                step = entry[4]
            elif records and records[-1].time <= group_end:
                record = records.pop()
                step = 0
                entry = (record.time, sequence, arrival_kind, record, 0)
                sequence += 1
            else:
                break
            # The ΔX of Definition 6 (time index W - 1 is the newest unit):
            # the value leaves unit W - w and enters unit W - w - 1.
            prefix = record.indices
            value = record.value
            if step:
                append_coordinate((*prefix, window_length - step))
                append_value(-value)
            if step < window_length:
                append_coordinate((*prefix, newest_unit - step))
                append_value(value)
            next_step = step + 1
            if next_step <= window_length:
                heappush(
                    heap,
                    (
                        record.time + next_step * period,
                        sequence,
                        kind_by_step[next_step],
                        record,
                        next_step,
                    ),
                )
                sequence += 1
            append_event(entry)
        if whole and len(raw_events) == budget and group_end >= min(
            heap[0][0] if heap else math.inf,
            records[-1].time if records else math.inf,
        ):
            # The budget cut the group short: put it back (the sequence
            # counter is not handed back, so it stays where it was).
            heap[:] = heap_before
            records.extend(reversed([entry[3] for entry in raw_events if not entry[4]]))
            return None
        self._scheduler.end_drain(sequence)
        self._n_events_emitted += len(raw_events)
        return DeltaBatch(raw_events, coordinates, values, window_length)

    def events(
        self,
        end_time: float | None = None,
        max_events: int | None = None,
    ) -> Iterator[tuple[WindowEvent, Delta]]:
        """Yield ``(event, delta)`` pairs in chronological order.

        Each pair is a batch of one from the drain behind
        :meth:`iter_batches`, and its delta is applied to :attr:`window`
        *before* the pair is yielded.  (A batch of one rather than a
        zero-width batch window: simultaneous events stay scheduled until
        asked for, so closing the iterator mid-tie loses none of them.)

        Parameters
        ----------
        end_time:
            Stop once the next event would fire after this time.
        max_events:
            Stop after this many events.
        """
        _check_end_time(end_time)
        with self._exclusive_drain():
            apply = self._window.apply_entry_changes
            emitted = 0
            while max_events is None or emitted < max_events:
                batch = self._drain_group(end_time, 1, 0.0)
                if batch is None:
                    return
                event = batch.events[0]
                entries = tuple(zip(batch.coordinates, batch.raw_values))
                apply(entries)
                emitted += 1
                yield event, Delta(entries, event.record, event.step, event.kind)

    def run(
        self, end_time: float | None = None, max_events: int | None = None
    ) -> int:
        """Apply events without yielding them; return the number applied."""
        count = 0
        for _ in self.events(end_time=end_time, max_events=max_events):
            count += 1
        return count

    # ------------------------------------------------------------------
    # Batched event engine
    # ------------------------------------------------------------------
    def iter_batches(
        self,
        end_time: float | None = None,
        max_events: int | None = None,
        batch_window: float | None = None,
        whole_batches: bool = False,
    ) -> Iterator[DeltaBatch]:
        """Drain events in groups and yield one :class:`DeltaBatch` per group.

        Each batch contains every event (arrival, shift, expiry) whose fire
        time falls within ``batch_window`` of the group's first event, in the
        exact order — including tie-breaking — of :meth:`events`, with
        successor events scheduled as the group is drained so that chains
        within a group are respected.  Unlike :meth:`events`, the deltas are
        **not** applied to the window here: the consumer decides whether to
        scatter the whole batch at once (:meth:`TensorWindow.apply_batch`,
        pure replay) or interleave window updates with factor updates
        (:meth:`repro.core.base.ContinuousCPD.update_batch`).  Every yielded
        batch must therefore be applied exactly once; :meth:`run_batched`
        does this for you.

        Parameters
        ----------
        end_time:
            Stop before the first event that would fire after this time.
        max_events:
            Stop after this many events (a batch may be cut short to honour
            the cap).
        batch_window:
            Length of the grouping window, in stream time units.  Defaults to
            the tensor-unit period ``T``.  ``0.0`` groups only simultaneous
            events.
        whole_batches:
            Stop before the batch that ``max_events`` would cut short and
            leave it scheduled, so the processor rests at a batch end.
        """
        if batch_window is None:
            batch_window = self._config.period
        batch_window = float(batch_window)
        # Negated so that NaN, which compares false, is refused too.
        if not batch_window >= 0.0:
            raise ConfigurationError(
                f"batch_window must be >= 0, got {batch_window}"
            )
        _check_end_time(end_time)
        with self._exclusive_drain():
            emitted = 0
            while max_events is None or emitted < max_events:
                budget = None if max_events is None else max_events - emitted
                batch = self._drain_group(end_time, budget, batch_window, whole_batches)
                if batch is None:
                    return
                emitted += batch.n_events
                yield batch

    def run_batched(
        self,
        model: "ContinuousCPD | None" = None,
        end_time: float | None = None,
        max_events: int | None = None,
        batch_window: float | None = None,
    ) -> int:
        """Replay events batch by batch; return the number of events applied.

        Without a ``model`` each batch is applied to the window in one call,
        producing a window bit-identical to :meth:`run`, down to the storage
        order of its entries.
        With a ``model`` (a :class:`~repro.core.base.ContinuousCPD` that was
        initialised on :attr:`window`), each batch is handed to the model's
        ``update_batch``, which applies the window changes itself so that its
        factor updates observe exactly the per-event window states.
        """
        count = 0
        for batch in self.iter_batches(
            end_time=end_time, max_events=max_events, batch_window=batch_window
        ):
            if model is None:
                self._window.apply_batch(batch)
            else:
                model.update_batch(batch)
            count += batch.n_events
        return count


def _check_end_time(end_time: float | None) -> None:
    """Refuse a NaN drain limit: it compares false, so it would mean no limit."""
    if end_time is not None and math.isnan(end_time):
        raise ConfigurationError("end_time must not be NaN")

