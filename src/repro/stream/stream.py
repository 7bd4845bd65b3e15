"""Multi-aspect data streams (Definition 1 of the paper).

A :class:`MultiAspectStream` is a chronological sequence of
:class:`~repro.stream.events.StreamRecord` objects together with the lengths
of the categorical modes.  It can be built from in-memory records, from
columnar arrays, or from a CSV file of ``i_1, ..., i_{M-1}, value, time``
rows.
"""

from __future__ import annotations

import csv
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path

import numpy as np

from repro.exceptions import IndexOutOfBoundsError, ShapeError, StreamOrderError
from repro.stream.events import StreamRecord
from repro.validation import matches


class MultiAspectStream:
    """A chronological sequence of timestamped multi-aspect tuples.

    Parameters
    ----------
    records:
        Stream records.  They must be sorted by time (ties allowed); pass
        ``sort=True`` to sort a non-chronological input.
    mode_sizes:
        Lengths ``(N_1, ..., N_{M-1})`` of the categorical modes.  When
        omitted they are inferred as ``max index + 1`` per mode.
    mode_names:
        Optional human-readable mode names (e.g. ``("source", "destination")``).
    sort:
        Sort the records by time instead of raising on out-of-order input.
    """

    def __init__(
        self,
        records: Iterable[StreamRecord],
        mode_sizes: Sequence[int] | None = None,
        mode_names: Sequence[str] | None = None,
        sort: bool = False,
    ) -> None:
        records = list(records)
        if sort:
            records.sort(key=lambda record: record.time)
        self._records: list[StreamRecord] = records
        self._validate_order()
        self._n_categorical = self._infer_n_categorical()
        self._mode_sizes = self._resolve_mode_sizes(mode_sizes)
        self._mode_names = self._resolve_mode_names(mode_names)
        self._validate_indices()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        indices: np.ndarray,
        values: np.ndarray,
        times: np.ndarray,
        mode_sizes: Sequence[int] | None = None,
        mode_names: Sequence[str] | None = None,
        sort: bool = False,
    ) -> "MultiAspectStream":
        """Build a stream from an ``(n, M-1)`` index array plus value/time arrays.

        Entries keep their types: a float index array is refused, not truncated.
        """
        indices = np.asarray(indices)
        values = np.asarray(values)
        times = np.asarray(times)
        if indices.ndim != 2:
            raise ShapeError("indices must be a 2-D array of shape (n, M-1)")
        if not (indices.shape[0] == values.shape[0] == times.shape[0]):
            raise ShapeError("indices, values, and times must have equal lengths")
        records = [
            StreamRecord(tuple(row), value, time)
            for row, value, time in zip(
                indices.tolist(), values.tolist(), times.tolist()
            )
        ]
        return cls(records, mode_sizes=mode_sizes, mode_names=mode_names, sort=sort)

    @classmethod
    def from_csv(
        cls,
        path: str | Path,
        mode_sizes: Sequence[int] | None = None,
        mode_names: Sequence[str] | None = None,
        has_header: bool = True,
        sort: bool = True,
    ) -> "MultiAspectStream":
        """Load a stream from a CSV of ``i_1, ..., i_{M-1}, value, time`` rows."""
        records: list[StreamRecord] = []
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            rows = iter(reader)
            if has_header:
                next(rows, None)
            for row in rows:
                if not row:
                    continue
                *index_columns, value, time = row
                records.append(
                    StreamRecord(
                        tuple(int(column) for column in index_columns),
                        float(value),
                        float(time),
                    )
                )
        return cls(records, mode_sizes=mode_sizes, mode_names=mode_names, sort=sort)

    def to_csv(self, path: str | Path, mode_header: bool = True) -> None:
        """Write the stream to CSV (inverse of :meth:`from_csv`)."""
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            if mode_header:
                writer.writerow([*self._mode_names, "value", "time"])
            for record in self._records:
                writer.writerow([*record.indices, record.value, record.time])

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate_order(self) -> None:
        for previous, current in zip(self._records, self._records[1:]):
            if current.time < previous.time:
                raise StreamOrderError(
                    "stream records must be chronological; pass sort=True to sort"
                )

    def _infer_n_categorical(self) -> int:
        if not self._records:
            return 0
        first = len(self._records[0].indices)
        for record in self._records:
            if len(record.indices) != first:
                raise ShapeError(
                    "all stream records must have the same number of categorical indices"
                )
        return first

    def _resolve_mode_sizes(self, mode_sizes: Sequence[int] | None) -> tuple[int, ...]:
        if mode_sizes is not None:
            sizes = tuple(mode_sizes)
            if self._records and len(sizes) != self._n_categorical:
                raise ShapeError(
                    f"mode_sizes has {len(sizes)} entries but records have "
                    f"{self._n_categorical} categorical indices"
                )
            if not all(matches(n, int) and n > 0 for n in sizes):
                raise ShapeError(f"mode sizes must be positive integers, got {sizes}")
            return tuple(map(int, sizes))
        if not self._records:
            return ()
        maxima = [0] * self._n_categorical
        for record in self._records:
            for mode, index in enumerate(record.indices):
                maxima[mode] = max(maxima[mode], index)
        return tuple(maximum + 1 for maximum in maxima)

    def _resolve_mode_names(self, mode_names: Sequence[str] | None) -> tuple[str, ...]:
        if mode_names is None:
            return tuple(f"mode_{m}" for m in range(len(self._mode_sizes)))
        names = tuple(str(name) for name in mode_names)
        if len(names) != len(self._mode_sizes):
            raise ShapeError(
                f"{len(names)} mode names for {len(self._mode_sizes)} categorical modes"
            )
        return names

    def _validate_indices(self) -> None:
        for record in self._records:
            for mode, (index, size) in enumerate(zip(record.indices, self._mode_sizes)):
                if index >= size:
                    raise IndexOutOfBoundsError(
                        f"record index {index} exceeds size {size} of mode {mode}"
                    )

    # ------------------------------------------------------------------
    # Properties and access
    # ------------------------------------------------------------------
    @property
    def records(self) -> list[StreamRecord]:
        """The underlying chronological list of records."""
        return self._records

    @property
    def mode_sizes(self) -> tuple[int, ...]:
        """Lengths of the categorical modes ``(N_1, ..., N_{M-1})``."""
        return self._mode_sizes

    @property
    def mode_names(self) -> tuple[str, ...]:
        """Human-readable categorical mode names."""
        return self._mode_names

    @property
    def order(self) -> int:
        """Tensor order ``M`` = categorical modes + the time mode."""
        return len(self._mode_sizes) + 1

    @property
    def start_time(self) -> float:
        """Timestamp of the first record."""
        if not self._records:
            raise StreamOrderError("the stream is empty")
        return self._records[0].time

    @property
    def end_time(self) -> float:
        """Timestamp of the last record."""
        if not self._records:
            raise StreamOrderError("the stream is empty")
        return self._records[-1].time

    @property
    def duration(self) -> float:
        """Time span covered by the stream."""
        return self.end_time - self.start_time

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[StreamRecord]:
        return iter(self._records)

    def __getitem__(self, position: int) -> StreamRecord:
        return self._records[position]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MultiAspectStream(n_records={len(self)}, mode_sizes={self._mode_sizes})"
        )

    # ------------------------------------------------------------------
    # Slicing
    # ------------------------------------------------------------------
    def between(self, start: float, end: float) -> "MultiAspectStream":
        """Return the sub-stream with timestamps in the half-open interval ``(start, end]``."""
        selected = [r for r in self._records if start < r.time <= end]
        return MultiAspectStream(
            selected, mode_sizes=self._mode_sizes, mode_names=self._mode_names
        )

    def head(self, n_records: int) -> "MultiAspectStream":
        """Return the first ``n_records`` records as a new stream."""
        if not matches(n_records, int):
            raise ShapeError(f"n_records must be an integer, got {n_records!r}")
        return MultiAspectStream(
            self._records[: int(n_records)],
            mode_sizes=self._mode_sizes,
            mode_names=self._mode_names,
        )

    def value_total(self) -> float:
        """Sum of all record values."""
        return float(sum(record.value for record in self._records))

    def max_abs_value(self) -> float:
        """Largest absolute record value (used by anomaly injection)."""
        if not self._records:
            return 0.0
        return float(max(abs(record.value) for record in self._records))
