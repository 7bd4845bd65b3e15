"""The tensor window ``D(t, W)`` of Definition 4, stored sparsely.

A :class:`TensorWindow` is the order-``M`` sparse tensor obtained by
concatenating the ``W`` most recent tensor units.  The window itself is
agnostic of wall-clock time: the event-driven processor
(:class:`repro.stream.processor.ContinuousStreamProcessor`) decides *when*
entries move; the window applies the resulting entry changes and answers
queries about its contents.

Each source of entry changes has one way in.  Changes the event engine builds
(a :class:`~repro.stream.deltas.DeltaBatch`, applied whole by
:meth:`TensorWindow.apply_batch` or per event by
:meth:`TensorWindow.apply_entry_changes`) are in bounds by construction and
are applied unchecked.  Changes a caller builds (:meth:`TensorWindow.add_entry`,
or a hand-made :class:`~repro.stream.deltas.Delta` through
:meth:`TensorWindow.apply_delta`) go through :meth:`SparseTensor.add
<repro.tensor.sparse.SparseTensor.add>`, which refuses a coordinate that is
not a tuple of in-bounds integers.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator, Sequence

from repro.exceptions import ConfigurationError, ShapeError
from repro.stream.deltas import Delta, DeltaBatch
from repro.tensor.sparse import SparseTensor
from repro.validation import check_fields

Coordinate = tuple[int, ...]


@dataclasses.dataclass(frozen=True, slots=True)
class WindowConfig:
    """Static configuration of a tensor window.

    Attributes
    ----------
    mode_sizes:
        Lengths of the categorical modes ``(N_1, ..., N_{M-1})``.
    window_length:
        Number of tensor units ``W`` in the window (the time-mode length).
    period:
        Length ``T`` of one tensor unit, in the stream's time scale.
    """

    mode_sizes: tuple[int, ...]
    window_length: int
    period: float

    def __post_init__(self) -> None:
        check_fields(self)
        if not self.mode_sizes or any(n <= 0 for n in self.mode_sizes):
            raise ConfigurationError(
                f"mode_sizes must be positive, got {self.mode_sizes}"
            )
        if self.window_length <= 0:
            raise ConfigurationError(
                f"window_length must be positive, got {self.window_length}"
            )
        if self.period <= 0.0:
            raise ConfigurationError(f"period must be positive, got {self.period}")

    @property
    def shape(self) -> tuple[int, ...]:
        """Full shape of the window tensor: categorical modes then time mode."""
        return (*self.mode_sizes, self.window_length)

    @property
    def order(self) -> int:
        """Tensor order ``M``."""
        return len(self.mode_sizes) + 1

    @property
    def time_mode(self) -> int:
        """Index of the time mode (always the last mode)."""
        return len(self.mode_sizes)

    @property
    def span(self) -> float:
        """Total time span covered by the window, ``W * T``."""
        return self.window_length * self.period


class TensorWindow:
    """Sparse tensor window ``D(t, W)`` with delta-application bookkeeping."""

    def __init__(self, config: WindowConfig) -> None:
        self._config = config
        self._tensor = SparseTensor(config.shape)
        self._n_deltas_applied = 0

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def config(self) -> WindowConfig:
        """Static window configuration."""
        return self._config

    @property
    def tensor(self) -> SparseTensor:
        """The underlying sparse tensor (mutated in place by deltas)."""
        return self._tensor

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the window tensor."""
        return self._config.shape

    @property
    def order(self) -> int:
        """Tensor order ``M``."""
        return self._config.order

    @property
    def window_length(self) -> int:
        """Number of tensor units ``W``."""
        return self._config.window_length

    @property
    def period(self) -> float:
        """Unit length ``T``."""
        return self._config.period

    @property
    def nnz(self) -> int:
        """Number of non-zero entries in the window."""
        return self._tensor.nnz

    @property
    def n_deltas_applied(self) -> int:
        """Number of deltas applied so far (diagnostics)."""
        return self._n_deltas_applied

    @property
    def newest_unit_index(self) -> int:
        """Time-mode index of the newest tensor unit (``W - 1``)."""
        return self._config.window_length - 1

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def apply_delta(self, delta: Delta) -> None:
        """Apply the entry changes of one event, each checked, to the window."""
        add = self._tensor.add
        for coordinate, value in delta.entries:
            add(coordinate, value)
        self._n_deltas_applied += 1

    def apply_entry_changes(self, entries: Sequence[tuple[Coordinate, float]]) -> None:
        """Apply one engine-built event's entry changes ``((coordinate, value), ...)``.

        :meth:`apply_delta` without the checks, for the entries of
        :meth:`DeltaBatch.entry_groups`: the event engine builds them in
        bounds, so the window mutates per event without ``Delta`` objects.
        """
        add = self._tensor._add_trusted
        for coordinate, value in entries:
            add(coordinate, value)
        self._n_deltas_applied += 1

    def apply_batch(self, batch: DeltaBatch) -> None:
        """Apply an engine-built batch of event deltas in one pass.

        Equivalent — bit for bit, storage order included — to calling
        :meth:`apply_delta` for each of the batch's events in order: the
        adds are the same, pair by pair, minus the checks.
        """
        add = self._tensor._add_trusted
        for coordinate, value in zip(batch.coordinates, batch.raw_values):
            add(coordinate, value)
        self._n_deltas_applied += batch.n_events

    def add_entry(self, categorical: Sequence[int], unit: int, value: float) -> None:
        """Add ``value`` at (categorical indices, time-unit ``unit``).

        The checked form of what the processor's bootstrap does per
        historical record (it skips the checks for already-checked records).
        """
        self._tensor.add((*categorical, unit), value)

    def clear(self) -> None:
        """Reset the window to an all-zero tensor."""
        self._tensor = SparseTensor(self._config.shape)
        self._n_deltas_applied = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def unit_entries(self, unit: int) -> Iterator[tuple[Coordinate, float]]:
        """Iterate over non-zeros of the ``unit``-th tensor unit."""
        if not 0 <= unit < self.window_length:
            raise ShapeError(
                f"unit {unit} out of range for window length {self.window_length}"
            )
        return self._tensor.mode_slice(self._config.time_mode, unit)

    def unit_nnz(self, unit: int) -> int:
        """Number of non-zeros in the ``unit``-th tensor unit."""
        return self._tensor.degree(self._config.time_mode, unit)

    def norm(self) -> float:
        """Frobenius norm of the window."""
        return self._tensor.norm()

    def total(self) -> float:
        """Sum of all window entries (mass conservation checks)."""
        return self._tensor.total()

    def copy(self) -> "TensorWindow":
        """Deep copy (used by experiments that branch the same state)."""
        clone = TensorWindow(self._config)
        clone._tensor = self._tensor.copy()
        clone._n_deltas_applied = self._n_deltas_applied
        return clone

    @classmethod
    def from_tensor(
        cls,
        config: WindowConfig,
        tensor: SparseTensor,
        n_deltas_applied: int = 0,
    ) -> "TensorWindow":
        """Adopt an existing tensor as the window state (checkpoint restore).

        ``tensor`` is adopted by reference, not copied; its shape must equal
        ``config.shape``.
        """
        if tensor.shape != config.shape:
            raise ShapeError(
                f"tensor shape {tensor.shape} does not match window shape "
                f"{config.shape}"
            )
        window = cls(config)
        window._tensor = tensor
        window._n_deltas_applied = int(n_deltas_applied)
        return window
