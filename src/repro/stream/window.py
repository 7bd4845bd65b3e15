"""The tensor window ``D(t, W)`` of Definition 4, stored sparsely.

A :class:`TensorWindow` is the order-``M`` sparse tensor obtained by
concatenating the ``W`` most recent tensor units.  The window itself is
agnostic of wall-clock time: the event-driven processor
(:class:`repro.stream.processor.ContinuousStreamProcessor`) decides *when*
entries move; the window merely applies the resulting
:class:`~repro.stream.deltas.Delta` objects — one at a time via
:meth:`TensorWindow.apply_delta`, or a whole coalesced
:class:`~repro.stream.deltas.DeltaBatch` at once via
:meth:`TensorWindow.apply_batch` (bit-identical result, one call per
batch) — and answers queries about its contents.
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
        if len(self.mode_sizes) == 0:
            raise ConfigurationError("a window needs at least one categorical mode")
        if any(n <= 0 for n in self.mode_sizes):
            raise ConfigurationError(
                f"all categorical mode sizes must be positive, got {self.mode_sizes}"
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
        """Apply the entry changes of one event to the window."""
        for coordinate, value in delta.entries:
            if len(coordinate) != self.order:
                raise ShapeError(
                    f"delta coordinate {coordinate} does not match window order {self.order}"
                )
            self._tensor.add(coordinate, value)
        self._n_deltas_applied += 1

    def apply_entry_changes(
        self,
        entries: Sequence[tuple[Coordinate, float]],
        trusted: bool = False,
    ) -> None:
        """Apply one event's entry changes given as ``((coordinate, value), ...)``.

        Equivalent to :meth:`apply_delta` on a delta carrying ``entries``;
        consumers of :meth:`DeltaBatch.entry_groups` use it to mutate the
        window per event without materialising ``Delta`` objects.  With
        ``trusted=True`` (engine-built batches: coordinates validated by
        construction) per-entry validation is skipped.
        """
        tensor = self._tensor
        if trusted:
            for coordinate, value in entries:
                tensor._add_trusted(coordinate, value)
        else:
            order = self.order
            for coordinate, value in entries:
                if len(coordinate) != order:
                    raise ShapeError(
                        f"entry coordinate {coordinate} does not match window "
                        f"order {order}"
                    )
                tensor.add(coordinate, value)
        self._n_deltas_applied += 1

    def apply_batch(self, batch: DeltaBatch) -> None:
        """Apply a coalesced batch of event deltas in one pass.

        Equivalent — bit for bit, storage order included — to calling
        :meth:`apply_delta` for each of the batch's per-event deltas in
        order (see :meth:`repro.tensor.sparse.SparseTensor.add_batch`).
        """
        if batch.trusted:
            # Batches built by the event engine carry validated int-tuple
            # coordinates, so per-entry validation is skipped.
            add = self._tensor._add_trusted
            for coordinate, value in zip(batch.coordinates, batch.raw_values):
                add(coordinate, value)
        else:
            self._tensor.add_batch(batch.coordinates, batch.raw_values)
        self._n_deltas_applied += batch.n_events

    def add_entry(self, categorical: Sequence[int], unit: int, value: float) -> None:
        """Add ``value`` at (categorical indices, time-unit ``unit``).

        The validated form of what the processor's bootstrap does per
        historical record (it skips validation for already-checked records).
        """
        coordinate = (*tuple(int(i) for i in categorical), int(unit))
        self._tensor.add(coordinate, value)

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
