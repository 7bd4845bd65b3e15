"""Coordinate-format sparse tensors with per-mode inverted indexes.

The tensor window maintained by the continuous tensor model (Section IV of the
paper) receives a handful of single-entry increments per tuple in the stream,
and the SliceNStitch update rules repeatedly enumerate

    Omega(m)_i  =  { coordinates of non-zeros whose m-th mode index equals i }

(the set the paper calls ``deg(m, i_m)`` the size of).  A plain dict of
``coordinate -> value`` gives O(1) increments; the per-mode inverted index
gives O(deg) enumeration of each Omega set.  Both are kept exactly consistent
by routing every mutation through :meth:`SparseTensor.add` /
:meth:`SparseTensor.set`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
import math

import numpy as np

from repro.exceptions import IndexOutOfBoundsError, ShapeError
from repro.validation import matches

Coordinate = tuple[int, ...]

#: Absolute values below this threshold are treated as explicit zeros and
#: removed from storage.  The continuous tensor model adds and later subtracts
#: the same float, so without a drop tolerance the window would slowly fill
#: with 1e-17 residues.
DROP_TOLERANCE = 1e-12


class SparseTensor:
    """A mutable sparse tensor stored as ``coordinate -> value``.

    Parameters
    ----------
    shape:
        Length of each mode.  All coordinates must lie inside this box.
    entries:
        Optional initial ``coordinate -> value`` mapping.  Values whose
        magnitude is below :data:`DROP_TOLERANCE` are ignored.

    Notes
    -----
    The class intentionally exposes a small, explicit API (``get``, ``set``,
    ``add``, iteration helpers, norms) instead of emulating numpy indexing.
    Every mutating operation keeps the per-mode inverted index synchronised.
    """

    __slots__ = (
        "_shape",
        "_data",
        "_mode_index",
        "_squared_norm",
        "_version",
        "_coo_cache",
    )

    def __init__(
        self,
        shape: Iterable[int],
        entries: Mapping[Coordinate, float] | None = None,
    ) -> None:
        shape = tuple(shape)
        if len(shape) == 0:
            raise ShapeError("a tensor must have at least one mode")
        if not all(matches(n, int) and n > 0 for n in shape):
            raise ShapeError(f"all mode lengths must be positive integers, got {shape}")
        shape = tuple(map(int, shape))
        self._shape: tuple[int, ...] = shape
        self._data: dict[Coordinate, float] = {}
        # _mode_index[m][i] holds the coordinates whose m-th index is i, as an
        # insertion-ordered dict used as a set.  A dict's iteration order is a
        # pure function of the key insert/remove sequence (unlike a set's,
        # which also depends on the hash-table layout history), and every
        # mutation touches _data and the buckets together — so each bucket's
        # order is exactly the projection of the _data insertion order.  That
        # makes slice enumeration reproducible from a serialized snapshot:
        # rebuilding entries in `to_coo_arrays` order restores bucket
        # iteration (and with it every slice-driven float reduction) exactly,
        # which checkpoint restore relies on for bit-identical resume.
        self._mode_index: list[dict[int, dict[Coordinate, None]]] = [
            {} for _ in range(len(shape))
        ]
        # ||X||_F^2, maintained incrementally by every mutation so norm() /
        # squared_norm() are O(1) instead of rescanning all nnz entries.
        self._squared_norm: float = 0.0
        # Mutation counter stamping the COO-array cache below.
        self._version: int = 0
        self._coo_cache: tuple[int, np.ndarray, np.ndarray] | None = None
        if entries is not None:
            for coordinate, value in entries.items():
                self.set(coordinate, float(value))

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        """Length of each mode."""
        return self._shape

    @property
    def order(self) -> int:
        """Number of modes (``M`` in the paper)."""
        return len(self._shape)

    @property
    def nnz(self) -> int:
        """Number of stored non-zero entries (``|X|`` in the paper)."""
        return len(self._data)

    @property
    def size(self) -> int:
        """Total number of cells, zero or not."""
        return int(np.prod(self._shape, dtype=np.int64))

    @property
    def density(self) -> float:
        """Fraction of cells that are non-zero."""
        return self.nnz / self.size

    @property
    def version(self) -> int:
        """Monotonic mutation counter (stamps the cached COO arrays)."""
        return self._version

    def __len__(self) -> int:
        return self.nnz

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SparseTensor(shape={self._shape}, nnz={self.nnz})"

    # ------------------------------------------------------------------
    # Entry access
    # ------------------------------------------------------------------
    def _validate(self, coordinate: Coordinate) -> Coordinate:
        """``coordinate`` as a tuple of ints inside the shape, or raise.

        The one check of caller-built coordinates.  An index must be an
        integer under :mod:`repro.validation`'s rule: a numpy integer is
        stored as ``int``, and a float, bool or string raises
        :class:`ShapeError` naming the coordinate instead of being
        truncated.
        """
        coordinate = tuple(coordinate)
        shape = self._shape
        if len(coordinate) == len(shape):
            for index, length in zip(coordinate, shape):
                if type(index) is not int or not 0 <= index < length:
                    break
            else:
                return coordinate
        return self._checked(coordinate)

    def _checked(self, coordinate: Coordinate) -> Coordinate:
        """:meth:`_validate` for a coordinate that is not plain in-bounds ints."""
        if len(coordinate) != self.order:
            raise ShapeError(
                f"coordinate {coordinate} has {len(coordinate)} indices but the "
                f"tensor has {self.order} modes"
            )
        for mode, index in enumerate(coordinate):
            if not matches(index, int):
                raise ShapeError(
                    f"coordinate {coordinate!r} must hold integers; mode {mode} "
                    f"has {index!r}"
                )
        coordinate = tuple(map(int, coordinate))
        for mode, (index, length) in enumerate(zip(coordinate, self._shape)):
            if not 0 <= index < length:
                raise IndexOutOfBoundsError(
                    f"index {index} out of bounds for mode {mode} with length {length}"
                )
        return coordinate

    def get(self, coordinate: Coordinate) -> float:
        """Return the value stored at ``coordinate`` (0.0 if absent)."""
        return self._data.get(self._validate(coordinate), 0.0)

    def _get_batch_trusted(self, coordinates: np.ndarray) -> np.ndarray:
        """Values at an ``(n, order)`` integer coordinate array (0.0 where absent).

        Unchecked gather for callers whose coordinates are in bounds by
        construction (the vectorised slice sampler unranks offsets that
        cannot leave the tensor's box).
        """
        data_get = self._data.get
        return np.array(
            [data_get(tuple(row), 0.0) for row in coordinates.tolist()],
            dtype=np.float64,
        )

    def __getitem__(self, coordinate: Coordinate) -> float:
        return self.get(coordinate)

    def set(self, coordinate: Coordinate, value: float) -> None:
        """Set the entry at ``coordinate`` to ``value`` (dropping near-zeros)."""
        coordinate = self._validate(coordinate)
        self._version += 1
        if abs(value) <= DROP_TOLERANCE:
            self._remove(coordinate)
        else:
            old = self._data.get(coordinate)
            if old is None:
                self._index_add(coordinate)
            else:
                self._squared_norm -= old * old
            value = float(value)
            self._squared_norm += value * value
            self._data[coordinate] = value

    def __setitem__(self, coordinate: Coordinate, value: float) -> None:
        self.set(coordinate, value)

    def add(self, coordinate: Coordinate, delta: float) -> float:
        """Add ``delta`` to the entry at ``coordinate`` and return the new value."""
        return self._add_trusted(self._validate(coordinate), delta)

    def _add_trusted(self, coordinate: Coordinate, delta: float) -> float:
        """:meth:`add` without the checks, for an in-bounds tuple of ints.

        The event engine's one way into the window: it builds its
        coordinates in bounds.
        """
        self._version += 1
        old = self._data.get(coordinate)
        new_value = (old if old is not None else 0.0) + float(delta)
        if abs(new_value) <= DROP_TOLERANCE:
            self._remove(coordinate)
            return 0.0
        if old is None:
            self._index_add(coordinate)
        else:
            self._squared_norm -= old * old
        self._squared_norm += new_value * new_value
        self._data[coordinate] = new_value
        return new_value

    def _remove(self, coordinate: Coordinate) -> None:
        old = self._data.get(coordinate)
        if old is not None:
            self._squared_norm -= old * old
            del self._data[coordinate]
            self._index_remove(coordinate)
            if not self._data:
                # An empty tensor has exactly zero norm; resetting here also
                # sheds any accumulated float drift at natural zero points.
                self._squared_norm = 0.0

    def _index_add(self, coordinate: Coordinate) -> None:
        for mode, index in enumerate(coordinate):
            self._mode_index[mode].setdefault(index, {})[coordinate] = None

    def _index_remove(self, coordinate: Coordinate) -> None:
        for mode, index in enumerate(coordinate):
            bucket = self._mode_index[mode].get(index)
            if bucket is not None:
                bucket.pop(coordinate, None)
                if not bucket:
                    del self._mode_index[mode][index]

    # ------------------------------------------------------------------
    # Iteration helpers
    # ------------------------------------------------------------------
    def items(self) -> Iterator[tuple[Coordinate, float]]:
        """Iterate over ``(coordinate, value)`` pairs of non-zero entries."""
        return iter(self._data.items())

    def coordinates(self) -> Iterator[Coordinate]:
        """Iterate over non-zero coordinates."""
        return iter(self._data.keys())

    def mode_slice(self, mode: int, index: int) -> Iterator[tuple[Coordinate, float]]:
        """Iterate over non-zeros whose ``mode``-th index equals ``index``.

        This enumerates the set the paper writes as ``Omega(m)_{i_m}``.
        """
        self._check_mode(mode)
        bucket = self._mode_index[mode].get(int(index), ())
        for coordinate in tuple(bucket):
            yield coordinate, self._data[coordinate]

    def mode_slice_arrays(self, mode: int, index: int) -> tuple[np.ndarray, np.ndarray]:
        """``(indices, values)`` arrays of the ``Omega(mode)_index`` slice.

        Array counterpart of :meth:`mode_slice` — same entries in the same
        (bucket-insertion) order, built without the per-entry generator hop.
        ``indices`` has shape ``(deg, order)`` and ``values`` ``(deg,)``.
        """
        self._check_mode(mode)
        bucket = self._mode_index[mode].get(int(index))
        if not bucket:
            return (
                np.empty((0, self.order), dtype=np.int64),
                np.empty((0,), dtype=np.float64),
            )
        coordinates = tuple(bucket)
        data = self._data
        indices = np.asarray(coordinates, dtype=np.int64)
        values = np.fromiter(
            (data[c] for c in coordinates), dtype=np.float64, count=len(coordinates)
        )
        return indices, values

    def degree(self, mode: int, index: int) -> int:
        """Return ``deg(mode, index)``: non-zeros with that mode index."""
        self._check_mode(mode)
        bucket = self._mode_index[mode].get(int(index))
        return 0 if bucket is None else len(bucket)

    def mode_indices(self, mode: int) -> set[int]:
        """Return the set of indices of ``mode`` holding at least one non-zero."""
        self._check_mode(mode)
        return set(self._mode_index[mode].keys())

    def _check_mode(self, mode: int) -> None:
        if not 0 <= mode < self.order:
            raise ShapeError(f"mode {mode} out of range for order-{self.order} tensor")

    # ------------------------------------------------------------------
    # Numeric reductions
    # ------------------------------------------------------------------
    def norm(self) -> float:
        """Frobenius norm ``||X||_F`` (O(1): incrementally maintained)."""
        return math.sqrt(self.squared_norm())

    def squared_norm(self) -> float:
        """Squared Frobenius norm ``||X||_F^2`` (O(1): incrementally maintained).

        The value is updated by every mutation instead of being recomputed
        from the stored entries, so repeated ``fitness()`` evaluations do not
        rescan all nnz entries.  Float accumulation can drift from an exact
        from-scratch sum by a few ulps per mutation (the churn regression test
        bounds this); the clamp guards against tiny negative residue.
        """
        return max(self._squared_norm, 0.0)

    def total(self) -> float:
        """Sum of all stored values."""
        return float(sum(self._data.values()))

    def inner(self, other: "SparseTensor") -> float:
        """Inner product with another sparse tensor of the same shape."""
        if other.shape != self.shape:
            raise ShapeError(
                f"cannot take inner product of shapes {self.shape} and {other.shape}"
            )
        if other.nnz < self.nnz:
            small, large = other, self
        else:
            small, large = self, other
        return float(
            sum(value * large._data.get(coord, 0.0) for coord, value in small.items())
        )

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialise the tensor as a dense numpy array.

        Only intended for small tensors (tests and tiny examples).
        """
        dense = np.zeros(self._shape, dtype=np.float64)
        for coordinate, value in self._data.items():
            dense[coordinate] = value
        return dense

    @classmethod
    def from_dense(cls, array: np.ndarray) -> "SparseTensor":
        """Build a sparse tensor from a dense numpy array."""
        array = np.asarray(array, dtype=np.float64)
        tensor = cls(array.shape)
        for coordinate in zip(*np.nonzero(array)):
            tensor.set(tuple(int(i) for i in coordinate), float(array[coordinate]))
        return tensor

    def copy(self) -> "SparseTensor":
        """Return a deep copy.

        The mutation :attr:`version` (and with it the COO-array cache) is
        carried forward: a caller holding a ``(tensor, version)`` pair from
        the original can never false-match the clone at a *different* content
        state, because the clone's counter continues from the original's
        instead of restarting at 0 and re-walking already-used version
        numbers.
        """
        clone = SparseTensor(self._shape)
        for coordinate, value in self._data.items():
            clone._data[coordinate] = value
            clone._index_add(coordinate)
        clone._squared_norm = self._squared_norm
        clone._version = self._version
        # The cached arrays are read-only, so sharing them with the clone is
        # safe; either tensor's next mutation re-stamps its own.
        clone._coo_cache = self._coo_cache
        return clone

    @classmethod
    def from_coo(
        cls,
        shape: Iterable[int],
        indices: np.ndarray,
        values: np.ndarray,
        version: int = 0,
    ) -> "SparseTensor":
        """Rebuild a tensor from COO arrays (inverse of :meth:`to_coo_arrays`).

        Entries are inserted in array order, so the dict insertion order — and
        therefore the ordering of a later :meth:`to_coo_arrays` — matches the
        array ordering exactly.  ``version`` seeds the mutation counter
        (checkpoint restore carries the saved tensor's counter forward).  The
        squared norm is recomputed exactly from the entries via
        :meth:`recompute_squared_norm`, not trusted from any incremental
        value.
        """
        tensor = cls(shape)
        index_array = np.asarray(indices, dtype=np.int64)
        value_array = np.asarray(values, dtype=np.float64)
        if index_array.ndim != 2 or index_array.shape[1] != tensor.order:
            raise ShapeError(
                f"coordinate array of shape {index_array.shape} does not "
                f"match an order-{tensor.order} tensor"
            )
        if index_array.shape[0] != value_array.shape[0]:
            raise ShapeError(
                f"{index_array.shape[0]} coordinates for "
                f"{value_array.shape[0]} values"
            )
        if index_array.shape[0]:
            outside = (index_array < 0) | (index_array >= np.asarray(tensor.shape))
            if outside.any():
                bad = tuple(index_array[outside.any(axis=1)][0].tolist())
                raise IndexOutOfBoundsError(
                    f"coordinate {bad} out of bounds for {tensor.shape}"
                )
            data = tensor._data
            for row, value in zip(index_array.tolist(), value_array.tolist()):
                coordinate = tuple(row)
                if coordinate in data:
                    raise ShapeError(
                        f"duplicate coordinate {coordinate} in COO input"
                    )
                data[coordinate] = value
                tensor._index_add(coordinate)
        tensor._version = int(version)
        tensor.recompute_squared_norm()
        return tensor

    def recompute_squared_norm(self) -> float:
        """Rescan all entries and reset the incremental squared norm exactly.

        Returns the drift ``old - new`` between the incrementally maintained
        value and the exact compensated sum, so callers (checkpoint restore,
        the churn regression tests) can observe how far the running value had
        wandered.  After this call :meth:`squared_norm` is exact.
        """
        exact = math.fsum(value * value for value in self._data.values())
        drift = self._squared_norm - exact
        self._squared_norm = exact
        return drift

    def to_coo_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(indices, values)`` arrays in COO layout.

        ``indices`` has shape ``(nnz, order)`` and ``values`` shape ``(nnz,)``.
        The ordering is the dict insertion order, which is deterministic for a
        deterministic sequence of mutations.

        The arrays are cached and stamped with the tensor's mutation
        :attr:`version`: as long as the tensor is not mutated, repeated calls
        (an ALS sweep solving every mode, fitness evaluations between events)
        return the same array objects without rebuilding them, and
        :meth:`copy` shares them with its clone.  Both arrays are therefore
        read-only: an in-place write raises ``ValueError`` instead of
        corrupting every later MTTKRP, fitness and checkpoint of both
        tensors.
        """
        cache = self._coo_cache
        if cache is not None and cache[0] == self._version:
            return cache[1], cache[2]
        if self.nnz == 0:
            indices = np.empty((0, self.order), dtype=np.int64)
            values = np.empty((0,), dtype=np.float64)
        else:
            indices = np.array(list(self._data.keys()), dtype=np.int64)
            values = np.array(list(self._data.values()), dtype=np.float64)
        indices.flags.writeable = False
        values.flags.writeable = False
        self._coo_cache = (self._version, indices, values)
        return indices, values

    # ------------------------------------------------------------------
    # Equality (used by tests)
    # ------------------------------------------------------------------
    def allclose(self, other: "SparseTensor", atol: float = 1e-9) -> bool:
        """Return True if both tensors agree entrywise within ``atol``."""
        if self.shape != other.shape:
            return False
        keys = set(self._data) | set(other._data)
        return all(
            abs(self._data.get(key, 0.0) - other._data.get(key, 0.0)) <= atol
            for key in keys
        )
