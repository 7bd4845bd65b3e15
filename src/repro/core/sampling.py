"""Uniform coordinate sampling inside a tensor slice (used by SNS_RND / SNS+_RND).

``SNS_RND`` bounds the per-row update cost by sampling ``θ`` coordinates of
the window "while fixing the m-th mode index to i_m" (Algorithm 4, line 12),
i.e. uniformly from the Cartesian product of the *other* modes' index ranges.
Coordinates of the current delta are excluded, as footnote 2 of the paper
prescribes.

:class:`SliceSampler` is the flat-index sampler: one batched draw over
linearised slice offsets, exclusion and dedup via flat-key set operations,
and a vectorised unranking into an ``(n, M)`` int64 coordinate array that the
update rules consume directly — no per-draw Python tuples.  Draws are uniform
over the eligible cells, without replacement.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import ShapeError

Coordinate = tuple[int, ...]

#: Slices with at most this many cells may be sampled by enumerating every
#: eligible offset (see ``_DENSE_REQUEST_FRACTION``); larger slices always use
#: rejection rounds.
_ENUMERATION_LIMIT = 100_000

#: The vectorised sampler switches from batched rejection rounds to explicit
#: enumeration when the requested count exceeds this fraction of the eligible
#: cells (rejection dedup becomes wasteful near exhaustion).
_DENSE_REQUEST_FRACTION = 0.25

#: Round budget of the vectorised rejection loop before it falls back to
#: enumeration.  Each round draws a fresh batch of candidates, so hitting the
#: cap requires an adversarially dense exclusion set.
_VECTORIZED_MAX_ROUNDS = 32


class SliceSampler:
    """Vectorised slice sampler bound to one tensor shape.

    Per-mode metadata — the other modes, their sizes, the strides of the
    linearisation, and the slice cell count — is computed once at
    construction, so each :meth:`sample` call is a single batched
    ``Generator.integers`` draw plus flat-key dedup/exclusion and a
    vectorised unranking.  The randomised variants keep one instance per
    window (the window shape never changes) and call it on every sampled row
    update; :func:`sample_slice_coordinates_array` wraps it for one-shot use.
    """

    __slots__ = ("_shape", "_modes")

    def __init__(self, shape: Sequence[int]) -> None:
        shape = tuple(int(n) for n in shape)
        if not shape:
            raise ShapeError("a slice sampler needs at least one mode")
        self._shape = shape
        modes = []
        for mode in range(len(shape)):
            other_modes: tuple[int, ...] = tuple(
                m for m in range(len(shape)) if m != mode
            )
            other_sizes = tuple(shape[m] for m in other_modes)
            strides = []
            stride = 1
            for size in other_sizes:
                strides.append(stride)
                stride *= size
            modes.append((other_modes, other_sizes, tuple(strides), stride))
        # Per mode: (other_modes, other_sizes, strides, slice_cells).
        self._modes = tuple(modes)

    @property
    def shape(self) -> tuple[int, ...]:
        """Tensor shape this sampler was built for."""
        return self._shape

    def sample(
        self,
        mode: int,
        index: int,
        count: int,
        rng: np.random.Generator,
        exclude: Sequence[Coordinate] = (),
    ) -> np.ndarray:
        """Sample up to ``count`` distinct slice coordinates as an ``(n, M)`` array.

        Every coordinate has ``coordinate[mode] == index`` and none is listed
        in ``exclude``; when fewer than ``count`` cells are eligible, all of
        them are returned.  Drawn uniformly without replacement over
        linearised slice offsets.
        """
        shape = self._shape
        if not 0 <= mode < len(shape):
            raise ShapeError(f"mode {mode} out of range for shape {shape}")
        if not 0 <= index < shape[mode]:
            raise ShapeError(
                f"index {index} out of range for mode {mode} ({shape[mode]})"
            )
        other_modes, other_sizes, strides, slice_cells = self._modes[mode]
        order = len(shape)
        if count <= 0:
            return np.empty((0, order), dtype=np.int64)
        # Rank the (few) excluded coordinates into flat offsets.  A
        # coordinate with any out-of-bounds component can never be drawn
        # (and must not alias onto a valid offset), so it is dropped rather
        # than tripping the dense path's enumeration.
        excluded: set[int] = set()
        for coordinate in exclude:
            if coordinate[mode] != index:
                continue
            flat = 0
            for other_mode, size, stride in zip(other_modes, other_sizes, strides):
                component = int(coordinate[other_mode])
                if not 0 <= component < size:
                    flat = -1
                    break
                flat += component * stride
            if flat >= 0:
                excluded.add(flat)
        eligible = slice_cells - len(excluded)
        if eligible <= 0:
            return np.empty((0, order), dtype=np.int64)
        if count > eligible:
            count = eligible
        if (
            slice_cells <= _ENUMERATION_LIMIT
            and count >= eligible * _DENSE_REQUEST_FRACTION
        ):
            flats = _draw_flats_by_enumeration(slice_cells, count, rng, excluded)
        else:
            flats = self._draw_flats_by_rejection(slice_cells, count, rng, excluded)
        return self._unrank(flats, mode, index, other_modes, other_sizes)

    @staticmethod
    def _draw_flats_by_rejection(
        slice_cells: int,
        count: int,
        rng: np.random.Generator,
        excluded: set[int],
    ) -> np.ndarray:
        """Block draws with flat-key set dedup — exact rejection semantics.

        Each round draws one batched uniform block (``floor(u * n)`` over a
        single ``Generator.random`` call: markedly cheaper than
        ``Generator.integers``, uniform up to the 2^-53 float granularity);
        a set-membership pass keeps the first occurrence of each offset and
        drops exclusions, which is exactly what per-draw rejection sampling
        would have kept.  The first block is sized ``count`` and accepted
        wholesale when it is already collision- and exclusion-free — the
        common case when ``count`` (θ, tens) is far below ``slice_cells`` —
        making the happy path two numpy calls and one set construction.
        """
        first = (rng.random(count) * slice_cells).astype(np.int64)
        first_list = first.tolist()
        seen = set(first_list)
        if len(seen) == count and (not excluded or seen.isdisjoint(excluded)):
            return first
        # Collision or exclusion hit: run the drawn block through the exact
        # dedup pass (same semantics, just without the early exit) and top
        # up with fresh oversampled blocks.
        seen = set(excluded)
        chosen: list[int] = []
        for flat in first_list:
            if flat in seen:
                continue
            seen.add(flat)
            chosen.append(flat)
        for _ in range(_VECTORIZED_MAX_ROUNDS):
            need = count - len(chosen)
            if need <= 0:
                break
            block = 2 * need + len(seen)
            draw = (rng.random(block) * slice_cells).astype(np.int64).tolist()
            for flat in draw:
                if flat in seen:
                    continue
                seen.add(flat)
                chosen.append(flat)
                if len(chosen) == count:
                    break
        if len(chosen) < count:
            # Adversarially dense exclusion set: finish by enumeration (the
            # caller guaranteed at least ``count`` eligible cells exist).
            remainder = _draw_flats_by_enumeration(
                slice_cells, count - len(chosen), rng, seen
            )
            return np.concatenate(
                [np.asarray(chosen, dtype=np.int64), remainder]
            )
        return np.asarray(chosen, dtype=np.int64)

    @staticmethod
    def _unrank(
        flats: np.ndarray,
        mode: int,
        index: int,
        other_modes: tuple[int, ...],
        other_sizes: tuple[int, ...],
    ) -> np.ndarray:
        """Vectorised unranking of flat slice offsets into ``(n, M)`` coordinates."""
        coordinates = np.empty((flats.size, len(other_modes) + 1), dtype=np.int64)
        coordinates[:, mode] = index
        remainder = flats
        last = len(other_modes) - 1
        for position, (other_mode, size) in enumerate(zip(other_modes, other_sizes)):
            if position == last:
                coordinates[:, other_mode] = remainder
            else:
                coordinates[:, other_mode] = remainder % size
                remainder = remainder // size
        return coordinates


def sample_slice_coordinates_array(
    shape: Sequence[int],
    mode: int,
    index: int,
    count: int,
    rng: np.random.Generator,
    exclude: Sequence[Coordinate] = (),
) -> np.ndarray:
    """Sample up to ``count`` slice coordinates as an ``(n, M)`` array.

    One-shot convenience wrapper over :class:`SliceSampler`; callers sampling
    repeatedly from the same shape (the randomised variants) should hold a
    sampler instance instead to amortise the per-mode metadata.
    """
    return SliceSampler(shape).sample(mode, index, count, rng, exclude=exclude)


def _draw_flats_by_enumeration(
    slice_cells: int,
    count: int,
    rng: np.random.Generator,
    excluded: set[int],
) -> np.ndarray:
    """Materialise the eligible offsets and permute — exact, O(slice_cells)."""
    eligible_flats = np.arange(slice_cells, dtype=np.int64)
    if excluded:
        # Position == value in an arange, so deleting at the excluded
        # *positions* removes exactly the excluded *offsets*.
        eligible_flats = np.delete(
            eligible_flats, np.fromiter(excluded, dtype=np.int64, count=len(excluded))
        )
    if count >= eligible_flats.size:
        return eligible_flats
    return rng.permutation(eligible_flats)[:count]
