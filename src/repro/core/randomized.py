"""Shared machinery of the randomised SliceNStitch variants (SNS_RND / SNS+_RND).

Both randomised variants follow the same Algorithm 3 outline — snapshot the
Gram matrices at the start of every event, then update each affected row —
and share the θ-bounded sampled approximation of the window: ``X ≈ X̃ + X̄``,
where ``X̃`` is the reconstruction from the rows as they were when the event
started and ``X̄`` holds the residuals at θ sampled coordinates plus the
explicit ``ΔX`` entries.  :class:`RandomizedCPD` centralises that machinery:

* previous-Gram maintenance ``A_prev(m)' A(m)`` (Eq. 17 / Eq. 26),
* the per-event rule :meth:`_update` — the Gram snapshot, affected rows,
  start-of-event row snapshots (bucketed by mode for the reconstruction), the
  event's exclusion set built once, and the time-mode matrices shared by the
  (up to two) time rows of the event,
* the sampled residual: :class:`~repro.core.sampling.SliceSampler` draws the
  θ coordinates in bulk as an ``(n, M)`` int64 array consumed directly by the
  fused ``sampled_residual`` kernel (no per-draw Python tuples).

``update`` and the exact ``update_batch`` path both call :meth:`_update`, so
batched results are bit-identical to the per-event path.  Subclasses
implement :meth:`_update_row` with their specific update rule (least squares
for SNS_RND, clipped coordinate descent for SNS+_RND).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.base import ContinuousCPD, Coordinate, Entries
from repro.core.sampling import SliceSampler
from repro.exceptions import ConfigurationError
from repro.kernels.api import flatten_mode_overrides


class RandomizedCPD(ContinuousCPD):
    """Base class of the θ-bounded randomised variants."""

    def _post_initialize(self) -> None:
        # U(m) = A_prev(m)' A(m); refreshed to the plain Grams at every event.
        # The snapshot buffers are reused (np.copyto) instead of reallocated.
        self._prev_grams = [gram.copy() for gram in self._grams]
        # Per-mode slice metadata amortised across every sampled row update.
        self._slice_sampler = SliceSampler(self.window.shape)
        # Scratch for the prev-Gram rank-one update (Eq. 17 / Eq. 26) and
        # for the regularized system of _solve_regularized.
        rank = self.rank
        self._prev_gram_scratch = np.empty((rank, rank))
        self._row_diff_scratch = np.empty(rank)
        self._solve_scratch = np.empty((rank, rank))

    @property
    def prev_grams(self) -> list[np.ndarray]:
        """Maintained ``A_prev(m)' A(m)`` matrices (Eq. 17 / Eq. 26)."""
        return self._prev_grams

    def _aux_state(self):
        # Strictly, prev-Grams are re-snapshotted from the Grams at the start
        # of every event before being read — but persisting them keeps the
        # restored object state identical to the saved one, not just
        # observationally equivalent.
        return {"prev_grams": [gram.copy() for gram in self._prev_grams]}

    def _load_aux_state(self, aux) -> None:
        prev_grams = aux.get("prev_grams")
        if prev_grams is None:
            raise ConfigurationError(
                "randomized-variant checkpoint state is missing 'prev_grams'"
            )
        rank = self.rank
        restored = [
            np.array(gram, dtype=np.float64, copy=True) for gram in prev_grams
        ]
        if len(restored) != self.order or any(
            gram.shape != (rank, rank) for gram in restored
        ):
            raise ConfigurationError(
                "checkpointed prev-Gram matrices do not match the factor layout"
            )
        self._prev_grams = restored

    # ------------------------------------------------------------------
    # Algorithm 3 outline
    # ------------------------------------------------------------------
    def _update(self, entries: Entries, categorical_indices: tuple[int, ...]) -> None:
        """Update every row affected by one event (Algorithm 3).

        Line 1 snapshots the Grams; lines 2-4 update the affected rows (time
        rows first, see ``_affected_rows``) with shared per-event setup: the
        start-of-event row snapshots, the exclusion set (the event's
        coordinates), the per-row degrees, and the time-mode matrices that
        the (up to two) time rows of the event share — work that provably
        cannot change between those rows, so sharing changes no results.
        """
        for buffer, gram in zip(self._prev_grams, self._grams):
            np.copyto(buffer, gram)
        factors = self._factors
        tensor = self.window.tensor
        time_mode = self.time_mode
        affected = self._affected_rows(entries, categorical_indices)
        prev_rows: dict[tuple[int, int], np.ndarray] = {
            (mode, index): factors[mode][index, :].copy()
            for mode, index in affected
        }
        degrees = [tensor.degree(mode, index) for mode, index in affected]
        delta_coordinates = [coordinate for coordinate, _value in entries]
        # Time-mode matrices shared by the time rows of this event; time
        # rows come first in `affected`, so the cache is never read after a
        # categorical update invalidated it.
        time_shared: dict[str, np.ndarray] = {}
        # Rows already updated this event, bucketed by mode.  The X̃
        # reconstruction must use start-of-event rows, but the live factors
        # only differ from those on rows updated *earlier in this event* —
        # an override for a not-yet-updated row would overwrite gathered
        # rows with identical values.  Growing the bucket as rows commit
        # therefore changes nothing and lets early rows skip the override
        # scan entirely.
        overrides_by_mode: dict[int, list[tuple[int, np.ndarray]]] = {}
        for position, (mode, index) in enumerate(affected):
            self._update_row(
                mode,
                index,
                degrees[position],
                entries,
                prev_rows,
                overrides_by_mode,
                delta_coordinates,
                time_shared if mode == time_mode else None,
            )
            overrides_by_mode.setdefault(mode, []).append(
                (index, prev_rows[(mode, index)])
            )

    @abc.abstractmethod
    def _update_row(
        self,
        mode: int,
        index: int,
        degree: int,
        entries: Entries,
        prev_rows: dict[tuple[int, int], np.ndarray],
        overrides_by_mode: dict[int, list[tuple[int, np.ndarray]]],
        delta_coordinates: list[Coordinate],
        time_shared: dict[str, np.ndarray] | None,
    ) -> None:
        """Variant-specific row update (Algorithm 4 / Algorithm 5)."""

    # ------------------------------------------------------------------
    # Shared update helpers
    # ------------------------------------------------------------------
    def _commit_row(
        self, mode: int, index: int, old_row: np.ndarray, new_row: np.ndarray
    ) -> None:
        """Write the updated row and maintain both Gram products.

        Applies Eq. (13)/(24)-(25) through :meth:`ContinuousCPD._update_gram`
        and the previous-Gram update Eq. (17)/(26) as a buffered form of
        ``prev_grams[mode] += np.outer(old_row, new_row - old_row)``.  Same
        float operations as the seed in both cases, no temporaries.
        """
        self._factors[mode][index, :] = new_row
        self._update_gram(mode, old_row, new_row)
        np.subtract(new_row, old_row, out=self._row_diff_scratch)
        np.multiply(
            old_row[:, None],
            self._row_diff_scratch[None, :],
            out=self._prev_gram_scratch,
        )
        self._prev_grams[mode] += self._prev_gram_scratch

    def _shared_hadamard(
        self,
        mode: int,
        grams: list[np.ndarray],
        time_shared: dict[str, np.ndarray] | None,
    ) -> np.ndarray:
        """``*_{n != mode} grams[n]``, computed once per event for time rows.

        ``time_shared`` is the event's time-row cache (``None`` for
        categorical rows).  Time-row updates change only the time-mode Grams,
        which this product skips, so both time rows of an event get the
        same matrix.
        """
        if time_shared is None:
            return self._hadamard_of_grams(mode, grams)
        key = "hadamard_prev" if grams is self._prev_grams else "hadamard"
        hadamard = time_shared.get(key)
        if hadamard is None:
            hadamard = time_shared[key] = self._hadamard_of_grams(mode, grams)
        return hadamard

    def _solve_regularized(self, matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """``rhs @ (matrix + ridge)^-1`` for symmetric PSD ``matrix`` via one solve.

        The vectorised path's replacement for materialising the inverse: one
        direct solve through the configured kernel backend (numpy's own
        LAPACK on the numpy reference; the Hadamard product of Gram matrices
        is PSD by the Schur product theorem, and the ridge makes it
        definite).  Singular systems fall back to the Moore-Penrose
        pseudo-inverse exactly like :meth:`_pinv`.  ``rhs`` may also be a
        ``(B, R)`` batch of rows solved against one shared matrix.
        """
        return self._kernels.solve_regularized(
            matrix, rhs, self._ridge, self._solve_scratch
        )

    # ------------------------------------------------------------------
    # θ-bounded sampling (Algorithm 4 line 12 / Algorithm 5 line 9)
    # ------------------------------------------------------------------
    def _sampled_contribution(
        self,
        mode: int,
        index: int,
        entries: Entries,
        prev_rows: dict[tuple[int, int], np.ndarray],
        overrides_by_mode: dict[int, list[tuple[int, np.ndarray]]],
        delta_coordinates: list[Coordinate],
    ) -> np.ndarray:
        """``sum_J (x̄_J + Δx_J) * prod_{n != m} a(n)_{j_n k}`` (Eqs. 16 and 23).

        The sampled residuals use the window as it is *now* (``X + ΔX``)
        against the reconstruction ``X̃`` built from the rows at the start of
        the event; the event's own entries are excluded from the sample and
        added explicitly.
        """
        factors = self._factors
        samples = self._slice_sampler.sample(
            mode, index, self._config.theta, self._rng, exclude=delta_coordinates
        )
        contribution = self._sampled_residual(
            mode, index, samples, prev_rows, overrides_by_mode, factors
        )
        for coordinate, value in entries:
            if coordinate[mode] != index:
                continue
            product: np.ndarray | None = None
            for other_mode, factor in enumerate(factors):
                if other_mode == mode:
                    continue
                row = factor[coordinate[other_mode], :]
                product = row if product is None else product * row
            contribution = contribution + value * product
        return contribution

    def _sampled_residual(
        self,
        mode: int,
        index: int,
        samples: np.ndarray,
        prev_rows: dict[tuple[int, int], np.ndarray],
        overrides_by_mode: dict[int, list[tuple[int, np.ndarray]]],
        factors: list[np.ndarray],
    ) -> np.ndarray:
        """Fused residual term ``(x - x̃) @ (Hadamard of other current rows)``.

        One pass over the other modes builds both row products —
        ``product_current`` from the live factors (the Eq. 16/23 coefficient)
        and ``product_previous`` from the start-of-event rows (the ``X̃``
        reconstruction) — sharing each mode's row gather.  Every sample has
        ``samples[:, mode] == index``, so the reconstruction's ``mode``
        factor collapses to the single row ``prev_rows[(mode, index)]``,
        applied as a final matrix-vector product.  The fused pass itself is
        the configured backend's ``sampled_residual`` kernel; the override
        buckets are flattened in insertion order, which the numpy reference
        replays exactly.
        """
        if not samples.shape[0]:
            return np.zeros(self.rank, dtype=np.float64)
        observed = self.window.tensor._get_batch_trusted(samples)
        override_modes, override_indices, override_rows = flatten_mode_overrides(
            overrides_by_mode, mode, self.rank
        )
        return self._kernels.sampled_residual(
            samples,
            observed,
            factors,
            mode,
            prev_rows[(mode, index)],
            override_modes,
            override_indices,
            override_rows,
        )
