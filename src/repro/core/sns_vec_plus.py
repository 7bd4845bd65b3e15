"""SNS+_VEC — coordinate descent with clipping (Algorithm 5, updateRowVec+).

SNS+_VEC updates the same rows as SNS_VEC but entry by entry (coordinate
descent), which lets it clip each updated entry into ``[-η, η]`` without ever
increasing the objective (footnote 3 of the paper).  Clipping removes the
numerical instability SNS_VEC exhibits, at a small cost in accuracy, and the
per-update complexity drops to Eq. (27) because no ``R x R`` pseudo-inverse is
needed.
"""

from __future__ import annotations

import numpy as np

from repro.als.mttkrp import mttkrp_row
from repro.core.base import ContinuousCPD, Entries
from repro.core.rowmath import clipped_coordinate_descent


class SNSVecPlus(ContinuousCPD):
    """Coordinate-descent row updates with entry clipping at ``η``."""

    name = "sns_vec_plus"
    relaxed_clipped = True

    # ------------------------------------------------------------------
    # Algorithm 3 outline
    # ------------------------------------------------------------------
    def _update(self, entries: Entries, categorical_indices: tuple[int, ...]) -> None:
        # The time mode's Hadamard-of-Grams matrix is unchanged by time-row
        # updates, so one matrix serves both time rows of a shift event.
        time_mode = self.time_mode
        time_hadamard: np.ndarray | None = None
        for mode, index in self._affected_rows(entries, categorical_indices):
            if mode == time_mode:
                if time_hadamard is None:
                    time_hadamard = self._hadamard_of_grams(mode)
                self._update_row(mode, index, entries, time_hadamard)
            else:
                self._update_row(mode, index, entries, self._hadamard_of_grams(mode))

    # ------------------------------------------------------------------
    # updateRowVec+ (Algorithm 5)
    # ------------------------------------------------------------------
    def _update_row(
        self,
        mode: int,
        index: int,
        entries: Entries,
        hadamard: np.ndarray,
    ) -> None:
        """Update one row given ``hadamard`` = ``*_{n != m} A(n)'A(n)``."""
        old_row = self._factors[mode][index, :].copy()
        if mode == self.time_mode:
            # Eq. (22): approximate X by X̃ via the e-term, plus the explicit ΔX part.
            numerator = old_row @ hadamard + self._delta_contribution(
                mode, index, entries
            )
        else:
            # Eq. (21): exact data term over Omega(m)_{i_m} of X + ΔX.
            numerator = mttkrp_row(
                self.window.tensor, self._factors, mode, index, kernels=self._kernels
            )
        new_row = self._coordinate_descent(mode, index, numerator, hadamard)
        self._factors[mode][index, :] = new_row
        self._update_gram(mode, old_row, new_row)  # Eqs. (24)-(25)

    def _delta_contribution(
        self, mode: int, index: int, entries: Entries
    ) -> np.ndarray:
        """``sum_J Δx_J * prod_{n != m} a(n)_{j_n k}`` over the event's entries."""
        contribution = np.zeros(self.rank, dtype=np.float64)
        for coordinate, value in entries:
            if coordinate[mode] != index:
                continue
            contribution += value * self._other_rows_product(mode, coordinate)
        return contribution

    def _coordinate_descent(
        self,
        mode: int,
        index: int,
        numerator: np.ndarray,
        hadamard: np.ndarray,
    ) -> np.ndarray:
        """Update the row entry by entry with clipping (lines 2-5 of Algorithm 5).

        For each column ``k``:

        * ``c_k`` is the ``(k, k)`` entry of the Hadamard-of-Grams matrix
          (Eq. 20, first line),
        * ``d_k = sum_{r != k} a_r * H_{r k}`` uses the *current* row, so
          entries updated earlier in this loop immediately influence later
          ones (true coordinate descent),
        * the data term ``numerator[k]`` was precomputed by the caller
          because it does not depend on the row being updated.

        The sweep itself is the shared pure function
        :func:`repro.core.rowmath.clipped_coordinate_descent` (bit-identical
        float operations to the historical inline loop).
        """
        eta = self.config.eta
        lower = 0.0 if self.config.nonnegative else -eta
        return clipped_coordinate_descent(
            self._factors[mode][index, :],
            numerator,
            hadamard,
            eta,
            lower,
            self.config.regularization,
        )
