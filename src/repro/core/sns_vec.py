"""SNS_VEC — row-wise least-squares updates (Algorithms 3-4 of the paper).

Only the factor rows that approximate changed window entries are touched:

* the (at most two) time-mode rows whose tensor units gained or lost the
  event's value are updated with the *approximate* rule of Eq. (9), which
  costs ``O(M R)`` because ``ΔX`` has at most two non-zeros;
* the one row per categorical mode indexed by the event's categorical indices
  is updated with the *exact* least-squares rule of Eq. (12), which costs
  ``O(R · deg(m, i_m))``.

Gram matrices are maintained incrementally with Eq. (13).  SNS_VEC does not
normalise or clip, so it can become numerically unstable on some streams —
the behaviour the paper demonstrates and the ``+`` variants fix.
"""

from __future__ import annotations

import numpy as np

from repro.als.mttkrp import mttkrp_row
from repro.core.base import ContinuousCPD, Entries


class SNSVec(ContinuousCPD):
    """Row-wise online CP updates (exact non-time rows, approximate time rows)."""

    name = "sns_vec"

    # ------------------------------------------------------------------
    # Algorithm 3 outline
    # ------------------------------------------------------------------
    def _update(self, entries: Entries, categorical_indices: tuple[int, ...]) -> None:
        # Both time-row solves of a shift event use the Hadamard product of
        # the *categorical* Gram matrices, which time-row updates never
        # change, so one R x R inverse serves every time row of the event.
        time_mode = self.time_mode
        inverse: np.ndarray | None = None
        for mode, index in self._affected_rows(entries, categorical_indices):
            if mode == time_mode:
                if inverse is None:
                    inverse = self._pinv(self._hadamard_of_grams(mode))
                self._update_time_row(index, entries, inverse)
            else:
                self._update_categorical_row(mode, index)

    # ------------------------------------------------------------------
    # Update rules
    # ------------------------------------------------------------------
    def _update_time_row(
        self, index: int, entries: Entries, inverse: np.ndarray
    ) -> None:
        """Approximate update of one time-mode row (Eq. 9).

        ``inverse`` is ``pinv(*_{n != time} A(n)'A(n))``.
        """
        mode = self.time_mode
        old_row = self._factors[mode][index, :].copy()
        delta_row = np.zeros(self.rank, dtype=np.float64)
        for coordinate, value in entries:
            if coordinate[mode] != index:
                continue
            delta_row += value * self._other_rows_product(mode, coordinate)
        new_row = old_row + delta_row @ inverse
        self._factors[mode][index, :] = new_row
        self._update_gram(mode, old_row, new_row)

    def _update_categorical_row(self, mode: int, index: int) -> None:
        """Exact least-squares update of one categorical-mode row (Eq. 12)."""
        old_row = self._factors[mode][index, :].copy()
        numerator = mttkrp_row(
            self.window.tensor, self._factors, mode, index, kernels=self._kernels
        )
        hadamard = self._hadamard_of_grams(mode)
        new_row = numerator @ self._pinv(hadamard)
        self._factors[mode][index, :] = new_row
        self._update_gram(mode, old_row, new_row)
