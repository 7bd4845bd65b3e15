"""SNS_RND — sampled row updates bounded by the threshold ``θ`` (Algorithm 4).

SNS_RND follows the same outline as SNS_VEC but caps the number of window
entries visited per row update at the user threshold ``θ``:

* when ``deg(m, i_m) <= θ`` the exact rule of Eq. (12) is used;
* otherwise ``θ`` coordinates of the slice are sampled uniformly, the window
  is approximated by ``X̃ + X̄`` (reconstruction plus sampled residuals), and
  the row is updated with Eq. (16), which requires the previous-Gram matrices
  ``A_prev' A`` maintained by Eq. (17).

With ``M``, ``R``, ``θ`` constant, each update takes constant time
(Theorem 5).  Like SNS_VEC it does not normalise or clip and can be unstable.

The sampling machinery and the per-event outline live in
:class:`repro.core.randomized.RandomizedCPD`.  Each row is computed with one
linear solve against the Hadamard-of-Grams system.
"""

from __future__ import annotations

import numpy as np

from repro.als.mttkrp import mttkrp_row
from repro.core.base import Coordinate, Entries
from repro.core.randomized import RandomizedCPD


class SNSRnd(RandomizedCPD):
    """Randomised row-wise online CP updates with per-update cost ``O(θ)``."""

    name = "sns_rnd"

    # ------------------------------------------------------------------
    # updateRowRan (Algorithm 4)
    # ------------------------------------------------------------------
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
        tensor = self.window.tensor  # already X + ΔX
        # Each affected row is updated exactly once per event, so the
        # start-of-event snapshot still equals the live row here.
        old_row = prev_rows[(mode, index)]
        hadamard = self._shared_hadamard(mode, self._grams, time_shared)
        if degree <= self._config.theta:
            rhs = mttkrp_row(
                tensor, self._factors, mode, index, kernels=self._kernels
            )  # Eq. (12)
        else:
            # Eq. (16): approximate the window by X̃ + X̄ with θ samples.
            hadamard_prev = self._shared_hadamard(mode, self._prev_grams, time_shared)
            rhs = old_row @ hadamard_prev + self._sampled_contribution(
                mode,
                index,
                entries,
                prev_rows,
                overrides_by_mode,
                delta_coordinates,
            )
        new_row = self._solve_regularized(hadamard, rhs)
        # Eq. (13) and Eq. (17): factor write plus both Gram updates.
        self._commit_row(mode, index, old_row, new_row)
