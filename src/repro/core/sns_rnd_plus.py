"""SNS+_RND — sampled coordinate descent with clipping (Algorithm 5, updateRowRan+).

The paper's recommended default: per-update cost bounded by ``θ`` like
SNS_RND, numerical stability through clipping like SNS+_VEC, and constant
per-event time when ``M``, ``R``, ``θ`` are constants (Theorem 7).

For each affected row:

* if ``deg(m, i_m) <= θ`` the exact coordinate-descent rule of Eq. (21) is
  used;
* otherwise ``θ`` coordinates are sampled in the row's slice, the window is
  approximated by ``X̃ + X̄``, and Eq. (23) is used, which needs the
  previous-Gram matrices ``A_prev' A`` maintained by Eq. (26).

Every updated entry is clipped into ``[-η, η]``.

The sampling machinery and the per-event outline live in
:class:`repro.core.randomized.RandomizedCPD`.  The coordinate-descent sweep
is computed as one triangular solve — a Gauss-Seidel sweep in matrix form —
through numpy's own LAPACK, and falls back to the reference entry-by-entry
loop exactly when clipping (or a non-positive diagonal) would engage.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg._umath_linalg import solve1

from repro.als.mttkrp import mttkrp_row
from repro.core.base import Coordinate, Entries
from repro.core.randomized import RandomizedCPD
from repro.core.rowmath import clipped_coordinate_descent


class SNSRndPlus(RandomizedCPD):
    """Sampled coordinate-descent updates with clipping: the paper's default choice."""

    name = "sns_rnd_plus"
    relaxed_clipped = True

    def _post_initialize(self) -> None:
        super()._post_initialize()
        rank = self.rank
        # Triangular-sweep scratch: strict-triangle masks plus two buffers,
        # and a persistent strided view of the lower buffer's diagonal.
        self._lower_mask = np.tril(np.ones((rank, rank)))
        self._strict_upper_mask = np.triu(np.ones((rank, rank)), 1)
        self._lower_scratch = np.empty((rank, rank))
        self._upper_scratch = np.empty((rank, rank))
        self._lower_diagonal = self._lower_scratch.reshape(-1)[:: rank + 1]
        # Clipping constants, resolved once (hot path: one lookup each).
        self._cd_eta = self._config.eta
        self._cd_lower = 0.0 if self._config.nonnegative else -self._cd_eta
        self._cd_ridge = self._config.regularization

    # ------------------------------------------------------------------
    # updateRowRan+ (Algorithm 5)
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
            # Eq. (21): exact data term over the row's non-zeros.
            numerator = mttkrp_row(
                tensor, self._factors, mode, index, kernels=self._kernels
            )
        else:
            # Eq. (23): e-term via the previous Grams plus sampled residuals
            # and the explicit ΔX contribution.
            hadamard_prev = self._shared_hadamard(mode, self._prev_grams, time_shared)
            numerator = old_row @ hadamard_prev + self._sampled_contribution(
                mode, index, entries, prev_rows, overrides_by_mode, delta_coordinates
            )
        new_row = self._coordinate_descent(
            old_row, numerator, hadamard, time_shared=time_shared
        )
        # Eqs. (24)-(25) and Eq. (26): factor write plus both Gram updates.
        self._commit_row(mode, index, old_row, new_row)

    # ------------------------------------------------------------------
    # Coordinate descent (lines 12-15 of Algorithm 5)
    # ------------------------------------------------------------------
    def _coordinate_descent(
        self,
        old_row: np.ndarray,
        numerator: np.ndarray,
        hadamard: np.ndarray,
        time_shared: dict[str, np.ndarray] | None = None,
    ) -> np.ndarray:
        """One clipped coordinate-descent sweep over the row.

        One unclipped Gauss-Seidel sweep is the solution of the triangular
        system ``(L + D + ridge·I) row_new = numerator - U row_old``
        (``L``/``U`` the strict triangles of the symmetric Hadamard-of-Grams
        matrix): this solves that system once and accepts the result
        whenever every entry lies inside the clipping box — in which case
        the sequential sweep would never have clipped and computes the same
        values — falling back to the reference loop otherwise (clipping
        engaged, non-positive diagonal, or a singular triangle).
        """
        eta = self._cd_eta
        lower_bound = self._cd_lower
        ridge = self._cd_ridge
        if ridge <= 0.0:
            # Without the ridge a zero Hadamard diagonal is possible, and the
            # reference loop's "skip this entry" semantics must apply.  (The
            # diagonal is a product of Gram diagonals, hence never negative.)
            if (np.diagonal(hadamard) <= 0.0).any():
                return self._coordinate_descent_reference(
                    old_row, numerator, hadamard
                )
        lower = self._lower_scratch
        if time_shared is None or time_shared.get("cd_triangles") is not hadamard:
            # Build T = tril(H) + ridge·I and the strict upper triangle in
            # the scratch buffers.  The (up to two) time rows of one event
            # run back to back with the same shared Hadamard matrix, so the
            # second row reuses the buffers as they stand.
            np.multiply(hadamard, self._lower_mask, out=lower)
            if ridge:
                self._lower_diagonal += ridge
            np.multiply(hadamard, self._strict_upper_mask, out=self._upper_scratch)
            if time_shared is not None:
                time_shared["cd_triangles"] = hadamard
        rhs = numerator - self._upper_scratch @ old_row
        # The LAPACK dgesv gufunc behind np.linalg.solve, called without
        # np.linalg's per-call checks.  The diagonal guard keeps singular
        # triangles out; a solve that still fails comes back NaN or inf,
        # which fails the box check like clipping does.
        candidate = solve1(lower, rhs, signature="dd->d")
        if candidate.max() <= eta and candidate.min() >= lower_bound:
            return candidate
        return self._coordinate_descent_reference(old_row, numerator, hadamard)

    def _coordinate_descent_reference(
        self,
        old_row: np.ndarray,
        numerator: np.ndarray,
        hadamard: np.ndarray,
    ) -> np.ndarray:
        """Entry-by-entry update with clipping — the seed implementation.

        Delegates to the shared pure sweep
        :func:`repro.core.rowmath.clipped_coordinate_descent` (bit-identical
        float operations to the historical inline loop).
        """
        eta = self._config.eta
        lower = 0.0 if self._config.nonnegative else -eta
        return clipped_coordinate_descent(
            old_row, numerator, hadamard, eta, lower, self._config.regularization
        )
