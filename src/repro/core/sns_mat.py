"""SNS_MAT — the naive extension of ALS to the continuous model (Algorithm 2).

On every window event SNS_MAT runs a single full ALS sweep over the updated
window, starting from the maintained (column-normalised) factor matrices,
which are strong warm starts.  Each mode solve re-normalises the updated
factor and records the column norms in ``λ``, exactly as in Algorithm 2.  It
is the most accurate and the slowest member of the family (Theorem 3).
"""

from __future__ import annotations

import numpy as np

from repro.als.mttkrp import mttkrp
from repro.core.base import ContinuousCPD, Entries, SNSConfig
from repro.exceptions import ConfigurationError
from repro.core.normalization import combine_weights, normalize_columns
from repro.tensor.kruskal import KruskalTensor


class SNSMat(ContinuousCPD):
    """One warm-started ALS sweep per event, with column normalisation."""

    name = "sns_mat"

    def __init__(self, config: SNSConfig) -> None:
        super().__init__(config)
        self._weights = np.ones(config.rank, dtype=np.float64)

    def _post_initialize(self) -> None:
        # Normalise the initial factors so the maintained state matches the
        # invariant preserved by each per-event sweep: unit-norm columns in
        # every factor, overall scale in the weight vector λ.
        weight_vectors = []
        for mode, factor in enumerate(self._factors):
            normalized, norms = normalize_columns(factor)
            self._factors[mode] = normalized
            self._grams[mode] = normalized.T @ normalized
            weight_vectors.append(norms)
        self._weights = combine_weights(weight_vectors)

    def _aux_state(self):
        return {"weights": self._weights.copy()}

    def _load_aux_state(self, aux) -> None:
        weights = aux.get("weights")
        if weights is None:
            raise ConfigurationError("SNSMat checkpoint state is missing 'weights'")
        weights = np.array(weights, dtype=np.float64, copy=True)
        if weights.shape != (self.rank,):
            raise ConfigurationError(
                f"weights of shape {weights.shape} do not match rank {self.rank}"
            )
        self._weights = weights

    def _post_restore(self) -> None:
        # _post_initialize would re-normalise the already-normalised restored
        # factors and overwrite the saved λ; the checkpointed state is adopted
        # verbatim instead (weights arrive via _load_aux_state).
        pass

    def _prepare_relaxed(self) -> None:
        # The relaxed batch update works with unweighted factor rows
        # (independent least-squares solves, as in SNS_VEC); SNS_MAT's
        # per-sweep column normalisation is inherently global and is the
        # relaxation this variant accepts.  Absorb λ into the first factor
        # once on entering relaxed mode — the decomposition it represents is
        # unchanged — and keep λ ≡ 1 thereafter.  Restoring a relaxed
        # checkpoint re-runs this on already-absorbed factors with λ = 1, a
        # no-op, so restore adopts the saved state verbatim.
        self._factors[0] *= self._weights[None, :]
        self._grams[0] = self._factors[0].T @ self._factors[0]
        self._weights = np.ones(self.rank, dtype=np.float64)

    @property
    def weights(self) -> np.ndarray:
        """Column weights ``λ`` produced by the latest normalisation."""
        return self._weights.copy()

    @property
    def decomposition(self) -> KruskalTensor:
        """Current factorization ``[[λ; Ā(1), ..., Ā(M)]]``."""
        self._require_initialized()
        return KruskalTensor(
            [factor.copy() for factor in self._factors], self._weights.copy()
        )

    # ------------------------------------------------------------------
    # Update rule (Algorithm 2)
    # ------------------------------------------------------------------
    def _update(self, entries: Entries, categorical_indices: tuple[int, ...]) -> None:
        tensor = self.window.tensor  # already equals X + ΔX
        for mode in range(self.order):
            numerator = mttkrp(tensor, self._factors, mode, kernels=self._kernels)
            hadamard = self._hadamard_of_grams(mode)
            updated = numerator @ self._pinv(hadamard)  # Eq. (4)
            normalized, norms = normalize_columns(updated)
            self._factors[mode] = normalized
            self._weights = norms
            self._grams[mode] = normalized.T @ normalized
