"""Kruskal (CP-factorized) tensors.

A rank-``R`` CP decomposition of an order-``M`` tensor is stored as ``M``
factor matrices ``A(m)`` of shape ``(N_m, R)`` plus optional column weights
``lambda`` (Eq. (1) of the paper).  All reductions needed by the evaluation
metrics — reconstruction values at sparse coordinates, the Frobenius norm of
the reconstruction, the inner product with a sparse tensor — are computed
without densifying, using the Gram-matrix identities standard in the CP
literature.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import RankError, ShapeError
from repro.tensor.products import hadamard_all, khatri_rao_all, gram
from repro.tensor.matricization import kr_order
from repro.tensor.sparse import SparseTensor


class KruskalTensor:
    """Factorized tensor ``[[lambda; A(1), ..., A(M)]]``.

    Parameters
    ----------
    factors:
        Sequence of ``M`` factor matrices, each ``(N_m, R)``.
    weights:
        Optional column weights of length ``R``.  ``None`` means all ones.
    """

    __slots__ = ("factors", "weights")

    def __init__(
        self,
        factors: Sequence[np.ndarray],
        weights: np.ndarray | None = None,
    ) -> None:
        if len(factors) == 0:
            raise ShapeError("a Kruskal tensor needs at least one factor matrix")
        factors = [np.array(f, dtype=np.float64, copy=True) for f in factors]
        rank = factors[0].shape[1] if factors[0].ndim == 2 else -1
        for index, factor in enumerate(factors):
            if factor.ndim != 2:
                raise ShapeError(f"factor {index} is not a matrix")
            if factor.shape[1] != rank:
                raise RankError(
                    f"factor {index} has {factor.shape[1]} columns, expected {rank}"
                )
        if rank <= 0:
            raise RankError(f"rank must be positive, got {rank}")
        if weights is None:
            weights = np.ones(rank, dtype=np.float64)
        else:
            weights = np.array(weights, dtype=np.float64, copy=True)
            if weights.shape != (rank,):
                raise RankError(
                    f"weights must have shape ({rank},), got {weights.shape}"
                )
        self.factors: list[np.ndarray] = factors
        self.weights: np.ndarray = weights

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def order(self) -> int:
        """Number of modes."""
        return len(self.factors)

    @property
    def rank(self) -> int:
        """CP rank ``R``."""
        return self.factors[0].shape[1]

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the reconstructed tensor."""
        return tuple(factor.shape[0] for factor in self.factors)

    @property
    def n_parameters(self) -> int:
        """Number of parameters: entries of all factor matrices (Fig. 1d)."""
        return int(sum(factor.size for factor in self.factors))

    def copy(self) -> "KruskalTensor":
        """Deep copy of factors and weights."""
        return KruskalTensor([f.copy() for f in self.factors], self.weights.copy())

    # ------------------------------------------------------------------
    # Reconstruction
    # ------------------------------------------------------------------
    def value_at(self, coordinate: Sequence[int]) -> float:
        """Reconstructed value at a single coordinate."""
        if len(coordinate) != self.order:
            raise ShapeError(
                f"coordinate of length {len(coordinate)} for order-{self.order} tensor"
            )
        product = self.weights.copy()
        for factor, index in zip(self.factors, coordinate):
            product = product * factor[int(index), :]
        return float(product.sum())

    def values_at(self, coordinates: np.ndarray) -> np.ndarray:
        """Reconstructed values at an ``(n, M)`` array of coordinates."""
        coordinates = np.asarray(coordinates, dtype=np.int64)
        if coordinates.size == 0:
            return np.zeros(0, dtype=np.float64)
        if coordinates.ndim != 2 or coordinates.shape[1] != self.order:
            raise ShapeError(
                f"expected an (n, {self.order}) coordinate array, got {coordinates.shape}"
            )
        product = np.broadcast_to(
            self.weights, (coordinates.shape[0], self.rank)
        ).copy()
        for mode, factor in enumerate(self.factors):
            product *= factor[coordinates[:, mode], :]
        return product.sum(axis=1)

    def to_dense(self) -> np.ndarray:
        """Materialise the full reconstruction (tests / tiny tensors only)."""
        order = self.order
        weighted = self.factors[0] * self.weights[None, :]
        if order == 1:
            return weighted.sum(axis=1)
        kr = khatri_rao_all([self.factors[m] for m in kr_order(order, 0)])
        unfolded = weighted @ kr.T
        rest = [self.shape[m] for m in range(order) if m != 0]
        moved = unfolded.reshape([self.shape[0]] + rest, order="F")
        return moved

    # ------------------------------------------------------------------
    # Reductions used by the fitness metric
    # ------------------------------------------------------------------
    def squared_norm(self) -> float:
        """``||X_hat||_F^2`` via the Gram-matrix identity.

        ``||[[lambda; A(1..M)]]||^2 = lambda' (*_m A(m)'A(m)) lambda``.
        """
        grams = hadamard_all([gram(factor) for factor in self.factors])
        return float(self.weights @ grams @ self.weights)

    def norm(self) -> float:
        """``||X_hat||_F``."""
        return float(np.sqrt(max(self.squared_norm(), 0.0)))

    def inner_with_sparse(self, tensor: SparseTensor) -> float:
        """Inner product ``<X_hat, X>`` with a sparse tensor of the same shape."""
        if tensor.shape != self.shape:
            raise ShapeError(
                f"shape mismatch: Kruskal {self.shape} vs sparse {tensor.shape}"
            )
        indices, values = tensor.to_coo_arrays()
        if values.size == 0:
            return 0.0
        return float(np.dot(self.values_at(indices), values))

    def residual_squared_norm(
        self, tensor: SparseTensor, inner: float | None = None
    ) -> float:
        """``||X - X_hat||_F^2`` for sparse ``X`` without densifying.

        ``inner`` is ``<X_hat, X>`` when the caller already holds it (an
        ALS sweep computes it from the factor rows it has gathered);
        ``None`` computes it with :meth:`inner_with_sparse`.
        """
        if inner is None:
            inner = self.inner_with_sparse(tensor)
        return max(tensor.squared_norm() - 2.0 * inner + self.squared_norm(), 0.0)

    def fitness(self, tensor: SparseTensor, inner: float | None = None) -> float:
        """Fitness ``1 - ||X - X_hat||_F / ||X||_F`` (Section VI-A).

        ``inner`` is passed on to :meth:`residual_squared_norm`.
        """
        denominator = tensor.norm()
        if denominator == 0.0:
            return 1.0 if self.squared_norm() == 0.0 else float("-inf")
        return 1.0 - np.sqrt(self.residual_squared_norm(tensor, inner)) / denominator

    # ------------------------------------------------------------------
    # Normalization
    # ------------------------------------------------------------------
    def normalize(self) -> "KruskalTensor":
        """Return a copy with unit-norm factor columns and weights absorbing scale."""
        factors = []
        weights = self.weights.copy()
        for factor in self.factors:
            norms = np.linalg.norm(factor, axis=0)
            safe = np.where(norms > 0.0, norms, 1.0)
            factors.append(factor / safe)
            weights = weights * norms
        return KruskalTensor(factors, weights)

    def absorb_weights(self) -> "KruskalTensor":
        """Return a copy with all-ones weights, scale folded into the first factor."""
        factors = [f.copy() for f in self.factors]
        factors[0] = factors[0] * self.weights[None, :]
        return KruskalTensor(factors, np.ones(self.rank, dtype=np.float64))
