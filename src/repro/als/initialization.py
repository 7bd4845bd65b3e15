"""Factor-matrix initialisation strategies for ALS and the streaming methods."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import ConfigurationError, RankError
from repro.tensor.matricization import unfold_sparse
from repro.tensor.sparse import SparseTensor

#: Supported initialisation strategy names.
STRATEGIES = ("random", "svd")


def initialize_factors(
    tensor: SparseTensor,
    rank: int,
    strategy: str = "random",
    rng: np.random.Generator | None = None,
) -> list[np.ndarray]:
    """Return initial factor matrices for a CP decomposition of ``tensor``.

    Parameters
    ----------
    tensor:
        The sparse tensor to be decomposed.
    rank:
        CP rank ``R``.
    strategy:
        ``"random"`` — i.i.d. uniform entries in ``[0, 1)`` (the paper's
        setting for non-negative count data);
        ``"svd"`` — leading left singular vectors of each mode unfolding,
        padded with random columns when the unfolding has fewer than ``R``
        informative singular vectors.  Needs SciPy, which is imported only
        here; without it this raises :class:`ConfigurationError`.
    rng:
        Random generator used for random entries and padding.
    """
    if rank <= 0:
        raise RankError(f"rank must be positive, got {rank}")
    if strategy not in STRATEGIES:
        raise ConfigurationError(
            f"unknown initialisation strategy {strategy!r}; expected one of {STRATEGIES}"
        )
    rng = np.random.default_rng() if rng is None else rng
    if strategy == "random":
        return [rng.random((length, rank)) for length in tensor.shape]
    return _svd_factors(tensor, rank, rng)


def _svd_factors(
    tensor: SparseTensor, rank: int, rng: np.random.Generator
) -> list[np.ndarray]:
    try:
        from scipy.sparse.linalg import ArpackError, svds
    except ImportError as error:
        raise ConfigurationError(
            "the 'svd' initialisation strategy needs scipy, which is not "
            "installed; install scipy or use the 'random' strategy"
        ) from error
    factors: list[np.ndarray] = []
    for mode, length in enumerate(tensor.shape):
        unfolding = unfold_sparse(tensor, mode)
        # svds needs 1 <= k < min(shape); fall back to random columns otherwise.
        max_k = min(unfolding.shape) - 1
        k = min(rank, max_k) if max_k >= 1 else 0
        factor = rng.random((length, rank))
        if k >= 1 and unfolding.nnz > 0:
            try:
                u, _, _ = svds(unfolding.asfptype(), k=k)
                factor[:, :k] = np.abs(u[:, ::-1])
            except (ArpackError, ValueError):
                pass  # keep the random columns; ALS will recover
        factors.append(factor)
    return factors


def pad_factor(
    factor: np.ndarray, n_rows: int, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Grow ``factor`` to ``n_rows`` rows by appending small random rows.

    Streaming baselines that append time-mode rows use this helper.
    """
    factor = np.asarray(factor, dtype=np.float64)
    if factor.shape[0] >= n_rows:
        return factor
    rng = np.random.default_rng() if rng is None else rng
    extra = 1e-3 * rng.random((n_rows - factor.shape[0], factor.shape[1]))
    return np.vstack([factor, extra])


def copy_factors(factors: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Deep-copy a list of factor matrices."""
    return [np.array(factor, dtype=np.float64, copy=True) for factor in factors]
