"""Random factor matrices and random sparse tensors.

All functions take an explicit :class:`numpy.random.Generator` so that tests,
experiments, and benchmarks are reproducible with fixed seeds.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import RankError, ShapeError
from repro.tensor.kruskal import KruskalTensor
from repro.tensor.sparse import SparseTensor


def _require_rng(rng: np.random.Generator | None) -> np.random.Generator:
    return np.random.default_rng() if rng is None else rng


def random_factors(
    shape: Sequence[int],
    rank: int,
    rng: np.random.Generator | None = None,
    scale: float = 1.0,
    nonnegative: bool = True,
) -> list[np.ndarray]:
    """Random factor matrices for a tensor of the given shape.

    Non-negative uniform factors are the default because the streams modeled
    by the paper (traffic counts, crime counts, purchases) are non-negative.
    """
    if rank <= 0:
        raise RankError(f"rank must be positive, got {rank}")
    shape = tuple(int(n) for n in shape)
    if any(n <= 0 for n in shape):
        raise ShapeError(f"all mode lengths must be positive, got {shape}")
    rng = _require_rng(rng)
    factors = []
    for length in shape:
        if nonnegative:
            factors.append(scale * rng.random((length, rank)))
        else:
            factors.append(scale * rng.standard_normal((length, rank)))
    return factors


def random_kruskal(
    shape: Sequence[int],
    rank: int,
    rng: np.random.Generator | None = None,
    scale: float = 1.0,
    nonnegative: bool = True,
) -> KruskalTensor:
    """Random Kruskal tensor with unit weights."""
    return KruskalTensor(
        random_factors(shape, rank, rng=rng, scale=scale, nonnegative=nonnegative)
    )


def random_sparse_tensor(
    shape: Sequence[int],
    density: float,
    rng: np.random.Generator | None = None,
    value_low: float = 0.5,
    value_high: float = 5.0,
) -> SparseTensor:
    """Random sparse tensor with roughly ``density * prod(shape)`` non-zeros.

    Coordinates are drawn uniformly (with replacement, then deduplicated), so
    the realised density can be slightly below the request for dense settings.
    """
    if not 0.0 <= density <= 1.0:
        raise ShapeError(f"density must lie in [0, 1], got {density}")
    shape = tuple(shape)
    rng = _require_rng(rng)
    tensor = SparseTensor(shape)
    total = int(np.prod(shape, dtype=np.int64))
    target = int(round(density * total))
    if target == 0:
        return tensor
    coordinates = np.column_stack(
        [rng.integers(0, length, size=target) for length in shape]
    )
    values = rng.uniform(value_low, value_high, size=target)
    for coordinate, value in zip(coordinates, values):
        tensor.set(tuple(int(i) for i in coordinate), float(value))
    return tensor


def random_low_rank_sparse_tensor(
    shape: Sequence[int],
    rank: int,
    density: float,
    rng: np.random.Generator | None = None,
    noise: float = 0.1,
) -> tuple[SparseTensor, KruskalTensor]:
    """Sparse tensor whose non-zeros follow a low-rank model plus noise.

    Useful for tests that check ALS recovers most of the signal: the non-zero
    positions are random, but the values are samples of a ground-truth rank-R
    Kruskal tensor perturbed by Gaussian noise.
    """
    rng = _require_rng(rng)
    truth = random_kruskal(shape, rank, rng=rng)
    tensor = SparseTensor(shape)
    total = int(np.prod(shape, dtype=np.int64))
    target = max(int(round(density * total)), 1)
    coordinates = np.column_stack(
        [rng.integers(0, length, size=target) for length in shape]
    )
    base_values = truth.values_at(coordinates)
    noise_values = noise * rng.standard_normal(target)
    for coordinate, value in zip(coordinates, base_values + noise_values):
        tensor.set(tuple(int(i) for i in coordinate), float(value))
    return tensor, truth
