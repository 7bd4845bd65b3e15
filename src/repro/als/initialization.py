"""Factor-matrix initialisation for ALS."""

from __future__ import annotations

import numpy as np

from repro.exceptions import RankError
from repro.tensor.sparse import SparseTensor


def initialize_factors(
    tensor: SparseTensor, rank: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Return initial factor matrices for a CP decomposition of ``tensor``.

    Entries are i.i.d. uniform in ``[0, 1)`` (the paper's setting for
    non-negative count data), drawn from ``rng`` one mode after another.
    """
    if rank <= 0:
        raise RankError(f"rank must be positive, got {rank}")
    return [rng.random((length, rank)) for length in tensor.shape]
