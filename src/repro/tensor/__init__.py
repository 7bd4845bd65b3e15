"""Sparse-tensor substrate used by every other subsystem.

The classes and functions here are deliberately self-contained: the streaming
model (:mod:`repro.stream`), the SliceNStitch algorithms (:mod:`repro.core`)
and the baselines (:mod:`repro.baselines`) all operate on
:class:`~repro.tensor.sparse.SparseTensor` windows and
:class:`~repro.tensor.kruskal.KruskalTensor` factorizations.
"""

from repro.tensor.sparse import SparseTensor
from repro.tensor.kruskal import KruskalTensor
from repro.tensor.products import (
    hadamard,
    hadamard_all,
    khatri_rao,
    khatri_rao_all,
    outer,
)
from repro.tensor.matricization import (
    fold,
    unfold_dense,
)
from repro.tensor.random import (
    random_factors,
    random_kruskal,
    random_sparse_tensor,
)

__all__ = [
    "SparseTensor",
    "KruskalTensor",
    "hadamard",
    "hadamard_all",
    "khatri_rao",
    "khatri_rao_all",
    "outer",
    "fold",
    "unfold_dense",
    "random_factors",
    "random_kruskal",
    "random_sparse_tensor",
]
