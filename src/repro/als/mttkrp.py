"""Matricized-tensor times Khatri-Rao product (MTTKRP) for sparse tensors.

The MTTKRP ``X_(m) (KR_{n != m} A(n))`` is the workhorse of ALS (Eq. 4) and of
the SliceNStitch row updates (Eqs. 9 and 12).  For a sparse tensor it reduces
to a sum over non-zeros of the entry value times the Hadamard product of the
other modes' factor rows.

The array math itself lives in :mod:`repro.kernels` — these functions build
the COO / slice arrays and dispatch to a kernel backend.  Every function
takes an optional ``kernels`` argument (a
:class:`~repro.kernels.KernelBackend`); the model classes pass their
configured backend, and the default is the numpy reference, which performs
bit-for-bit the operations these functions historically inlined.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import ShapeError
from repro.kernels.api import KernelBackend
from repro.kernels.registry import numpy_backend
from repro.tensor.sparse import SparseTensor


def mttkrp(
    tensor: SparseTensor,
    factors: Sequence[np.ndarray],
    mode: int,
    kernels: KernelBackend | None = None,
) -> np.ndarray:
    """Return ``X_(mode) (KR_{n != mode} A(n))`` as an ``(N_mode, R)`` array."""
    if len(factors) != tensor.order:
        raise ShapeError(
            f"{len(factors)} factor matrices for an order-{tensor.order} tensor"
        )
    if not 0 <= mode < tensor.order:
        raise ShapeError(f"mode {mode} out of range for order {tensor.order}")
    indices, values = tensor.to_coo_arrays()
    return mttkrp_coo(
        indices, values, factors, mode, tensor.shape[mode], kernels=kernels
    )


def mttkrp_coo(
    indices: np.ndarray,
    values: np.ndarray,
    factors: Sequence[np.ndarray],
    mode: int,
    mode_size: int,
    kernels: KernelBackend | None = None,
) -> np.ndarray:
    """MTTKRP over prebuilt COO arrays (``(nnz, M)`` indices, ``(nnz,)`` values).

    Identical — operation for operation — to :func:`mttkrp` on the tensor
    those arrays came from, which gets them from the version-stamped
    ``SparseTensor.to_coo_arrays`` cache, so solving several modes against
    the same tensor state converts it once either way.
    """
    if kernels is None:
        kernels = numpy_backend()
    return kernels.mttkrp_coo(indices, values, factors, mode, mode_size)


def mttkrp_row(
    tensor: SparseTensor,
    factors: Sequence[np.ndarray],
    mode: int,
    index: int,
    extra_entries: Sequence[tuple[tuple[int, ...], float]] = (),
    kernels: KernelBackend | None = None,
) -> np.ndarray:
    """Single row ``X_(mode)(index, :) (KR_{n != mode} A(n))`` of the MTTKRP.

    Only the non-zeros whose ``mode``-th coordinate equals ``index`` are
    visited — this is the ``Omega(m)_{i_m}`` sum of Eqs. (12) and (21).
    ``extra_entries`` lets callers fold in the (at most two) entries of a
    delta ``ΔX`` that may not be stored in ``tensor`` yet; entries whose
    ``mode``-th coordinate differs from ``index`` are ignored.

    Both paths use the slice arrays the tensor builds in one pass; the
    delta entries are appended after the stored ones — the same entries in
    the same order the historical iterator path visited, so results are
    bit-identical.
    """
    if kernels is None:
        kernels = numpy_backend()
    index_array, value_array = tensor.mode_slice_arrays(mode, index)
    if extra_entries:
        kept = [
            (coordinate, value)
            for coordinate, value in extra_entries
            if coordinate[mode] == index
        ]
        if kept:
            extra_indices = np.array(
                [coordinate for coordinate, _value in kept], dtype=np.int64
            )
            extra_values = np.array(
                [value for _coordinate, value in kept], dtype=np.float64
            )
            if value_array.size:
                index_array = np.concatenate((index_array, extra_indices), axis=0)
                value_array = np.concatenate((value_array, extra_values))
            else:
                index_array, value_array = extra_indices, extra_values
    return kernels.mttkrp_rows(index_array, value_array, factors, mode)


def _other_rows_product(
    factors: Sequence[np.ndarray], mode: int, coordinate: Sequence[int]
) -> np.ndarray:
    """Hadamard product of the other modes' factor rows at ``coordinate``."""
    rank = factors[0].shape[1]
    product = np.ones(rank, dtype=np.float64)
    for other_mode, factor in enumerate(factors):
        if other_mode == mode:
            continue
        product *= factor[coordinate[other_mode], :]
    return product
