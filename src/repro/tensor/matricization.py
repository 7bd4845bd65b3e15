"""Mode-``m`` matricization (unfolding) of dense and sparse tensors.

We follow the Kolda & Bader convention used by the paper: the mode-``m``
unfolding ``X_(m)`` has shape ``(N_m, prod_{n != m} N_n)`` and the column
index of entry ``(i_1, ..., i_M)`` is

    j = sum_{n != m} i_n * prod_{k != m, k < n} N_k

i.e. the non-``m`` indices are ranked with the *earlier* modes varying
fastest.  With this convention the identity
``[[A(1), ..., A(M)]]_(m) = A(m) (KR_{n != m, reversed} A(n))'`` holds when the
Khatri-Rao product is taken over the other modes in reverse order, matching
:func:`repro.tensor.products.khatri_rao_all` applied to
``[A(M), ..., A(m+1), A(m-1), ..., A(1)]``.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import ShapeError
from repro.tensor.sparse import SparseTensor

if TYPE_CHECKING:  # pragma: no cover - typing only; SciPy loads on call
    import scipy.sparse as sp


def _column_strides(shape: Sequence[int], mode: int) -> list[int]:
    """Stride of each non-``mode`` index in the unfolded column coordinate."""
    strides = []
    running = 1
    for axis, length in enumerate(shape):
        if axis == mode:
            strides.append(0)
            continue
        strides.append(running)
        running *= length
    return strides


def column_of(coordinate: Sequence[int], shape: Sequence[int], mode: int) -> int:
    """Column index of ``coordinate`` in the mode-``mode`` unfolding."""
    strides = _column_strides(shape, mode)
    return int(sum(int(i) * s for i, s in zip(coordinate, strides)))


def unfold_dense(array: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` unfolding of a dense tensor."""
    array = np.asarray(array, dtype=np.float64)
    if not 0 <= mode < array.ndim:
        raise ShapeError(f"mode {mode} out of range for order-{array.ndim} tensor")
    # Move the unfolding mode to the front, then flatten the rest in
    # Fortran order so that earlier modes vary fastest (Kolda & Bader).
    moved = np.moveaxis(array, mode, 0)
    return moved.reshape(moved.shape[0], -1, order="F")


def fold(matrix: np.ndarray, mode: int, shape: Sequence[int]) -> np.ndarray:
    """Inverse of :func:`unfold_dense`."""
    shape = tuple(int(n) for n in shape)
    if not 0 <= mode < len(shape):
        raise ShapeError(f"mode {mode} out of range for shape {shape}")
    matrix = np.asarray(matrix, dtype=np.float64)
    rest = [length for axis, length in enumerate(shape) if axis != mode]
    moved = matrix.reshape([shape[mode]] + rest, order="F")
    return np.moveaxis(moved, 0, mode)


def unfold_sparse(tensor: SparseTensor, mode: int) -> sp.csr_matrix:
    """Mode-``mode`` unfolding of a sparse tensor as a SciPy CSR matrix.

    SciPy is imported here, after the mode check, so the package itself
    never loads it.
    """
    shape = tensor.shape
    if not 0 <= mode < tensor.order:
        raise ShapeError(f"mode {mode} out of range for order-{tensor.order} tensor")
    import scipy.sparse as sp

    n_rows = shape[mode]
    n_cols = 1
    for axis, length in enumerate(shape):
        if axis != mode:
            n_cols *= length
    if tensor.nnz == 0:
        return sp.csr_matrix((n_rows, n_cols), dtype=np.float64)
    strides = _column_strides(shape, mode)
    rows = np.empty(tensor.nnz, dtype=np.int64)
    cols = np.empty(tensor.nnz, dtype=np.int64)
    values = np.empty(tensor.nnz, dtype=np.float64)
    for position, (coordinate, value) in enumerate(tensor.items()):
        rows[position] = coordinate[mode]
        cols[position] = sum(i * s for i, s in zip(coordinate, strides))
        values[position] = value
    return sp.csr_matrix((values, (rows, cols)), shape=(n_rows, n_cols))


def kr_order(order: int, mode: int) -> list[int]:
    """Mode ordering whose Khatri-Rao product matches :func:`unfold_dense`.

    With earlier modes varying fastest in the column index, the matching
    Khatri-Rao factor is ``A(M) ⊙ ... ⊙ A(m+1) ⊙ A(m-1) ⊙ ... ⊙ A(1)``, i.e.
    the other modes in decreasing order.
    """
    return [m for m in range(order - 1, -1, -1) if m != mode]
