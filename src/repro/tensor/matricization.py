"""Mode-``m`` matricization (unfolding) of dense tensors.

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

import numpy as np

from repro.exceptions import ShapeError


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


def kr_order(order: int, mode: int) -> list[int]:
    """Mode ordering whose Khatri-Rao product matches :func:`unfold_dense`.

    With earlier modes varying fastest in the column index, the matching
    Khatri-Rao factor is ``A(M) ⊙ ... ⊙ A(m+1) ⊙ A(m-1) ⊙ ... ⊙ A(1)``, i.e.
    the other modes in decreasing order.
    """
    return [m for m in range(order - 1, -1, -1) if m != mode]
