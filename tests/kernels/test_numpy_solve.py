"""The numpy reference's regularized solve on systems it cannot factor.

``solve_regularized`` calls numpy's LAPACK ``dgesv`` gufuncs directly, so
an exactly singular system comes back NaN instead of raising
``LinAlgError``.  It must then take the Moore-Penrose fallback, bit for bit
``rhs @ pinv(matrix + ridge)``, without letting the gufunc's floating-point
warning escape, and it must never write into the matrices it is given.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.kernels.numpy_backend import solve_regularized


def singular_system(rank: int = 4) -> np.ndarray:
    """A PSD matrix with a zero row and column: LU meets an exact zero pivot."""
    half = np.random.default_rng(3).standard_normal((rank, rank))
    matrix = half @ half.T
    matrix[1, :] = 0.0
    matrix[:, 1] = 0.0
    return matrix


@pytest.mark.parametrize("batch", [0, 3], ids=["row", "rows"])
def test_exactly_singular_system_falls_back_to_pinv(batch):
    matrix = singular_system()
    rank = matrix.shape[0]
    rng = np.random.default_rng(11)
    rhs = rng.standard_normal(rank) if batch == 0 else rng.standard_normal((batch, rank))
    ridge = np.zeros((rank, rank))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plain = solve_regularized(matrix, rhs, None, None)
        ridged = solve_regularized(matrix, rhs, ridge, np.empty_like(matrix))
    assert plain.shape == rhs.shape
    np.testing.assert_array_equal(plain, rhs @ np.linalg.pinv(matrix))
    np.testing.assert_array_equal(ridged, plain)


def test_solve_leaves_its_inputs_alone():
    # Without a ridge the caller's matrix is the one solved, and callers
    # share it (the cached Hadamard of Grams) across rows.
    rng = np.random.default_rng(5)
    half = rng.standard_normal((5, 5))
    matrix = half @ half.T + 5 * np.eye(5)
    rows = rng.standard_normal((3, 5))
    for rhs in (rows[0], rows):
        matrix_before, rhs_before = matrix.copy(), rhs.copy()
        solution = solve_regularized(matrix, rhs, None, None)
        np.testing.assert_array_equal(matrix, matrix_before)
        np.testing.assert_array_equal(rhs, rhs_before)
        np.testing.assert_allclose(solution @ matrix, rhs, rtol=1e-12, atol=1e-12)
