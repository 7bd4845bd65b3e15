"""The numpy regularized solve: singular systems, inputs, batched rows.

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


def test_batched_rows_match_row_by_row():
    # One (B, R) solve goes through the multi-RHS gufunc, one row through
    # solve1; they may differ in the last bits, never by more.
    rng = np.random.default_rng(7)
    rank, batch = 5, 3
    half = rng.standard_normal((rank, rank))
    matrix = half @ half.T + rank * np.eye(rank)
    ridge = 1e-9 * np.eye(rank)
    rhs = rng.standard_normal((batch, rank))
    batched = solve_regularized(matrix, rhs, ridge, np.empty_like(matrix))
    for row in range(batch):
        single = solve_regularized(matrix, rhs[row], ridge, np.empty_like(matrix))
        np.testing.assert_allclose(batched[row], single, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("batch", [0, 3], ids=["row", "rows"])
def test_scratch_buffer_is_optional(batch):
    # Without a scratch buffer the ridged system goes into a fresh array:
    # the same bits, and the caller's matrix still untouched.
    rng = np.random.default_rng(13)
    half = rng.standard_normal((4, 4))
    matrix = half @ half.T
    matrix_before = matrix.copy()
    ridge = 1e-3 * np.eye(4)
    rhs = rng.standard_normal(4) if batch == 0 else rng.standard_normal((batch, 4))
    allocated = solve_regularized(matrix, rhs, ridge, None)
    scratched = solve_regularized(matrix, rhs, ridge, np.empty_like(matrix))
    assert allocated.tobytes() == scratched.tobytes()
    np.testing.assert_array_equal(matrix, matrix_before)
