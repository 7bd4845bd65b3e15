"""Numba JIT backend for the kernel API.

Design notes:

* The module always imports — with or without numba.  When numba is
  importable, the kernel bodies below are compiled ``nopython`` at first
  call (lazy signatures, ``cache=True`` so recompiles amortise across
  processes); when it is not, they stay plain Python and :func:`load`
  raises :class:`~repro.exceptions.KernelUnavailableError` so the
  registry can degrade to numpy.  ``NUMBA_DISABLE_JIT`` counts as
  unavailable: interpreted kernel loops would be far *slower* than the
  vectorised numpy reference, so falling back is strictly better.
* ``fastmath`` stays off.  The backend promises determinism (same input,
  same bits, every call) and ≤1e-12 agreement with the numpy reference;
  reassociating reductions would break the former silently.
* Factor matrices arrive as a homogeneous tuple of C-contiguous
  ``(N_m, R)`` float64 arrays (a ``UniTuple``, which nopython code can
  index with a runtime mode number).  Each tensor order compiles its own
  specialization — streams have one order for their lifetime, so this
  costs one compile per kernel per process.
* The kernel bodies use explicit loops rather than numpy calls: the
  hot-path shapes are tiny (θ ≈ 20 samples, R ≈ 16–20, ≤2 entries per
  event), where numpy's per-call dispatch dominates and LLVM's scalar
  code wins.  No allocation happens inside the per-entry loops.
* The regularized solve hand-rolls the Cholesky factorization and
  triangular solves (nopython code cannot catch LAPACK errors), returning
  a success flag; the wrapper hands non-definite systems to the numpy
  reference, so they get its answer — pinv fallback and all — bit for bit.
"""

from __future__ import annotations

import os
from collections.abc import Sequence

import numpy as np

from repro.exceptions import KernelUnavailableError
from repro.kernels import numpy_backend
from repro.kernels.api import KernelBackend

try:
    from numba import njit as _njit

    _IMPORT_ERROR: str | None = None
except ImportError as error:  # pragma: no cover - depends on environment
    _njit = None
    _IMPORT_ERROR = str(error)


def _jit(function):
    """Compile ``function`` nopython when numba is present, else keep it plain."""
    if _njit is None:
        return function
    return _njit(cache=True, fastmath=False)(function)


def jit_disabled() -> bool:
    """True when ``NUMBA_DISABLE_JIT`` asks numba to interpret instead of compile."""
    return os.environ.get("NUMBA_DISABLE_JIT", "0").strip() not in ("", "0")


def _factor_tuple(factors: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """Factors as the homogeneous contiguous-float64 tuple the kernels take."""
    return tuple(
        np.ascontiguousarray(factor, dtype=np.float64) for factor in factors
    )


# ----------------------------------------------------------------------
# nopython kernel bodies
# ----------------------------------------------------------------------
@_jit
def _mttkrp_coo_impl(indices, values, factors, mode, mode_size, rank):
    order = len(factors)
    result = np.zeros((mode_size, rank), dtype=np.float64)
    for entry in range(values.shape[0]):
        row = indices[entry, mode]
        value = values[entry]
        for component in range(rank):
            product = value
            for other_mode in range(order):
                if other_mode == mode:
                    continue
                product *= factors[other_mode][indices[entry, other_mode], component]
            result[row, component] += product
    return result


@_jit
def _mttkrp_rows_impl(indices, values, factors, mode, rank):
    order = len(factors)
    result = np.zeros(rank, dtype=np.float64)
    for entry in range(values.shape[0]):
        value = values[entry]
        for component in range(rank):
            product = value
            for other_mode in range(order):
                if other_mode == mode:
                    continue
                product *= factors[other_mode][indices[entry, other_mode], component]
            result[component] += product
    return result


@_jit
def _sampled_residual_impl(
    samples,
    observed,
    factors,
    mode,
    prev_row,
    override_modes,
    override_indices,
    override_rows,
    rank,
):
    order = len(factors)
    n_samples = samples.shape[0]
    n_overrides = override_modes.shape[0]
    result = np.zeros(rank, dtype=np.float64)
    current = np.empty(rank, dtype=np.float64)
    for sample in range(n_samples):
        reconstructed = 0.0
        for component in range(rank):
            product_current = 1.0
            product_previous = 1.0
            for other_mode in range(order):
                if other_mode == mode:
                    continue
                index = samples[sample, other_mode]
                value = factors[other_mode][index, component]
                product_current *= value
                # Later overrides for the same row win, matching the
                # in-order mask assignments of the numpy reference.
                previous_value = value
                for position in range(n_overrides):
                    if (
                        override_modes[position] == other_mode
                        and override_indices[position] == index
                    ):
                        previous_value = override_rows[position, component]
                product_previous *= previous_value
            current[component] = product_current
            reconstructed += product_previous * prev_row[component]
        residual = observed[sample] - reconstructed
        for component in range(rank):
            result[component] += residual * current[component]
    return result


@_jit
def _reconstruct_coords_impl(
    coordinates, factors, override_modes, override_indices, override_rows, rank
):
    order = len(factors)
    n_coordinates = coordinates.shape[0]
    n_overrides = override_modes.shape[0]
    result = np.empty(n_coordinates, dtype=np.float64)
    for coordinate in range(n_coordinates):
        total = 0.0
        for component in range(rank):
            product = 1.0
            for mode in range(order):
                index = coordinates[coordinate, mode]
                value = factors[mode][index, component]
                for position in range(n_overrides):
                    if (
                        override_modes[position] == mode
                        and override_indices[position] == index
                    ):
                        value = override_rows[position, component]
                product *= value
            total += product
        result[coordinate] = total
    return result


@_jit
def _cholesky_solve_impl(matrix, ridge, rhs):
    """Solve ``(matrix + ridge*I) x_b = rhs[b]`` for every row of ``rhs``.

    Returns ``(ok, solution)``; ``ok`` is False when the regularized matrix
    is not (numerically) positive definite, in which case ``solution`` is
    meaningless and the caller must fall back.
    """
    size = matrix.shape[0]
    lower = np.empty((size, size), dtype=np.float64)
    for i in range(size):
        for j in range(i + 1):
            accumulator = matrix[i, j]
            if i == j:
                accumulator += ridge
            for k in range(j):
                accumulator -= lower[i, k] * lower[j, k]
            if i == j:
                if accumulator <= 0.0:
                    return False, rhs
                lower[i, i] = np.sqrt(accumulator)
            else:
                lower[i, j] = accumulator / lower[j, j]
    solution = np.empty_like(rhs)
    for b in range(rhs.shape[0]):
        for i in range(size):
            accumulator = rhs[b, i]
            for k in range(i):
                accumulator -= lower[i, k] * solution[b, k]
            solution[b, i] = accumulator / lower[i, i]
        for i in range(size - 1, -1, -1):
            accumulator = solution[b, i]
            for k in range(i + 1, size):
                accumulator -= lower[k, i] * solution[b, k]
            solution[b, i] = accumulator / lower[i, i]
    return True, solution


# ----------------------------------------------------------------------
# Python wrappers (tuple conversion, shape normalisation, fallbacks)
# ----------------------------------------------------------------------
def mttkrp_coo(indices, values, factors, mode, mode_size):
    return _mttkrp_coo_impl(
        np.ascontiguousarray(indices, dtype=np.int64),
        np.ascontiguousarray(values, dtype=np.float64),
        _factor_tuple(factors),
        mode,
        mode_size,
        factors[0].shape[1],
    )


def mttkrp_rows(indices, values, factors, mode):
    if values.size == 0:
        return np.zeros(factors[0].shape[1], dtype=np.float64)
    return _mttkrp_rows_impl(
        np.ascontiguousarray(indices, dtype=np.int64),
        np.ascontiguousarray(values, dtype=np.float64),
        _factor_tuple(factors),
        mode,
        factors[0].shape[1],
    )


def sampled_residual(
    samples,
    observed,
    factors,
    mode,
    prev_row,
    override_modes,
    override_indices,
    override_rows,
):
    rank = factors[0].shape[1]
    if not samples.shape[0]:
        return np.zeros(rank, dtype=np.float64)
    return _sampled_residual_impl(
        np.ascontiguousarray(samples, dtype=np.int64),
        np.ascontiguousarray(observed, dtype=np.float64),
        _factor_tuple(factors),
        mode,
        np.ascontiguousarray(prev_row, dtype=np.float64),
        np.ascontiguousarray(override_modes, dtype=np.int64),
        np.ascontiguousarray(override_indices, dtype=np.int64),
        np.ascontiguousarray(override_rows, dtype=np.float64),
        rank,
    )


def reconstruct_coords(
    coordinates, factors, override_modes, override_indices, override_rows
):
    coordinate_array = np.ascontiguousarray(coordinates, dtype=np.int64)
    if coordinate_array.ndim != 2:
        coordinate_array = coordinate_array.reshape(-1, len(factors))
    rank = factors[0].shape[1]
    if coordinate_array.shape[0] == 0:
        return np.zeros(0, dtype=np.float64)
    return _reconstruct_coords_impl(
        coordinate_array,
        _factor_tuple(factors),
        np.ascontiguousarray(override_modes, dtype=np.int64),
        np.ascontiguousarray(override_indices, dtype=np.int64),
        np.ascontiguousarray(override_rows, dtype=np.float64),
        rank,
    )


def solve_regularized(matrix, rhs, ridge_matrix, scratch=None):
    ridge = float(ridge_matrix[0, 0]) if ridge_matrix is not None else 0.0
    rhs_array = np.ascontiguousarray(rhs, dtype=np.float64)
    batched = rhs_array.ndim == 2
    rhs_2d = rhs_array if batched else rhs_array.reshape(1, -1)
    ok, solution = _cholesky_solve_impl(
        np.ascontiguousarray(matrix, dtype=np.float64), ridge, rhs_2d
    )
    if not ok:
        # Non-definite system: defer to the reference implementation so the
        # pinv fallback semantics (and its numerics) match numpy exactly.
        return numpy_backend.solve_regularized(matrix, rhs, ridge_matrix, scratch)
    return solution if batched else solution[0]


def load() -> KernelBackend:
    """Build the numba backend, or raise :class:`KernelUnavailableError`."""
    if _njit is None:
        raise KernelUnavailableError(
            f"numba backend requested but numba is not importable "
            f"({_IMPORT_ERROR})"
        )
    if jit_disabled():
        raise KernelUnavailableError(
            "numba backend requested but NUMBA_DISABLE_JIT is set; interpreted "
            "kernel loops would be slower than the numpy reference"
        )
    return KernelBackend(
        name="numba",
        mttkrp_coo=mttkrp_coo,
        mttkrp_rows=mttkrp_rows,
        sampled_residual=sampled_residual,
        reconstruct_coords=reconstruct_coords,
        solve_regularized=solve_regularized,
        description="numba nopython JIT (compiled lazily, cache=True)",
    )
