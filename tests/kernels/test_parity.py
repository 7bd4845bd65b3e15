"""Property-based parity: every backend agrees with the numpy reference.

The kernel API contract (:mod:`repro.kernels.api`) demands that every
backend match the numpy reference to within ``1e-12`` on well-scaled
inputs, over all five kernels.  Hypothesis drives the shapes and a seed;
the arrays themselves come from a seeded generator so cases stay cheap
and reproducible.

The candidates always include the :mod:`repro.kernels.numba_backend`
module functions: with numba installed they are the JIT-compiled backend,
without it they run as plain Python over the very same bodies — so the
numerical logic is exercised on every environment, compiled or not.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels import numba_backend
from repro.kernels.api import KernelBackend, empty_overrides
from repro.kernels.registry import available_backends, load_backend

REFERENCE = importlib.import_module("repro.kernels.numpy_backend").load()

TOLERANCE = dict(rtol=1e-12, atol=1e-12)


def _candidate_backends() -> list[KernelBackend]:
    suffix = "" if numba_backend._njit is not None else " (pure python)"
    candidates = [
        KernelBackend(
            name=f"numba-module{suffix}",
            mttkrp_coo=numba_backend.mttkrp_coo,
            mttkrp_rows=numba_backend.mttkrp_rows,
            sampled_residual=numba_backend.sampled_residual,
            reconstruct_coords=numba_backend.reconstruct_coords,
            solve_regularized=numba_backend.solve_regularized,
        )
    ]
    for name in available_backends():
        if name != "numpy":
            candidates.append(load_backend(name))
    return candidates


CANDIDATES = _candidate_backends()

# Parametrize (not a fixture): hypothesis health-checks function-scoped
# fixtures inside @given, while parametrized arguments are fine.
candidates = pytest.mark.parametrize(
    "candidate", CANDIDATES, ids=[c.name for c in CANDIDATES]
)


@st.composite
def tensor_cases(draw):
    """(shape, rank, mode, rng) for the gather-style kernels."""
    order = draw(st.integers(2, 4))
    shape = tuple(draw(st.integers(1, 5)) for _ in range(order))
    rank = draw(st.integers(1, 4))
    mode = draw(st.integers(0, order - 1))
    seed = draw(st.integers(0, 2**31 - 1))
    return shape, rank, mode, np.random.default_rng(seed)


def _random_factors(shape, rank, rng):
    return [rng.standard_normal((n, rank)) for n in shape]


def _random_indices(shape, count, rng):
    return np.column_stack(
        [rng.integers(0, n, size=count) for n in shape]
    ).astype(np.int64)


def _random_overrides(shape, rank, rng, *, skip_mode=None, count=3):
    order = len(shape)
    allowed = [m for m in range(order) if m != skip_mode]
    n = int(rng.integers(0, count + 1)) if allowed else 0
    if n == 0:
        return empty_overrides(rank)
    modes = rng.choice(allowed, size=n).astype(np.int64)
    indices = np.array(
        [rng.integers(0, shape[m]) for m in modes], dtype=np.int64
    )
    rows = rng.standard_normal((n, rank))
    return modes, indices, rows


@candidates
class TestMttkrpParity:
    @settings(max_examples=40, deadline=None)
    @given(case=tensor_cases(), nnz=st.integers(0, 25))
    def test_mttkrp_coo(self, candidate, case, nnz):
        shape, rank, mode, rng = case
        factors = _random_factors(shape, rank, rng)
        indices = _random_indices(shape, nnz, rng)
        values = rng.standard_normal(nnz)
        expected = REFERENCE.mttkrp_coo(indices, values, factors, mode, shape[mode])
        actual = candidate.mttkrp_coo(indices, values, factors, mode, shape[mode])
        np.testing.assert_allclose(actual, expected, **TOLERANCE)

    @settings(max_examples=40, deadline=None)
    @given(case=tensor_cases(), nnz=st.integers(0, 25))
    def test_mttkrp_rows(self, candidate, case, nnz):
        shape, rank, mode, rng = case
        factors = _random_factors(shape, rank, rng)
        indices = _random_indices(shape, nnz, rng)
        # Slice-array contract: every entry shares the mode-th coordinate.
        indices[:, mode] = int(rng.integers(0, shape[mode]))
        values = rng.standard_normal(nnz)
        expected = REFERENCE.mttkrp_rows(indices, values, factors, mode)
        actual = candidate.mttkrp_rows(indices, values, factors, mode)
        np.testing.assert_allclose(actual, expected, **TOLERANCE)


@candidates
class TestSampledResidualParity:
    @settings(max_examples=40, deadline=None)
    @given(case=tensor_cases(), theta=st.integers(0, 20))
    def test_sampled_residual(self, candidate, case, theta):
        shape, rank, mode, rng = case
        factors = _random_factors(shape, rank, rng)
        samples = _random_indices(shape, theta, rng)
        observed = rng.standard_normal(theta)
        prev_row = rng.standard_normal(rank)
        modes, indices, rows = _random_overrides(shape, rank, rng, skip_mode=mode)
        expected = REFERENCE.sampled_residual(
            samples, observed, factors, mode, prev_row, modes, indices, rows
        )
        actual = candidate.sampled_residual(
            samples, observed, factors, mode, prev_row, modes, indices, rows
        )
        np.testing.assert_allclose(actual, expected, **TOLERANCE)


@candidates
class TestReconstructParity:
    @settings(max_examples=40, deadline=None)
    @given(case=tensor_cases(), count=st.integers(0, 15))
    def test_reconstruct_coords(self, candidate, case, count):
        shape, rank, _mode, rng = case
        factors = _random_factors(shape, rank, rng)
        coordinates = _random_indices(shape, count, rng)
        modes, indices, rows = _random_overrides(shape, rank, rng)
        expected = REFERENCE.reconstruct_coords(
            coordinates, factors, modes, indices, rows
        )
        actual = candidate.reconstruct_coords(
            coordinates, factors, modes, indices, rows
        )
        np.testing.assert_allclose(actual, expected, **TOLERANCE)


@candidates
class TestSolveParity:
    @settings(max_examples=40, deadline=None)
    @given(
        rank=st.integers(1, 6),
        batch=st.integers(0, 4),  # 0 = the historical 1-D rhs shape
        regularized=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_well_conditioned_solve(self, candidate, rank, batch, regularized, seed):
        rng = np.random.default_rng(seed)
        half = rng.standard_normal((rank, rank))
        # Adding rank * I keeps the condition number small so the two
        # factorizations (numpy's LAPACK dgesv vs the hand-rolled Cholesky)
        # agree well inside the 1e-12 contract.
        matrix = half @ half.T + rank * np.eye(rank)
        ridge = 1e-6 * np.eye(rank) if regularized else None
        rhs = (
            rng.standard_normal(rank)
            if batch == 0
            else rng.standard_normal((batch, rank))
        )
        expected = REFERENCE.solve_regularized(
            matrix, rhs, ridge, np.empty_like(matrix)
        )
        actual = candidate.solve_regularized(
            matrix, rhs, ridge, np.empty_like(matrix)
        )
        assert actual.shape == expected.shape
        np.testing.assert_allclose(actual, expected, **TOLERANCE)

    def test_singular_matrix_matches_reference_exactly(self, candidate):
        # Non-definite systems must take the same pinv path as numpy — the
        # candidate defers to the reference, so outputs are bit-identical.
        rank = 4
        matrix = np.zeros((rank, rank))
        rhs = np.arange(1.0, rank + 1.0)
        expected = REFERENCE.solve_regularized(matrix, rhs, None, None)
        actual = candidate.solve_regularized(matrix, rhs, None, None)
        np.testing.assert_array_equal(actual, expected)

    def test_batched_rows_match_row_by_row(self, candidate):
        rng = np.random.default_rng(7)
        rank, batch = 5, 3
        half = rng.standard_normal((rank, rank))
        matrix = half @ half.T + rank * np.eye(rank)
        ridge = 1e-9 * np.eye(rank)
        rhs = rng.standard_normal((batch, rank))
        batched = candidate.solve_regularized(matrix, rhs, ridge, np.empty_like(matrix))
        for row in range(batch):
            single = candidate.solve_regularized(
                matrix, rhs[row], ridge, np.empty_like(matrix)
            )
            np.testing.assert_allclose(batched[row], single, **TOLERANCE)
