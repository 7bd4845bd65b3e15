"""Property-based parity: the numpy kernels against their definitions.

Each of the five kernels (:mod:`repro.kernels.api`) is checked against a
direct, slow statement of what it computes: MTTKRP as the dense
mode-``n`` unfolding times the Khatri-Rao product of the other factors
(Eq. 4), reconstruction as the dense CP tensor read at the coordinates,
the sampled residual as ``(x - x̃) @ (Hadamard of other current rows)``
with the start-of-event rows patched in, and the solve as
``np.linalg.solve``.  Hypothesis drives the shapes and a seed; the arrays
come from a seeded generator so cases stay cheap and reproducible.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.kernels import numpy_backend
from repro.kernels.api import empty_overrides

TOLERANCE = dict(rtol=1e-12, atol=1e-12)
LETTERS = "ijkl"


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


def dense_tensor(shape, indices, values):
    """The COO arrays as a dense array; repeated coordinates add up."""
    dense = np.zeros(shape)
    np.add.at(dense, tuple(indices.T), values)
    return dense


def dense_mttkrp(dense, factors, mode):
    """Unfolding times Khatri-Rao, written as one einsum over the dense tensor."""
    order = dense.ndim
    tensor = LETTERS[:order]
    others = [f"{LETTERS[m]}r" for m in range(order) if m != mode]
    spec = f"{tensor},{','.join(others)}->{LETTERS[mode]}r"
    return np.einsum(spec, dense, *[f for m, f in enumerate(factors) if m != mode])


def dense_reconstruction(factors):
    order = len(factors)
    spec = f"{','.join(f'{LETTERS[m]}r' for m in range(order))}->{LETTERS[:order]}"
    return np.einsum(spec, *factors)


def patched(factors, modes, indices, rows):
    """The factors with the override rows written in, in order."""
    result = [factor.copy() for factor in factors]
    for mode, index, row in zip(modes, indices, rows):
        result[mode][index] = row
    return result


class TestMttkrpParity:
    @settings(max_examples=40, deadline=None)
    @given(case=tensor_cases(), nnz=st.integers(0, 25))
    def test_mttkrp_coo(self, case, nnz):
        shape, rank, mode, rng = case
        factors = _random_factors(shape, rank, rng)
        indices = _random_indices(shape, nnz, rng)
        values = rng.standard_normal(nnz)
        expected = dense_mttkrp(dense_tensor(shape, indices, values), factors, mode)
        actual = numpy_backend.mttkrp_coo(
            indices, values, factors, mode, shape[mode]
        )
        np.testing.assert_allclose(actual, expected, **TOLERANCE)

    @settings(max_examples=40, deadline=None)
    @given(case=tensor_cases(), nnz=st.integers(0, 25))
    def test_mttkrp_rows(self, case, nnz):
        shape, rank, mode, rng = case
        factors = _random_factors(shape, rank, rng)
        indices = _random_indices(shape, nnz, rng)
        # Slice-array contract: every entry shares the mode-th coordinate.
        row = int(rng.integers(0, shape[mode]))
        indices[:, mode] = row
        values = rng.standard_normal(nnz)
        expected = dense_mttkrp(dense_tensor(shape, indices, values), factors, mode)
        actual = numpy_backend.mttkrp_rows(indices, values, factors, mode)
        assert actual.shape == (rank,)
        np.testing.assert_allclose(actual, expected[row], **TOLERANCE)


class TestSampledResidualParity:
    @settings(max_examples=40, deadline=None)
    @given(case=tensor_cases(), theta=st.integers(0, 20))
    def test_sampled_residual(self, case, theta):
        shape, rank, mode, rng = case
        factors = _random_factors(shape, rank, rng)
        samples = _random_indices(shape, theta, rng)
        observed = rng.standard_normal(theta)
        prev_row = rng.standard_normal(rank)
        modes, indices, rows = _random_overrides(shape, rank, rng, skip_mode=mode)
        # x̃ is the start-of-event model: the overridden rows, and prev_row
        # in place of the row being solved.
        previous = patched(factors, modes, indices, rows)
        previous[mode] = np.tile(prev_row, (shape[mode], 1))
        start_of_event = dense_reconstruction(previous)[tuple(samples.T)]
        # ... and the product the residuals weight is of the current rows.
        current = np.ones((theta, rank))
        for other, factor in enumerate(factors):
            if other != mode:
                current *= factor[samples[:, other]]
        expected = (observed - start_of_event) @ current
        actual = numpy_backend.sampled_residual(
            samples, observed, factors, mode, prev_row, modes, indices, rows
        )
        assert actual.shape == (rank,)
        np.testing.assert_allclose(actual, expected, **TOLERANCE)


class TestReconstructParity:
    @settings(max_examples=40, deadline=None)
    @given(case=tensor_cases(), count=st.integers(0, 15))
    def test_reconstruct_coords(self, case, count):
        shape, rank, _mode, rng = case
        factors = _random_factors(shape, rank, rng)
        coordinates = _random_indices(shape, count, rng)
        modes, indices, rows = _random_overrides(shape, rank, rng)
        dense = dense_reconstruction(patched(factors, modes, indices, rows))
        expected = dense[tuple(coordinates.T)]
        actual = numpy_backend.reconstruct_coords(
            coordinates, factors, modes, indices, rows
        )
        assert actual.shape == (count,)
        np.testing.assert_allclose(actual, expected, **TOLERANCE)


class TestSolveParity:
    @settings(max_examples=40, deadline=None)
    @given(
        rank=st.integers(1, 6),
        batch=st.integers(0, 4),  # 0 = one (R,) row
        regularized=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_well_conditioned_solve(self, rank, batch, regularized, seed):
        rng = np.random.default_rng(seed)
        half = rng.standard_normal((rank, rank))
        matrix = half @ half.T + rank * np.eye(rank)
        ridge = 1e-6 * np.eye(rank) if regularized else None
        rhs = (
            rng.standard_normal(rank)
            if batch == 0
            else rng.standard_normal((batch, rank))
        )
        system = matrix if ridge is None else matrix + ridge
        actual = numpy_backend.solve_regularized(
            matrix, rhs, ridge, np.empty_like(matrix)
        )
        assert actual.shape == rhs.shape
        # rhs @ system^-1, and the system is symmetric: np.linalg.solve's
        # bits for that shape, which is what the kernel promises.
        expected = np.linalg.solve(system, rhs if batch == 0 else rhs.T)
        np.testing.assert_array_equal(actual, expected if batch == 0 else expected.T)
        np.testing.assert_allclose(actual @ system, rhs, **TOLERANCE)
