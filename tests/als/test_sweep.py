"""The gather-once ALS sweep is bit-identical to the per-mode Eq. 4 recipe.

``ALS.fit`` and ``PeriodicALS`` take their MTTKRPs from
:class:`repro.als.mttkrp.MTTKRPSweep`.  The references below run the
per-mode loop on the public :func:`repro.als.mttkrp.mttkrp` and
``np.linalg.pinv`` instead, and every factor, Gram, fitness value, sweep
count and convergence flag must match exactly.  The comparison happens in
process, never against recorded digests: another BLAS gives ``pinv`` other
bits, on both sides alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.als.als import ALS, ALSConfig, decompose
from repro.als.initialization import initialize_factors
from repro.als.mttkrp import MTTKRPSweep, mttkrp
from repro.baselines.base import BaselineConfig
from repro.baselines.periodic_als import PeriodicALS
from repro.exceptions import ShapeError
from repro.stream.window import TensorWindow, WindowConfig
from repro.tensor.kruskal import KruskalTensor
from repro.tensor.products import gram, hadamard_all
from repro.tensor.random import random_factors
from repro.tensor.sparse import SparseTensor

SHAPES = {2: (8, 6), 3: (5, 4, 3), 4: (4, 3, 3, 2)}
NNZ = (0, 1, 40)


def make_tensor(order: int, nnz: int, seed: int = 0) -> SparseTensor:
    """``nnz`` distinct random coordinates with values of both signs."""
    shape = SHAPES[order]
    rng = np.random.default_rng(seed)
    cells = rng.choice(int(np.prod(shape)), size=nnz, replace=False)
    tensor = SparseTensor(shape)
    for cell in cells:
        coordinate = tuple(int(i) for i in np.unravel_index(cell, shape))
        tensor.set(coordinate, float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0)))
    return tensor


def ranks_for(order: int) -> tuple[int, int]:
    """Rank 1 and a rank above every mode length."""
    return 1, max(SHAPES[order]) + 1


CASES = [
    (order, nnz, rank)
    for order in SHAPES
    for nnz in NNZ
    for rank in ranks_for(order)
]


def reference_fit(tensor, config, initial_factors=None):
    """``ALS.fit`` as the per-mode loop: one full ``mttkrp`` per mode."""
    rng = np.random.default_rng(config.seed)
    if initial_factors is None:
        factors = initialize_factors(tensor, config.rank, rng)
    else:
        factors = [np.array(f, dtype=np.float64, copy=True) for f in initial_factors]
    grams = [gram(factor) for factor in factors]
    history: list[float] = []
    converged = False
    done = 0
    for iteration in range(config.n_iterations):
        for mode in range(tensor.order):
            numerator = mttkrp(tensor, factors, mode)
            hadamard_grams = hadamard_all(
                [g for other, g in enumerate(grams) if other != mode]
            )
            if config.regularization > 0:
                hadamard_grams = hadamard_grams + config.regularization * np.eye(
                    config.rank
                )
            factors[mode] = numerator @ np.linalg.pinv(hadamard_grams)
            grams[mode] = gram(factors[mode])
        history.append(KruskalTensor(factors).fitness(tensor))
        done = iteration + 1
        if (
            config.tolerance > 0
            and len(history) >= 2
            and abs(history[-1] - history[-2]) < config.tolerance
        ):
            converged = True
            break
    return factors, grams, history, done, converged


def reference_solve(gram_product, rhs, regularization):
    """``PeriodicCPD._solve``: a ridge solve with a pseudo-inverse fallback."""
    ridge = regularization * np.eye(gram_product.shape[0])
    try:
        return np.linalg.solve((gram_product + ridge).T, rhs.T).T
    except np.linalg.LinAlgError:
        return rhs @ np.linalg.pinv(gram_product + ridge)


def reference_period(tensor, factors, config):
    """``PeriodicALS._update_period`` as the per-mode loop, in place."""
    time_factor = factors[-1]
    time_factor[:-1, :] = time_factor[1:, :]
    grams = [factor.T @ factor for factor in factors]
    for _ in range(config.n_iterations):
        for mode in range(tensor.order):
            numerator = mttkrp(tensor, factors, mode)
            hadamard = hadamard_all(
                [g for other, g in enumerate(grams) if other != mode]
            )
            factors[mode] = reference_solve(
                hadamard, numerator, config.regularization
            )
            grams[mode] = factors[mode].T @ factors[mode]
    return grams


def assert_fit_matches(result, reference) -> None:
    factors, grams, history, done, converged = reference
    for actual, expected in zip(result.decomposition.factors, factors):
        assert np.array_equal(actual, expected)
    for actual, expected in zip(result.decomposition.factors, grams):
        assert np.array_equal(gram(actual), expected)
    assert result.fitness_history == history
    assert result.n_iterations == done
    assert result.converged == converged


def window_of(tensor: SparseTensor) -> TensorWindow:
    """A window adopting ``tensor``; its last mode is the time mode."""
    config = WindowConfig(
        mode_sizes=tensor.shape[:-1], window_length=tensor.shape[-1], period=1.0
    )
    return TensorWindow.from_tensor(config, tensor)


class TestALSFit:
    @pytest.mark.parametrize("regularization", [0.0, 1e-12])
    @pytest.mark.parametrize("order, nnz, rank", CASES)
    def test_warm_start_matches_per_mode_loop(self, order, nnz, rank, regularization):
        tensor = make_tensor(order, nnz)
        initial = random_factors(
            tensor.shape, rank, rng=np.random.default_rng(1), nonnegative=False
        )
        config = ALSConfig(
            rank=rank, n_iterations=4, tolerance=0.0, regularization=regularization
        )
        result = ALS(config).fit(tensor, initial_factors=initial)
        assert_fit_matches(result, reference_fit(tensor, config, initial))

    @pytest.mark.parametrize("order, nnz, rank", CASES)
    def test_decompose_matches_per_mode_loop(self, order, nnz, rank):
        tensor = make_tensor(order, nnz, seed=3)
        result = decompose(tensor, rank=rank, n_iterations=3, seed=5)
        config = ALSConfig(rank=rank, n_iterations=3, seed=5)
        assert_fit_matches(result, reference_fit(tensor, config))

    def test_early_stop_matches_per_mode_loop(self):
        truth = KruskalTensor(
            random_factors((5, 4, 3), rank=2, rng=np.random.default_rng(12345))
        )
        tensor = SparseTensor.from_dense(truth.to_dense())
        result = decompose(tensor, rank=2, n_iterations=50, tolerance=1e-4, seed=2)
        config = ALSConfig(rank=2, n_iterations=50, tolerance=1e-4, seed=2)
        assert result.converged and result.n_iterations < 50
        assert_fit_matches(result, reference_fit(tensor, config))


class TestPeriodicBaselines:
    @pytest.mark.parametrize("regularization", [0.0, 1e-12])
    @pytest.mark.parametrize("order, nnz, rank", CASES)
    def test_periodic_als_matches_per_mode_loop(self, order, nnz, rank, regularization):
        tensor = make_tensor(order, nnz, seed=4)
        initial = random_factors(tensor.shape, rank, rng=np.random.default_rng(2))
        config = BaselineConfig(
            rank=rank, n_iterations=2, regularization=regularization
        )
        model = PeriodicALS(config)
        model.initialize(window_of(tensor), initial)
        expected = [factor.copy() for factor in initial]
        for _ in range(2):
            model.update_period()
            grams = reference_period(tensor, expected, config)
            for actual, factor, expected_gram in zip(model.factors, expected, grams):
                assert np.array_equal(actual, factor)
                assert np.array_equal(actual.T @ actual, expected_gram)


class TestMTTKRPSweep:
    @pytest.mark.parametrize("order, nnz, rank", CASES + [(1, 3, 2)])
    def test_every_mode_and_inner_match_the_public_functions(self, order, nnz, rank):
        if order == 1:
            tensor = SparseTensor((4,), entries={(0,): 1.5, (2,): -2.0, (3,): 0.5})
        else:
            tensor = make_tensor(order, nnz, seed=8)
        rng = np.random.default_rng(11)
        factors = random_factors(tensor.shape, rank, rng=rng, nonnegative=False)
        sweep = MTTKRPSweep(tensor, factors)
        for _ in range(2):
            for mode in range(tensor.order):
                numerator = sweep.mttkrp(mode)
                assert np.array_equal(numerator, mttkrp(tensor, factors, mode))
                factors[mode] = rng.normal(size=factors[mode].shape)
                sweep.commit(mode, factors[mode])
            expected = KruskalTensor(factors).inner_with_sparse(tensor)
            assert sweep.inner() == expected

    def test_modes_must_come_in_sweep_order(self, small_tensor, rng):
        factors = random_factors(small_tensor.shape, rank=2, rng=rng)
        sweep = MTTKRPSweep(small_tensor, factors)
        with pytest.raises(ShapeError):
            sweep.mttkrp(1)
        sweep.mttkrp(0)
        with pytest.raises(ShapeError):
            sweep.commit(1, factors[1])
        with pytest.raises(ShapeError):
            sweep.commit(0, factors[1])  # the wrong shape
        sweep.commit(0, factors[0])
        with pytest.raises(ShapeError):
            sweep.mttkrp(0)
        with pytest.raises(ShapeError):
            sweep.inner()

    def test_wrong_factor_count_rejected(self, small_tensor, rng):
        with pytest.raises(ShapeError):
            MTTKRPSweep(small_tensor, random_factors((6, 5), rank=2, rng=rng))
