"""Unit tests for the batch ALS solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.als.als import ALS, ALSConfig, decompose
from repro.exceptions import ConfigurationError, RankError
from repro.tensor.kruskal import KruskalTensor
from repro.tensor.random import random_factors
from repro.tensor.sparse import SparseTensor


@pytest.fixture
def exact_low_rank_tensor(rng) -> tuple[SparseTensor, KruskalTensor]:
    """A dense-as-sparse tensor that is exactly rank 2."""
    truth = KruskalTensor(random_factors((5, 4, 3), rank=2, rng=rng))
    return SparseTensor.from_dense(truth.to_dense()), truth


class TestALSConfig:
    def test_invalid_rank(self):
        with pytest.raises(RankError):
            ALSConfig(rank=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rank": 2, "n_iterations": 0},
            {"rank": 2, "tolerance": -1.0},
            {"rank": 2, "regularization": -1e-3},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            ALSConfig(**kwargs)


class TestDecomposition:
    def test_recovers_exact_low_rank_tensor(self, exact_low_rank_tensor):
        tensor, _ = exact_low_rank_tensor
        result = decompose(tensor, rank=3, n_iterations=30, seed=1)
        assert result.fitness > 0.99

    def test_fitness_is_monotone_up_to_tolerance(self, small_tensor):
        result = decompose(small_tensor, rank=3, n_iterations=15, seed=0, tolerance=0.0)
        history = result.fitness_history
        assert len(history) == 15
        for earlier, later in zip(history, history[2:]):
            assert later >= earlier - 1e-6

    def test_early_stopping_sets_converged(self, exact_low_rank_tensor):
        tensor, _ = exact_low_rank_tensor
        result = decompose(tensor, rank=2, n_iterations=50, tolerance=1e-4, seed=2)
        assert result.converged
        assert result.n_iterations < 50

    def test_decomposition_shapes(self, small_tensor):
        result = decompose(small_tensor, rank=4, n_iterations=3)
        assert result.decomposition.shape == small_tensor.shape
        assert result.decomposition.rank == 4

    def test_deterministic_given_seed(self, small_tensor):
        first = decompose(small_tensor, rank=3, n_iterations=5, seed=11)
        second = decompose(small_tensor, rank=3, n_iterations=5, seed=11)
        for left, right in zip(first.decomposition.factors, second.decomposition.factors):
            np.testing.assert_array_equal(left, right)

    def test_empty_tensor_is_handled(self):
        result = decompose(SparseTensor((3, 3, 3)), rank=2, n_iterations=2)
        assert result.fitness == pytest.approx(1.0) or result.fitness == float("-inf")


class TestInitialFactors:
    def test_warm_start_is_used(self, exact_low_rank_tensor):
        tensor, truth = exact_low_rank_tensor
        als = ALS(ALSConfig(rank=2, n_iterations=1, tolerance=0.0))
        result = als.fit(tensor, initial_factors=truth.factors)
        assert result.fitness > 0.999  # one sweep from the truth stays at the truth

    def test_wrong_initial_shape_rejected(self, small_tensor, rng):
        als = ALS(ALSConfig(rank=2))
        bad = random_factors((6, 5, 3), rank=2, rng=rng)  # wrong last mode
        with pytest.raises(ConfigurationError):
            als.fit(small_tensor, initial_factors=bad)

    def test_wrong_initial_count_rejected(self, small_tensor, rng):
        als = ALS(ALSConfig(rank=2))
        with pytest.raises(ConfigurationError):
            als.fit(small_tensor, initial_factors=random_factors((6, 5), 2, rng=rng))
