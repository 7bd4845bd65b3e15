"""Unit tests for :mod:`repro.als.initialization`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.als.initialization import initialize_factors
from repro.exceptions import RankError
from repro.tensor.sparse import SparseTensor


class TestInitializeFactors:
    def test_random_shapes(self, small_tensor, rng):
        factors = initialize_factors(small_tensor, rank=4, rng=rng)
        assert [f.shape for f in factors] == [(6, 4), (5, 4), (4, 4)]

    def test_deterministic_with_seeded_rng(self, small_tensor):
        a = initialize_factors(small_tensor, 3, rng=np.random.default_rng(5))
        b = initialize_factors(small_tensor, 3, rng=np.random.default_rng(5))
        for left, right in zip(a, b):
            np.testing.assert_array_equal(left, right)

    def test_invalid_rank_rejected(self, small_tensor, rng):
        with pytest.raises(RankError):
            initialize_factors(small_tensor, 0, rng=rng)

    @pytest.mark.parametrize(
        "shape",
        [(7,), (6, 5), (6, 5, 4), (3, 8, 2, 5)],
        ids=lambda shape: f"order{len(shape)}",
    )
    def test_draws_uniform_rows_mode_by_mode(self, shape):
        # The draws every ALS fit and golden depends on: one rng.random
        # block per mode, in mode order, and nothing else from the stream.
        tensor = SparseTensor(shape, {tuple(0 for _ in shape): 1.0})
        rng = np.random.default_rng(11)
        factors = initialize_factors(tensor, 3, rng)
        expected_rng = np.random.default_rng(11)
        for factor, length in zip(factors, shape, strict=True):
            assert factor.dtype == np.float64
            assert np.array_equal(factor, expected_rng.random((length, 3)))
        assert rng.random() == expected_rng.random()

    def test_rank_larger_than_every_mode(self, rng):
        factors = initialize_factors(SparseTensor((2, 3)), 5, rng)
        assert [f.shape for f in factors] == [(2, 5), (3, 5)]
        assert all(np.all((f >= 0.0) & (f < 1.0)) for f in factors)

    def test_empty_tensor_gets_full_factors(self):
        # Factors depend on the shape only, not on the stored entries.
        empty = initialize_factors(
            SparseTensor((6, 5, 4)), 4, np.random.default_rng(2)
        )
        filled = initialize_factors(
            SparseTensor((6, 5, 4), {(1, 2, 3): 9.0}), 4, np.random.default_rng(2)
        )
        for left, right in zip(empty, filled, strict=True):
            assert np.array_equal(left, right)
