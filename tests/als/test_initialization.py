"""Unit tests for :mod:`repro.als.initialization`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.als.als import decompose
from repro.als.initialization import copy_factors, initialize_factors, pad_factor
from repro.exceptions import ConfigurationError, RankError


class TestInitializeFactors:
    def test_random_shapes(self, small_tensor, rng):
        factors = initialize_factors(small_tensor, rank=4, strategy="random", rng=rng)
        assert [f.shape for f in factors] == [(6, 4), (5, 4), (4, 4)]

    def test_svd_shapes(self, small_tensor, rng):
        factors = initialize_factors(small_tensor, rank=3, strategy="svd", rng=rng)
        assert [f.shape for f in factors] == [(6, 3), (5, 3), (4, 3)]
        assert all(np.isfinite(f).all() for f in factors)

    def test_svd_handles_rank_larger_than_mode(self, small_tensor, rng):
        factors = initialize_factors(small_tensor, rank=10, strategy="svd", rng=rng)
        assert factors[2].shape == (4, 10)

    def test_deterministic_with_seeded_rng(self, small_tensor):
        a = initialize_factors(small_tensor, 3, rng=np.random.default_rng(5))
        b = initialize_factors(small_tensor, 3, rng=np.random.default_rng(5))
        for left, right in zip(a, b):
            np.testing.assert_array_equal(left, right)

    def test_svd_without_scipy_is_a_configuration_error(
        self, small_tensor, rng, hide_scipy
    ):
        with pytest.raises(ConfigurationError, match="needs scipy"):
            initialize_factors(small_tensor, 3, strategy="svd", rng=rng)
        with pytest.raises(ConfigurationError, match="needs scipy"):
            decompose(small_tensor, rank=3, n_iterations=2, init="svd")

    def test_random_init_without_scipy(self, small_tensor, rng, hide_scipy):
        factors = initialize_factors(small_tensor, 3, strategy="random", rng=rng)
        assert [f.shape for f in factors] == [(6, 3), (5, 3), (4, 3)]

    def test_unknown_strategy_rejected(self, small_tensor, rng):
        with pytest.raises(ConfigurationError):
            initialize_factors(small_tensor, 3, strategy="magic", rng=rng)

    def test_invalid_rank_rejected(self, small_tensor, rng):
        with pytest.raises(RankError):
            initialize_factors(small_tensor, 0, rng=rng)


class TestHelpers:
    def test_pad_factor_appends_rows(self, rng):
        factor = rng.random((3, 2))
        padded = pad_factor(factor, 5, rng=rng)
        assert padded.shape == (5, 2)
        np.testing.assert_array_equal(padded[:3], factor)

    def test_pad_factor_noop_when_large_enough(self, rng):
        factor = rng.random((4, 2))
        np.testing.assert_array_equal(pad_factor(factor, 3, rng=rng), factor)

    def test_copy_factors_is_deep(self, rng):
        factors = [rng.random((2, 2))]
        copies = copy_factors(factors)
        copies[0][0, 0] = 99.0
        assert factors[0][0, 0] != 99.0
