"""Unit tests for :mod:`repro.tensor.matricization`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.tensor.kruskal import KruskalTensor
from repro.tensor.matricization import fold, kr_order, unfold_dense
from repro.tensor.products import khatri_rao_all
from repro.tensor.random import random_factors


class TestDenseUnfolding:
    def test_unfold_fold_roundtrip(self, rng):
        tensor = rng.normal(size=(3, 4, 5))
        for mode in range(3):
            unfolded = unfold_dense(tensor, mode)
            assert unfolded.shape[0] == tensor.shape[mode]
            np.testing.assert_allclose(fold(unfolded, mode, tensor.shape), tensor)

    def test_unfolding_matches_cp_identity(self, rng):
        # [[A, B, C]]_(m) == A(m) @ khatri_rao(reversed others).T
        factors = random_factors((3, 4, 5), rank=2, rng=rng, nonnegative=False)
        dense = KruskalTensor(factors).to_dense()
        for mode in range(3):
            expected = factors[mode] @ khatri_rao_all(
                [factors[m] for m in kr_order(3, mode)]
            ).T
            np.testing.assert_allclose(unfold_dense(dense, mode), expected, atol=1e-10)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ShapeError):
            unfold_dense(np.zeros((2, 2)), 2)
        with pytest.raises(ShapeError):
            fold(np.zeros((2, 2)), 5, (2, 2))


class TestKrOrder:
    def test_excludes_mode_and_descends(self):
        assert kr_order(4, 1) == [3, 2, 0]
        assert kr_order(3, 2) == [1, 0]
        assert kr_order(2, 0) == [1]
