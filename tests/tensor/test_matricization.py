"""Unit tests for :mod:`repro.tensor.matricization`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.tensor.kruskal import KruskalTensor
from repro.tensor.matricization import (
    column_of,
    fold,
    kr_order,
    unfold_dense,
    unfold_sparse,
)
from repro.tensor.products import khatri_rao_all
from repro.tensor.random import random_factors
from repro.tensor.sparse import SparseTensor


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


class TestSparseUnfolding:
    def test_matches_dense_unfolding(self, small_tensor):
        dense = small_tensor.to_dense()
        for mode in range(small_tensor.order):
            sparse_unfolded = unfold_sparse(small_tensor, mode).toarray()
            np.testing.assert_allclose(sparse_unfolded, unfold_dense(dense, mode))

    def test_empty_tensor(self):
        unfolded = unfold_sparse(SparseTensor((2, 3, 4)), 1)
        assert unfolded.shape == (3, 8)
        assert unfolded.nnz == 0

    def test_invalid_mode_rejected(self, small_tensor):
        with pytest.raises(ShapeError):
            unfold_sparse(small_tensor, 3)

    def test_invalid_mode_rejected_before_importing_scipy(
        self, small_tensor, hide_scipy
    ):
        with pytest.raises(ShapeError):
            unfold_sparse(small_tensor, -1)
        with pytest.raises(ImportError):
            unfold_sparse(small_tensor, 0)

    def test_column_of_matches_dense_layout(self, rng):
        shape = (3, 4, 5)
        dense = rng.normal(size=shape)
        for mode in range(3):
            unfolded = unfold_dense(dense, mode)
            for _ in range(10):
                coordinate = tuple(int(rng.integers(n)) for n in shape)
                column = column_of(coordinate, shape, mode)
                assert unfolded[coordinate[mode], column] == pytest.approx(
                    dense[coordinate]
                )


class TestKrOrder:
    def test_excludes_mode_and_descends(self):
        assert kr_order(4, 1) == [3, 2, 0]
        assert kr_order(3, 2) == [1, 0]
        assert kr_order(2, 0) == [1]
