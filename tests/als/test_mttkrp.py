"""Unit tests for :mod:`repro.als.mttkrp`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.als.mttkrp import mttkrp, mttkrp_row
from repro.exceptions import ShapeError
from repro.tensor.kruskal import KruskalTensor
from repro.tensor.matricization import kr_order, unfold_dense
from repro.tensor.products import khatri_rao_all
from repro.tensor.random import random_factors
from repro.tensor.sparse import SparseTensor


def dense_mttkrp(tensor: SparseTensor, factors, mode: int) -> np.ndarray:
    """Reference implementation via dense unfolding and explicit Khatri-Rao."""
    unfolded = unfold_dense(tensor.to_dense(), mode)
    kr = khatri_rao_all([factors[m] for m in kr_order(tensor.order, mode)])
    return unfolded @ kr


class TestMttkrp:
    def test_matches_dense_reference(self, small_tensor, rng):
        factors = random_factors(small_tensor.shape, rank=3, rng=rng, nonnegative=False)
        for mode in range(small_tensor.order):
            np.testing.assert_allclose(
                mttkrp(small_tensor, factors, mode),
                dense_mttkrp(small_tensor, factors, mode),
                atol=1e-9,
            )

    def test_empty_tensor_gives_zeros(self, rng):
        tensor = SparseTensor((3, 4, 2))
        factors = random_factors(tensor.shape, rank=2, rng=rng)
        result = mttkrp(tensor, factors, 0)
        np.testing.assert_array_equal(result, np.zeros((3, 2)))

    def test_wrong_factor_count_rejected(self, small_tensor, rng):
        factors = random_factors((6, 5), rank=2, rng=rng)
        with pytest.raises(ShapeError):
            mttkrp(small_tensor, factors, 0)

    def test_invalid_mode_rejected(self, small_tensor, rng):
        factors = random_factors(small_tensor.shape, rank=2, rng=rng)
        with pytest.raises(ShapeError):
            mttkrp(small_tensor, factors, 3)


class TestMttkrpRow:
    def test_matches_full_mttkrp_row(self, small_tensor, rng):
        factors = random_factors(small_tensor.shape, rank=3, rng=rng, nonnegative=False)
        for mode in range(small_tensor.order):
            full = mttkrp(small_tensor, factors, mode)
            for index in range(small_tensor.shape[mode]):
                np.testing.assert_allclose(
                    mttkrp_row(small_tensor, factors, mode, index),
                    full[index, :],
                    atol=1e-9,
                )

    def test_row_with_no_nonzeros_is_zero(self, rng):
        tensor = SparseTensor((4, 3), entries={(1, 1): 1.0})
        factors = random_factors(tensor.shape, rank=2, rng=rng)
        np.testing.assert_array_equal(
            mttkrp_row(tensor, factors, 0, 3), np.zeros(2)
        )

    def test_cp_reconstruction_row_identity(self, rng):
        """For X = [[A, B, C]] stored sparsely, the exact LS row solve recovers A's rows."""
        factors = random_factors((4, 3, 3), rank=2, rng=rng)
        kruskal = KruskalTensor(factors)
        tensor = SparseTensor.from_dense(kruskal.to_dense())
        grams = [f.T @ f for f in factors]
        hadamard = grams[1] * grams[2]
        for index in range(4):
            row = mttkrp_row(tensor, factors, 0, index) @ np.linalg.pinv(hadamard)
            np.testing.assert_allclose(row, factors[0][index, :], atol=1e-8)


def _legacy_mttkrp_row(tensor, factors, mode, index):
    """The pre-kernel list-based ``mttkrp_row`` loop, verbatim.

    Kept as the bit-exactness oracle for the array-based path that replaced
    it: the slice's entries are visited in the same order, so the float
    operations and hence the bits must match exactly.
    """
    rank = factors[0].shape[1]
    coordinates = []
    values = []
    for coordinate, value in tensor.mode_slice(mode, index):
        coordinates.append(coordinate)
        values.append(value)
    if not coordinates:
        return np.zeros(rank, dtype=np.float64)
    index_array = np.asarray(coordinates, dtype=np.int64)
    value_array = np.asarray(values, dtype=np.float64)
    product = np.broadcast_to(
        value_array[:, None], (value_array.size, rank)
    ).copy()
    for other_mode, factor in enumerate(factors):
        if other_mode == mode:
            continue
        product *= factor[index_array[:, other_mode], :]
    return product.sum(axis=0)


def test_stored_entries_match_the_list_loop_bit_for_bit(rng):
    shape = (5, 4, 3)
    tensor = SparseTensor(shape)
    for _ in range(25):
        coordinate = tuple(int(rng.integers(0, n)) for n in shape)
        tensor.add(coordinate, float(rng.standard_normal()))
    factors = random_factors(shape, rank=3, rng=rng, nonnegative=False)
    for mode in range(tensor.order):
        for index in range(tensor.shape[mode]):
            np.testing.assert_array_equal(
                mttkrp_row(tensor, factors, mode, index),
                _legacy_mttkrp_row(tensor, factors, mode, index),
            )
