"""The numpy ``mttkrp_coo`` scatter is bit-identical to ``np.add.at``.

``mttkrp_coo`` scatters the per-non-zero products with one ``np.bincount``
over flat ``row * R + column`` bins.  bincount adds each bin's terms in
input order starting from ``0.0``, like the ``np.add.at`` it replaced, so
the results must agree bit for bit — compared here as raw bytes, which also
tells ``-0.0`` from ``0.0``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels import numpy_backend
from repro.kernels.registry import resolve_backend


def add_at_mttkrp(indices, values, factors, mode, mode_size):
    """The historical scatter: the same products, summed by ``np.add.at``."""
    rank = factors[0].shape[1]
    result = np.zeros((mode_size, rank), dtype=np.float64)
    if values.size == 0:
        return result
    product = np.broadcast_to(values[:, None], (values.size, rank)).copy()
    for other_mode, factor in enumerate(factors):
        if other_mode == mode:
            continue
        product *= factor[indices[:, other_mode], :]
    np.add.at(result, indices[:, mode], product)
    return result


def random_case(shape, rank, nnz, seed):
    """COO arrays with many entries per row and values over 16 decades."""
    rng = np.random.default_rng(seed)
    # Leave the last index of every mode unused, so trailing rows stay empty.
    indices = np.column_stack(
        [rng.integers(0, max(length - 1, 1), size=nnz) for length in shape]
    ).astype(np.int64)
    signs = rng.choice([-1.0, 1.0], size=nnz)
    values = signs * 10.0 ** rng.uniform(-8.0, 8.0, size=nnz)
    factors = [rng.normal(size=(length, rank)) for length in shape]
    return indices, values, factors


def assert_same_bits(actual, expected):
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual, expected)
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "shape, rank",
    [((7, 5, 6), 4), ((80, 80, 10), 20), ((5, 4, 6, 3), 3), ((9, 3, 4, 5), 7)],
    ids=["3-mode", "3-mode-taxi", "4-mode", "4-mode-wide"],
)
def test_matches_add_at_on_every_mode(shape, rank, seed):
    indices, values, factors = random_case(shape, rank, nnz=400, seed=seed)
    for mode, mode_size in enumerate(shape):
        assert_same_bits(
            numpy_backend.mttkrp_coo(indices, values, factors, mode, mode_size),
            add_at_mttkrp(indices, values, factors, mode, mode_size),
        )


def test_repeated_coordinates_accumulate_in_order():
    # One coordinate many times: the result is the in-order running sum.
    indices = np.zeros((50, 3), dtype=np.int64)
    values = 10.0 ** np.linspace(-8.0, 8.0, 50) * np.where(np.arange(50) % 2, -1, 1)
    factors = [np.full((2, 3), 1.0 + 1e-9), np.ones((2, 3)), np.ones((2, 3))]
    for mode in range(3):
        assert_same_bits(
            numpy_backend.mttkrp_coo(indices, values, factors, mode, 2),
            add_at_mttkrp(indices, values, factors, mode, 2),
        )


def test_registry_backend_uses_the_same_kernel():
    indices, values, factors = random_case((6, 5, 4), 3, nnz=60, seed=11)
    backend = resolve_backend("numpy")
    for mode, mode_size in enumerate((6, 5, 4)):
        assert_same_bits(
            backend.mttkrp_coo(indices, values, factors, mode, mode_size),
            add_at_mttkrp(indices, values, factors, mode, mode_size),
        )


@pytest.mark.parametrize("order", [3, 4])
def test_empty_input_gives_zeros(order):
    shape = (4, 3, 5, 2)[:order]
    factors = [np.ones((length, 2)) for length in shape]
    indices = np.empty((0, order), dtype=np.int64)
    values = np.empty(0, dtype=np.float64)
    for mode, mode_size in enumerate(shape):
        assert_same_bits(
            numpy_backend.mttkrp_coo(indices, values, factors, mode, mode_size),
            np.zeros((mode_size, 2)),
        )
