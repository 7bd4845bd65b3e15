"""The kernel API's contracts that the parity tests do not state.

* Kernels never write into their inputs: the models pass live factor
  matrices and cached Grams straight in.
* Each kernel returns float64 in the shape :mod:`repro.kernels.api`
  documents.
* Overrides that no gathered row matches change no bit: the override path
  must agree with the no-override fast path exactly, or results would
  depend on which rows happened to be updated earlier in an event.
* :func:`flatten_mode_overrides` drops the skipped mode and keeps the
  per-mode commit order the kernels replay.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.kernels import KERNEL_NAMES, empty_overrides, flatten_mode_overrides
from repro.kernels import numpy_backend

SHAPE = (6, 5, 4)
RANK = 3


@pytest.fixture
def rng():
    return np.random.default_rng(17)


def kernel_call(name, rng):
    """``(args, expected_shape, clobberable)`` for one representative call.

    The overrides are non-empty and hit gathered rows, so the copy-on-write
    paths run.  ``clobberable`` lists argument positions the kernel may
    overwrite (the solve's scratch buffer).
    """
    factors = [rng.standard_normal((n, RANK)) for n in SHAPE]
    indices = np.column_stack(
        [rng.integers(0, n, size=12) for n in SHAPE]
    ).astype(np.int64)
    values = rng.standard_normal(12)
    overrides = (
        np.array([1, 2], dtype=np.int64),
        np.array([indices[0, 1], indices[1, 2]], dtype=np.int64),
        rng.standard_normal((2, RANK)),
    )
    if name == "mttkrp_coo":
        return (indices, values, factors, 0, SHAPE[0]), (SHAPE[0], RANK), ()
    if name == "mttkrp_rows":
        indices[:, 0] = 2
        return (indices, values, factors, 0), (RANK,), ()
    if name == "sampled_residual":
        prev_row = rng.standard_normal(RANK)
        args = (indices, values, factors, 0, prev_row, *overrides)
        return args, (RANK,), ()
    if name == "reconstruct_coords":
        return (indices, factors, *overrides), (12,), ()
    half = rng.standard_normal((RANK, RANK))
    matrix = half @ half.T + RANK * np.eye(RANK)
    rhs = rng.standard_normal((4, RANK))
    args = (matrix, rhs, 1e-3 * np.eye(RANK), np.empty((RANK, RANK)))
    return args, (4, RANK), (3,)


def assert_unchanged(before, after):
    if isinstance(before, np.ndarray):
        assert np.array_equal(after, before) and after.dtype == before.dtype
    elif isinstance(before, (list, tuple)):
        for item_before, item_after in zip(before, after):
            assert_unchanged(item_before, item_after)
    else:
        assert after == before


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_kernels_leave_their_inputs_alone(name, rng):
    args, expected_shape, clobberable = kernel_call(name, rng)
    before = copy.deepcopy(args)
    result = getattr(numpy_backend, name)(*args)
    assert result.dtype == np.float64
    assert result.shape == expected_shape
    for position, (arg_before, arg_after) in enumerate(zip(before, args)):
        if position not in clobberable:
            assert_unchanged(arg_before, arg_after)


def misses(column_values, size):
    """An index of ``size`` rows that ``column_values`` never takes."""
    unused = sorted(set(range(size)) - set(column_values.tolist()))
    assert unused, "the case must leave a row unsampled"
    return unused[0]


def test_irrelevant_overrides_change_no_bit_of_the_residual(rng):
    factors = [rng.standard_normal((n, RANK)) for n in (6, 9, 9)]
    samples = np.column_stack(
        [rng.integers(0, 5, size=10) for _ in range(3)]
    ).astype(np.int64)
    observed = rng.standard_normal(10)
    prev_row = rng.standard_normal(RANK)
    overrides = (
        np.array([1, 2], dtype=np.int64),
        np.array([misses(samples[:, 1], 9), misses(samples[:, 2], 9)]),
        rng.standard_normal((2, RANK)),
    )
    plain = numpy_backend.sampled_residual(
        samples, observed, factors, 0, prev_row, *empty_overrides(RANK)
    )
    overridden = numpy_backend.sampled_residual(
        samples, observed, factors, 0, prev_row, *overrides
    )
    assert plain.tobytes() == overridden.tobytes()


def test_irrelevant_overrides_change_no_bit_of_the_reconstruction(rng):
    factors = [rng.standard_normal((n, RANK)) for n in (9, 9, 9)]
    coordinates = np.column_stack(
        [rng.integers(0, 5, size=10) for _ in range(3)]
    ).astype(np.int64)
    overrides = (
        np.array([0, 2], dtype=np.int64),
        np.array([misses(coordinates[:, 0], 9), misses(coordinates[:, 2], 9)]),
        rng.standard_normal((2, RANK)),
    )
    plain = numpy_backend.reconstruct_coords(
        coordinates, factors, *empty_overrides(RANK)
    )
    overridden = numpy_backend.reconstruct_coords(coordinates, factors, *overrides)
    assert plain.tobytes() == overridden.tobytes()


class TestFlattenModeOverrides:
    def test_skipped_mode_dropped_and_commit_order_kept(self):
        a, b, c, d = (np.full(RANK, float(k)) for k in range(4))
        modes, indices, rows = flatten_mode_overrides(
            {2: [(1, a)], 0: [(3, b), (0, c)], 1: [(4, d)]}, skip_mode=1, rank=RANK
        )
        assert modes.tolist() == [2, 0, 0]
        assert indices.tolist() == [1, 3, 0]
        np.testing.assert_array_equal(rows, np.stack([a, b, c]))
        assert modes.dtype == indices.dtype == np.int64
        assert rows.dtype == np.float64

    @pytest.mark.parametrize(
        "buckets", [{}, {1: [(0, np.ones(RANK))]}, {0: [], 2: []}],
        ids=["none", "only-skipped", "empty-buckets"],
    )
    def test_nothing_to_override_gives_the_empty_triple(self, buckets):
        modes, indices, rows = flatten_mode_overrides(buckets, skip_mode=1, rank=RANK)
        assert modes.shape == indices.shape == (0,)
        assert rows.shape == (0, RANK)
        assert modes.dtype == indices.dtype == np.int64
