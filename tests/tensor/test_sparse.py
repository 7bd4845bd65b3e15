"""Unit tests for :mod:`repro.tensor.sparse`."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.als.mttkrp import mttkrp
from repro.exceptions import IndexOutOfBoundsError, ShapeError
from repro.tensor.sparse import DROP_TOLERANCE, SparseTensor


class TestConstruction:
    def test_empty_tensor_has_no_nonzeros(self):
        tensor = SparseTensor((3, 4, 5))
        assert tensor.nnz == 0
        assert tensor.shape == (3, 4, 5)
        assert tensor.order == 3
        assert tensor.size == 60

    def test_initial_entries_are_stored(self):
        tensor = SparseTensor((2, 2), entries={(0, 1): 2.0, (1, 0): -1.5})
        assert tensor.get((0, 1)) == 2.0
        assert tensor.get((1, 0)) == -1.5
        assert tensor.nnz == 2

    def test_initial_near_zero_entries_are_dropped(self):
        tensor = SparseTensor((2, 2), entries={(0, 0): DROP_TOLERANCE / 2})
        assert tensor.nnz == 0

    def test_zero_mode_length_rejected(self):
        with pytest.raises(ShapeError):
            SparseTensor((3, 0))

    def test_empty_shape_rejected(self):
        with pytest.raises(ShapeError):
            SparseTensor(())

    def test_density(self):
        tensor = SparseTensor((2, 5), entries={(0, 0): 1.0, (1, 4): 1.0})
        assert tensor.density == pytest.approx(0.2)


class TestEntryAccess:
    def test_get_missing_entry_returns_zero(self):
        tensor = SparseTensor((3, 3))
        assert tensor.get((2, 2)) == 0.0

    def test_getitem_setitem(self):
        tensor = SparseTensor((3, 3))
        tensor[1, 2] = 4.0
        assert tensor[1, 2] == 4.0

    def test_set_to_zero_removes_entry(self):
        tensor = SparseTensor((3, 3), entries={(1, 1): 2.0})
        tensor.set((1, 1), 0.0)
        assert tensor.nnz == 0
        assert (1, 1) not in set(tensor.coordinates())

    def test_add_accumulates(self):
        tensor = SparseTensor((3, 3))
        tensor.add((0, 0), 1.5)
        tensor.add((0, 0), 2.5)
        assert tensor.get((0, 0)) == pytest.approx(4.0)

    def test_add_then_subtract_removes_entry(self):
        tensor = SparseTensor((3, 3))
        tensor.add((0, 1), 3.0)
        tensor.add((0, 1), -3.0)
        assert tensor.nnz == 0
        assert tensor.degree(0, 0) == 0
        assert tensor.degree(1, 1) == 0

    def test_wrong_coordinate_length_rejected(self):
        tensor = SparseTensor((3, 3))
        with pytest.raises(ShapeError):
            tensor.get((1, 2, 3))

    def test_out_of_bounds_rejected(self):
        tensor = SparseTensor((3, 3))
        with pytest.raises(IndexOutOfBoundsError):
            tensor.set((3, 0), 1.0)
        with pytest.raises(IndexOutOfBoundsError):
            tensor.set((0, -1), 1.0)


class TestModeIndex:
    def test_mode_slice_returns_matching_entries(self):
        tensor = SparseTensor(
            (3, 3), entries={(0, 0): 1.0, (0, 2): 2.0, (1, 1): 3.0}
        )
        entries = dict(tensor.mode_slice(0, 0))
        assert entries == {(0, 0): 1.0, (0, 2): 2.0}

    def test_degree_counts_nonzeros_per_index(self):
        tensor = SparseTensor(
            (3, 3), entries={(0, 0): 1.0, (0, 2): 2.0, (1, 2): 3.0}
        )
        assert tensor.degree(0, 0) == 2
        assert tensor.degree(0, 1) == 1
        assert tensor.degree(0, 2) == 0
        assert tensor.degree(1, 1) == 0
        assert tensor.degree(1, 2) == 2

    def test_mode_indices(self):
        tensor = SparseTensor((3, 4), entries={(0, 1): 1.0, (2, 1): 1.0})
        assert tensor.mode_indices(0) == {0, 2}
        assert tensor.mode_indices(1) == {1}

    def test_mode_index_updated_on_removal(self):
        tensor = SparseTensor((3, 3), entries={(0, 0): 1.0})
        tensor.set((0, 0), 0.0)
        assert tensor.mode_indices(0) == set()

    def test_invalid_mode_rejected(self):
        tensor = SparseTensor((3, 3))
        with pytest.raises(ShapeError):
            tensor.degree(2, 0)


class TestReductions:
    def test_norm_matches_dense(self, small_tensor):
        dense = small_tensor.to_dense()
        assert small_tensor.norm() == pytest.approx(np.linalg.norm(dense))
        assert small_tensor.squared_norm() == pytest.approx(np.sum(dense**2))

    def test_total(self):
        tensor = SparseTensor((2, 2), entries={(0, 0): 1.5, (1, 1): 2.5})
        assert tensor.total() == pytest.approx(4.0)

    def test_norm_of_empty_tensor_is_zero(self):
        assert SparseTensor((4, 4)).norm() == 0.0

    def test_inner_product_matches_dense(self, rng):
        left = SparseTensor((4, 4))
        right = SparseTensor((4, 4))
        for _ in range(8):
            left.set((int(rng.integers(4)), int(rng.integers(4))), float(rng.normal()))
            right.set((int(rng.integers(4)), int(rng.integers(4))), float(rng.normal()))
        expected = float(np.sum(left.to_dense() * right.to_dense()))
        assert left.inner(right) == pytest.approx(expected)
        assert right.inner(left) == pytest.approx(expected)

    def test_inner_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            SparseTensor((2, 2)).inner(SparseTensor((2, 3)))


class TestGetBatch:
    """``_get_batch_trusted``: the sampler's unchecked gather."""

    def test_values_and_zeros(self):
        tensor = SparseTensor((3, 3), entries={(0, 1): 2.0, (2, 2): -1.5})
        coordinates = np.array([[0, 1], [1, 1], [2, 2]], dtype=np.int64)
        values = tensor._get_batch_trusted(coordinates)
        assert values.dtype == np.float64
        assert values.tolist() == [2.0, 0.0, -1.5]

    def test_matches_get(self, small_tensor, rng):
        coordinates = np.column_stack(
            [rng.integers(0, n, size=50) for n in small_tensor.shape]
        )
        values = small_tensor._get_batch_trusted(coordinates)
        expected = [small_tensor.get(tuple(row)) for row in coordinates.tolist()]
        assert values.tolist() == expected

    def test_empty(self):
        tensor = SparseTensor((2, 2))
        empty = np.empty((0, 2), dtype=np.int64)
        assert tensor._get_batch_trusted(empty).shape == (0,)


class TestIncrementalSquaredNorm:
    def _exact(self, tensor: SparseTensor) -> float:
        return float(sum(value * value for _, value in tensor.items()))

    def test_churn_regression(self, rng):
        """Heavy add/remove/drop-tolerance traffic must not drift the norm.

        The squared norm is maintained incrementally (O(1) reads), so a long
        random mutation history — including exact cancellations and
        sub-tolerance snaps, the hostile cases for an accumulator — must stay
        within float round-off of a from-scratch recompute.
        """
        tensor = SparseTensor((5, 6, 4))
        coordinates = [
            (int(i), int(j), int(k))
            for i, j, k in zip(
                rng.integers(0, 5, size=3000),
                rng.integers(0, 6, size=3000),
                rng.integers(0, 4, size=3000),
            )
        ]
        for step, coordinate in enumerate(coordinates):
            action = step % 5
            if action == 0:
                tensor.add(coordinate, float(rng.normal(scale=10.0)))
            elif action == 1:
                tensor.set(coordinate, float(rng.normal(scale=0.1)))
            elif action == 2:
                # Exact cancellation: forces removal through the add path.
                tensor.add(coordinate, -tensor.get(coordinate))
            elif action == 3:
                # Sub-tolerance value: snapped to zero and dropped.
                tensor.set(coordinate, DROP_TOLERANCE / 3)
            else:
                tensor.add(coordinate, float(rng.normal()))
        assert tensor.nnz > 0
        assert tensor.squared_norm() == pytest.approx(
            self._exact(tensor), rel=1e-9, abs=1e-12
        )
        assert tensor.norm() == pytest.approx(
            math.sqrt(self._exact(tensor)), rel=1e-9, abs=1e-12
        )

    def test_emptied_tensor_has_exactly_zero_norm(self):
        tensor = SparseTensor((2, 2))
        tensor.add((0, 0), 0.1)
        tensor.add((0, 1), 0.3)
        tensor.add((0, 0), -0.1)
        tensor.add((0, 1), -0.3)
        assert tensor.nnz == 0
        assert tensor.squared_norm() == 0.0
        assert tensor.norm() == 0.0

    def test_copy_preserves_norm(self):
        tensor = SparseTensor((2, 2), entries={(0, 0): 3.0, (1, 1): 4.0})
        assert tensor.copy().squared_norm() == tensor.squared_norm()

    def test_recompute_squared_norm_resets_to_exact(self, rng):
        tensor = SparseTensor((5, 5))
        for _ in range(500):
            coordinate = (int(rng.integers(0, 5)), int(rng.integers(0, 5)))
            tensor.add(coordinate, float(rng.normal(scale=100.0)))
        drift = tensor.recompute_squared_norm()
        # The reported drift is whatever the incremental value had wandered;
        # after the call the stored value is the exact compensated sum.
        assert abs(drift) <= 1e-6 * max(tensor.squared_norm(), 1.0)
        assert tensor.squared_norm() == math.fsum(
            value * value for _, value in tensor.items()
        )
        # Recomputing an already-exact value is a no-op.
        assert tensor.recompute_squared_norm() == 0.0

    def test_long_churn_drift_is_bounded_against_rescan(self, rng):
        """Long-churn property: incremental drift stays within an ulp budget.

        Simulates window-like traffic (paired add/subtract of the same float
        through shifting coordinates) for many thousands of mutations and
        bounds the incremental accumulator's drift against a full rescan —
        the guarantee checkpoint restore relies on being allowed to *reset*:
        drift is round-off-sized, never structural.
        """
        tensor = SparseTensor((7, 6, 5))
        live: list[tuple[tuple[int, int, int], float]] = []
        worst_relative_drift = 0.0
        for step in range(12_000):
            if live and step % 3 == 2:
                # Retire an old entry exactly (window shift/expiry pattern).
                coordinate, value = live.pop(int(rng.integers(0, len(live))))
                tensor.add(coordinate, -value)
            else:
                coordinate = (
                    int(rng.integers(0, 7)),
                    int(rng.integers(0, 6)),
                    int(rng.integers(0, 5)),
                )
                value = float(rng.exponential(scale=50.0)) + 1e-3
                tensor.add(coordinate, value)
                live.append((coordinate, value))
            if step % 1000 == 999:
                exact = math.fsum(value * value for _, value in tensor.items())
                drift = abs(tensor.squared_norm() - exact)
                worst_relative_drift = max(
                    worst_relative_drift, drift / max(exact, 1.0)
                )
        # Round-off-level, far below any fitness-affecting magnitude.
        assert worst_relative_drift < 1e-11
        # And a restore-style reset leaves the exact value behind.
        tensor.recompute_squared_norm()
        assert tensor.squared_norm() == math.fsum(
            value * value for _, value in tensor.items()
        )


class TestCooCache:
    def test_unmutated_tensor_returns_cached_arrays(self):
        tensor = SparseTensor((2, 3), entries={(0, 1): 2.0, (1, 2): -1.0})
        first = tensor.to_coo_arrays()
        second = tensor.to_coo_arrays()
        assert first[0] is second[0]
        assert first[1] is second[1]

    def test_mutation_invalidates_cache(self):
        tensor = SparseTensor((2, 3), entries={(0, 1): 2.0})
        indices, values = tensor.to_coo_arrays()
        tensor.add((1, 2), 5.0)
        new_indices, new_values = tensor.to_coo_arrays()
        assert new_indices is not indices
        assert new_values.shape == (2,)
        rebuilt = {
            tuple(index): value for index, value in zip(new_indices, new_values)
        }
        assert rebuilt == {(0, 1): 2.0, (1, 2): 5.0}

    def test_every_mutation_path_bumps_version(self):
        tensor = SparseTensor((2, 2))
        version = tensor.version
        tensor.set((0, 0), 1.0)
        assert tensor.version > version
        version = tensor.version
        tensor.add((0, 1), 2.0)
        assert tensor.version > version
        version = tensor.version
        tensor._add_trusted((1, 1), 3.0)
        assert tensor.version > version
        version = tensor.version
        tensor.set((0, 0), 0.0)  # removal path
        assert tensor.version > version

    def test_cached_empty_tensor(self):
        tensor = SparseTensor((2, 3))
        indices, values = tensor.to_coo_arrays()
        assert indices.shape == (0, 2)
        assert tensor.to_coo_arrays()[0] is indices
        tensor.set((1, 1), 4.0)
        indices, values = tensor.to_coo_arrays()
        assert indices.shape == (1, 2)
        assert values.tolist() == [4.0]

    def test_copy_carries_version_forward(self):
        """Regression: ``copy()`` used to reset the clone's version to 0.

        A caller holding a ``(tensor, version)`` pair from the original
        could then false-match the clone's COO cache once the clone re-used
        the same version numbers at *different* content.  The clone's
        counter must continue from the original's.
        """
        tensor = SparseTensor((3, 3))
        tensor.set((0, 0), 1.0)
        tensor.set((1, 1), 2.0)
        observed_version = tensor.version
        clone = tensor.copy()
        assert clone.version == observed_version
        # A mutation on the clone can never land back on an already-observed
        # version number.
        clone.set((2, 2), 3.0)
        assert clone.version > observed_version

    def test_copy_shares_valid_coo_cache(self):
        tensor = SparseTensor((3, 3), entries={(0, 1): 2.0, (2, 2): -1.0})
        indices, values = tensor.to_coo_arrays()
        clone = tensor.copy()
        # Same version, same content: the clone may serve the cached arrays.
        clone_indices, clone_values = clone.to_coo_arrays()
        assert clone_indices is indices and clone_values is values
        clone.add((1, 1), 4.0)
        fresh_indices, _ = clone.to_coo_arrays()
        assert fresh_indices is not indices
        # The original is unaffected by the clone's mutation.
        assert tensor.to_coo_arrays()[0] is indices

    @pytest.mark.parametrize("nnz", [0, 2])
    def test_cached_arrays_are_read_only(self, nnz):
        entries = {(0, 1): 2.0, (2, 2): -1.0} if nnz else None
        indices, values = SparseTensor((3, 3), entries=entries).to_coo_arrays()
        assert not indices.flags.writeable
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            indices[...] = 0
        with pytest.raises(ValueError):
            values[...] = 0.0

    def test_write_through_shared_cache_cannot_corrupt_a_clone(self):
        tensor = SparseTensor((3, 3), entries={(0, 1): 2.0, (2, 2): -1.0})
        indices, values = tensor.to_coo_arrays()
        clone = tensor.copy()
        factors = [np.arange(6.0).reshape(3, 2), np.ones((3, 2))]
        before = mttkrp(clone, factors, 0)
        with pytest.raises(ValueError):
            values *= 10.0
        with pytest.raises(ValueError):
            indices[0, 0] = 2
        assert np.array_equal(mttkrp(clone, factors, 0), before)


class TestFromCoo:
    def test_round_trip_preserves_storage_order(self, small_tensor):
        indices, values = small_tensor.to_coo_arrays()
        rebuilt = SparseTensor.from_coo(
            small_tensor.shape, indices, values, version=small_tensor.version
        )
        assert rebuilt.version == small_tensor.version
        assert list(rebuilt.items()) == list(small_tensor.items())
        rebuilt_indices, rebuilt_values = rebuilt.to_coo_arrays()
        assert rebuilt_indices.tolist() == indices.tolist()
        assert rebuilt_values.tolist() == values.tolist()
        # Slice enumeration order is reproduced exactly, not just as a set.
        for mode in range(small_tensor.order):
            for index in small_tensor.mode_indices(mode):
                assert list(rebuilt.mode_slice(mode, index)) == list(
                    small_tensor.mode_slice(mode, index)
                )

    def test_squared_norm_is_recomputed_exactly(self, small_tensor):
        indices, values = small_tensor.to_coo_arrays()
        rebuilt = SparseTensor.from_coo(small_tensor.shape, indices, values)
        assert rebuilt.squared_norm() == math.fsum(
            value * value for _, value in small_tensor.items()
        )

    def test_empty_round_trip(self):
        tensor = SparseTensor((2, 3))
        rebuilt = SparseTensor.from_coo(
            tensor.shape, *tensor.to_coo_arrays(), version=7
        )
        assert rebuilt.nnz == 0
        assert rebuilt.version == 7
        assert rebuilt.squared_norm() == 0.0

    def test_rejects_bad_input(self):
        with pytest.raises(ShapeError):
            SparseTensor.from_coo((2, 2), np.zeros((1, 3), dtype=np.int64), [1.0])
        with pytest.raises(ShapeError):
            SparseTensor.from_coo(
                (2, 2), np.zeros((2, 2), dtype=np.int64), [1.0]
            )
        with pytest.raises(ShapeError, match="duplicate"):
            SparseTensor.from_coo(
                (2, 2),
                np.array([[0, 0], [0, 0]], dtype=np.int64),
                [1.0, 2.0],
            )
        with pytest.raises(IndexOutOfBoundsError):
            SparseTensor.from_coo(
                (2, 2), np.array([[0, 5]], dtype=np.int64), [1.0]
            )


class TestConversions:
    def test_dense_roundtrip(self, small_tensor):
        dense = small_tensor.to_dense()
        rebuilt = SparseTensor.from_dense(dense)
        assert rebuilt.allclose(small_tensor)

    def test_to_coo_arrays(self):
        tensor = SparseTensor((2, 3), entries={(0, 1): 2.0, (1, 2): -1.0})
        indices, values = tensor.to_coo_arrays()
        assert indices.shape == (2, 2)
        assert values.shape == (2,)
        rebuilt = {tuple(index): value for index, value in zip(indices, values)}
        assert rebuilt == {(0, 1): 2.0, (1, 2): -1.0}

    def test_to_coo_arrays_empty(self):
        indices, values = SparseTensor((2, 3)).to_coo_arrays()
        assert indices.shape == (0, 2)
        assert values.shape == (0,)

    def test_copy_is_independent(self):
        tensor = SparseTensor((2, 2), entries={(0, 0): 1.0})
        clone = tensor.copy()
        clone.set((0, 0), 5.0)
        clone.set((1, 1), 2.0)
        assert tensor.get((0, 0)) == 1.0
        assert tensor.nnz == 1
        assert clone.nnz == 2

    def test_allclose_detects_difference(self):
        left = SparseTensor((2, 2), entries={(0, 0): 1.0})
        right = SparseTensor((2, 2), entries={(0, 0): 1.0 + 1e-3})
        assert not left.allclose(right)
        assert left.allclose(right, atol=1e-2)

    def test_allclose_shape_mismatch(self):
        assert not SparseTensor((2, 2)).allclose(SparseTensor((2, 3)))


class TestIteration:
    def test_items_and_len(self):
        tensor = SparseTensor((3, 3), entries={(0, 0): 1.0, (1, 2): 2.0})
        assert len(tensor) == 2
        assert dict(tensor.items()) == {(0, 0): 1.0, (1, 2): 2.0}

    def test_mode_slice_snapshot_allows_mutation(self):
        tensor = SparseTensor((3, 3), entries={(0, 0): 1.0, (0, 1): 2.0})
        for coordinate, _ in tensor.mode_slice(0, 0):
            tensor.set(coordinate, 0.0)  # must not raise during iteration
        assert tensor.nnz == 0

    def test_float_nan_not_special_cased(self):
        tensor = SparseTensor((2, 2))
        tensor.set((0, 0), math.inf)
        assert math.isinf(tensor.get((0, 0)))
