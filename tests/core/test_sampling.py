"""Unit and property tests for :mod:`repro.core.sampling`."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.sampling as sampling_module
from repro.core.sampling import SliceSampler, sample_slice_coordinates_array
from repro.exceptions import ShapeError


@st.composite
def slice_case(draw):
    """A random slice-sampling request with a mixed exclusion list."""
    order = draw(st.integers(min_value=1, max_value=4))
    shape = tuple(
        draw(st.integers(min_value=1, max_value=6)) for _ in range(order)
    )
    mode = draw(st.integers(min_value=0, max_value=order - 1))
    index = draw(st.integers(min_value=0, max_value=shape[mode] - 1))
    count = draw(st.integers(min_value=0, max_value=40))
    exclude = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        coordinate = list(
            draw(st.integers(min_value=0, max_value=size - 1)) for size in shape
        )
        if draw(st.booleans()):
            coordinate[mode] = index  # land the exclusion inside the slice
        exclude.append(tuple(coordinate))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return shape, mode, index, count, exclude, seed


class TestSampleSliceCoordinatesArray:
    @given(slice_case())
    @settings(max_examples=120, deadline=None)
    def test_invariants(self, case):
        """Bounds, fixed mode, dedup, exclusion, and exact delivery."""
        shape, mode, index, count, exclude, seed = case
        rng = np.random.default_rng(seed)
        samples = sample_slice_coordinates_array(
            shape, mode, index, count, rng, exclude=exclude
        )
        assert samples.dtype == np.int64
        assert samples.ndim == 2 and samples.shape[1] == len(shape)
        assert (samples >= 0).all()
        assert (samples < np.asarray(shape, dtype=np.int64)).all()
        assert (samples[:, mode] == index).all()
        rows = {tuple(row) for row in samples.tolist()}
        assert len(rows) == samples.shape[0]  # no duplicates
        assert rows.isdisjoint(exclude)
        slice_cells = int(
            np.prod([n for m, n in enumerate(shape) if m != mode], dtype=np.int64)
        )
        eligible = slice_cells - len(
            {c for c in exclude if c[mode] == index}
        )
        assert samples.shape[0] == max(0, min(count, eligible))

    def test_deterministic_with_seed(self):
        a = sample_slice_coordinates_array(
            (6, 6, 6), 2, 1, 5, np.random.default_rng(3)
        )
        b = sample_slice_coordinates_array(
            (6, 6, 6), 2, 1, 5, np.random.default_rng(3)
        )
        assert (a == b).all()

    def test_invalid_mode_or_index_rejected(self, rng):
        with pytest.raises(ShapeError):
            sample_slice_coordinates_array((3, 3), 2, 0, 1, rng)
        with pytest.raises(ShapeError):
            sample_slice_coordinates_array((3, 3), 0, 3, 1, rng)

    def test_zero_count_and_everything_excluded(self, rng):
        assert sample_slice_coordinates_array((3, 3), 0, 0, 0, rng).shape == (0, 2)
        exclude = [(1, 0), (1, 1)]
        assert sample_slice_coordinates_array(
            (2, 2), 0, 1, 3, rng, exclude=exclude
        ).shape == (0, 2)

    def test_large_slice_rejection_rounds(self, rng):
        samples = sample_slice_coordinates_array(
            (1000, 1000, 4), mode=2, index=2, count=25, rng=rng
        )
        assert samples.shape == (25, 3)
        assert (samples[:, 2] == 2).all()
        assert len({tuple(row) for row in samples.tolist()}) == 25

    def test_dense_request_delivers_all_eligible(self, rng):
        # count >= eligible: every eligible cell must come back exactly once.
        samples = sample_slice_coordinates_array((3, 2, 2), 0, 1, 50, rng)
        assert samples.shape == (4, 3)
        assert len({tuple(row) for row in samples.tolist()}) == 4

    def test_out_of_bounds_exclusions_are_ignored(self, rng):
        """Regression: an OOB exclusion must neither crash the dense path
        nor alias onto a valid slice offset."""
        samples = sample_slice_coordinates_array(
            (3, 3), 0, 0, 3, rng, exclude=[(0, 5), (0, -1)]
        )
        assert samples.shape == (3, 2)  # all three eligible cells delivered
        # A multi-mode coordinate whose flat offset would alias in-bounds.
        samples = sample_slice_coordinates_array(
            (3, 5, 4), 0, 1, 100, rng, exclude=[(1, 7, 0)]
        )
        assert samples.shape == (20, 3)  # nothing actually excluded

    def test_rejection_cap_falls_back_to_enumeration(self, rng, monkeypatch):
        """The vectorised rejection loop must also never under-deliver."""
        monkeypatch.setattr(sampling_module, "_VECTORIZED_MAX_ROUNDS", 0)
        monkeypatch.setattr(sampling_module, "_DENSE_REQUEST_FRACTION", 2.0)
        samples = sample_slice_coordinates_array((10, 10), 0, 0, 6, rng)
        assert samples.shape == (6, 2)
        assert len({tuple(row) for row in samples.tolist()}) == 6


class TestSliceSampler:
    def test_needs_at_least_one_mode(self):
        assert SliceSampler((4, 3)).shape == (4, 3)
        with pytest.raises(ShapeError):
            SliceSampler(())

    def test_reused_instance_matches_one_shot_draws(self):
        """The per-mode metadata a held sampler amortises changes no draw."""
        shape = (5, 4, 6)
        requests = [(0, 2, 3), (2, 5, 7), (1, 0, 30), (2, 1, 2), (0, 4, 1)]
        held = SliceSampler(shape)
        rng_held = np.random.default_rng(9)
        rng_one_shot = np.random.default_rng(9)
        for mode, index, count in requests:
            exclude = [(index, 0, 0), (0, index % 4, 1)]
            np.testing.assert_array_equal(
                held.sample(mode, index, count, rng_held, exclude=exclude),
                sample_slice_coordinates_array(
                    shape, mode, index, count, rng_one_shot, exclude=exclude
                ),
            )


class TestStatisticalAgreement:
    def test_samples_uniformly(self):
        """The sampler is uniform over the eligible cells.

        4 x 4 slice with one excluded cell → 15 eligible cells; drawing 3
        per call, each cell's inclusion probability is 3/15 = 0.2.  With
        4000 calls the binomial 3-sigma band is ~±0.019, so the ±0.04
        assertion is a >6-sigma bound (and the run is seeded).
        """
        shape, mode, index, count = (4, 4, 3), 2, 1, 3
        exclude = [(0, 0, 1)]
        n_rounds = 4000
        eligible = 15
        expected = count / eligible
        rng = np.random.default_rng(202)
        counts: dict[tuple[int, ...], int] = {}
        for _ in range(n_rounds):
            samples = sample_slice_coordinates_array(
                shape, mode, index, count, rng, exclude=exclude
            )
            for row in samples.tolist():
                counts[tuple(row)] = counts.get(tuple(row), 0) + 1
        assert len(counts) == eligible  # every eligible cell was seen
        for cell, n in counts.items():
            assert n / n_rounds == pytest.approx(expected, abs=0.04), cell
