"""Algorithm-specific tests for the five SliceNStitch variants."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from numpy.linalg._umath_linalg import solve1

from repro.als.als import decompose
from repro.als.mttkrp import mttkrp, mttkrp_row
from repro.core.base import SNSConfig
from repro.core.normalization import normalize_columns
from repro.core.registry import create_algorithm
from repro.core.rowmath import clipped_coordinate_descent
from repro.core.sns_mat import SNSMat
from repro.core.sns_rnd import SNSRnd
from repro.core.sns_rnd_plus import SNSRndPlus
from repro.core.sns_vec import SNSVec
from repro.core.sns_vec_plus import SNSVecPlus
from repro.stream.processor import ContinuousStreamProcessor
from repro.tensor.products import hadamard_all


def first_events(processor, count):
    return list(processor.events(max_events=count))


def next_shift(processor, model):
    """Feed ``model`` events up to the first shift that moves a value between
    two time rows, and return that delta: the window already holds it, the
    model has not seen it yet."""
    for _, delta in processor.events():
        if len(set(delta.time_indices)) == 2:
            return delta
        model.update(delta)
    raise AssertionError("the stream has no two-row shift event")


def time_row_delta(factors, delta, index):
    """``sum_J Δx_J * prod_{n != time} a(n)_{j_n}`` over the entries of time row ``index``."""
    time_mode = len(factors) - 1
    row = np.zeros(factors[0].shape[1])
    for coordinate, value in delta.entries:
        if coordinate[time_mode] == index:
            product = np.ones_like(row)
            for mode in range(time_mode):
                product *= factors[mode][coordinate[mode], :]
            row += value * product
    return row


class TestSNSMat:
    def test_update_equals_one_als_sweep(
        self, small_stream, small_window_config, small_initial_factors
    ):
        """One SNS_MAT update reproduces Algorithm 2 computed by hand."""
        processor = ContinuousStreamProcessor(small_stream, small_window_config)
        model = SNSMat(SNSConfig(rank=4, regularization=0.0))
        model.initialize(processor.window, small_initial_factors)
        # Hand-computed reference starting from the same normalised factors.
        factors = [factor.copy() for factor in model.factors]
        (event, delta), = first_events(processor, 1)
        tensor = processor.window.tensor
        expected_weights = None
        for mode in range(3):
            grams = [f.T @ f for f in factors]
            hadamard = hadamard_all([g for m, g in enumerate(grams) if m != mode])
            updated = mttkrp(tensor, factors, mode) @ np.linalg.pinv(hadamard)
            factors[mode], expected_weights = normalize_columns(updated)
        model.update(delta)
        for maintained, expected in zip(model.factors, factors):
            np.testing.assert_allclose(maintained, expected, atol=1e-7)
        np.testing.assert_allclose(model.weights, expected_weights, atol=1e-7)

    def test_columns_stay_normalised(
        self, small_stream, small_window_config, small_initial_factors
    ):
        processor = ContinuousStreamProcessor(small_stream, small_window_config)
        model = SNSMat(SNSConfig(rank=4))
        model.initialize(processor.window, small_initial_factors)
        for _, delta in processor.events(max_events=20):
            model.update(delta)
        for factor in model.factors:
            np.testing.assert_allclose(
                np.linalg.norm(factor, axis=0), np.ones(4), atol=1e-8
            )

    def test_decomposition_includes_weights(
        self, small_stream, small_window_config, small_initial_factors
    ):
        processor = ContinuousStreamProcessor(small_stream, small_window_config)
        model = SNSMat(SNSConfig(rank=4))
        model.initialize(processor.window, small_initial_factors)
        # Before any update the weighted decomposition must reproduce the
        # initialisation's fitness (normalisation must not change the model).
        original_fitness = small_initial_factors.fitness(processor.window.tensor)
        assert model.fitness() == pytest.approx(original_fitness, abs=1e-8)


class TestSNSVec:
    def test_categorical_row_update_is_exact_least_squares(
        self, small_stream, small_window_config, small_initial_factors
    ):
        """Eq. (12): the updated row solves the row's least-squares problem."""
        processor = ContinuousStreamProcessor(small_stream, small_window_config)
        model = SNSVec(SNSConfig(rank=4, regularization=0.0))
        model.initialize(processor.window, small_initial_factors)
        (event, delta), = first_events(processor, 1)
        model.update(delta)
        tensor = processor.window.tensor
        # Check the row updated *last* by Algorithm 3 (the final categorical
        # mode): all other rows are already at their final values, so the
        # exact least-squares solution can be recomputed from the final state.
        mode = model.order - 2
        index = delta.categorical_indices[mode]
        grams = [f.T @ f for f in model.factors]
        hadamard = hadamard_all([g for m, g in enumerate(grams) if m != mode])
        expected = mttkrp_row(tensor, model.factors, mode, index) @ np.linalg.pinv(
            hadamard
        )
        np.testing.assert_allclose(model.factors[mode][index, :], expected, atol=1e-7)

    def test_time_row_update_uses_additive_rule(
        self, small_stream, small_window_config, small_initial_factors
    ):
        """Eq. (9): the time-mode row moves by ΔX's projection only."""
        processor = ContinuousStreamProcessor(small_stream, small_window_config)
        model = SNSVec(SNSConfig(rank=4, regularization=0.0))
        model.initialize(processor.window, small_initial_factors)
        (event, delta), = first_events(processor, 1)
        time_mode = model.time_mode
        before = {
            index: model.factors[time_mode][index, :].copy()
            for index in delta.time_indices
        }
        hadamard_before = hadamard_all(
            [g for m, g in enumerate(model.grams) if m != time_mode]
        )
        model.update(delta)
        # Reconstruct the expected additive update for the first time row,
        # which is updated before any other row changes.
        first_index = delta.time_indices[0]
        delta_row = np.zeros(4)
        for coordinate, value in delta.entries:
            if coordinate[time_mode] != first_index:
                continue
            product = np.ones(4)
            for mode in range(time_mode):
                product *= small_initial_factors.absorb_weights().factors[mode][
                    coordinate[mode], :
                ]
            delta_row += value * product
        expected = before[first_index] + delta_row @ np.linalg.pinv(hadamard_before)
        np.testing.assert_allclose(
            model.factors[time_mode][first_index, :], expected, atol=1e-7
        )

    def test_both_time_rows_of_a_shift_follow_eq9(
        self, small_stream, small_window_config, small_initial_factors
    ):
        """Both time rows of a shift solve against the pre-event categorical
        Grams, which the first time row's update leaves unchanged."""
        processor = ContinuousStreamProcessor(small_stream, small_window_config)
        model = SNSVec(SNSConfig(rank=4, regularization=0.0))
        model.initialize(processor.window, small_initial_factors)
        delta = next_shift(processor, model)
        time_mode = model.time_mode
        before = [factor.copy() for factor in model.factors]
        inverse = np.linalg.pinv(
            hadamard_all([g for m, g in enumerate(model.grams) if m != time_mode])
        )
        model.update(delta)
        for index in delta.time_indices:
            expected = before[time_mode][index, :] + (
                time_row_delta(before, delta, index) @ inverse
            )
            np.testing.assert_allclose(
                model.factors[time_mode][index, :], expected, rtol=1e-9, atol=1e-9
            )


class TestSNSRnd:
    def test_prev_grams_refresh_each_event(
        self, small_stream, small_window_config, small_initial_factors
    ):
        processor = ContinuousStreamProcessor(small_stream, small_window_config)
        model = SNSRnd(SNSConfig(rank=4, theta=3, seed=0))
        model.initialize(processor.window, small_initial_factors)
        for _, delta in processor.events(max_events=25):
            factors_before = [factor.copy() for factor in model.factors]
            model.update(delta)
            # Eq. (17) invariant: prev_grams == A_prev' A_new for every mode.
            for mode in range(3):
                expected = factors_before[mode].T @ model.factors[mode]
                np.testing.assert_allclose(
                    model.prev_grams[mode], expected, atol=1e-7
                )

    def test_large_theta_matches_exact_row_rule(
        self, small_stream, small_window_config, small_initial_factors
    ):
        """With θ >= every row degree the sampled path is never taken."""
        processor = ContinuousStreamProcessor(small_stream, small_window_config)
        exact = SNSRnd(SNSConfig(rank=4, theta=10_000, seed=0))
        exact.initialize(processor.window, small_initial_factors)
        (event, delta), = first_events(processor, 1)
        exact.update(delta)
        tensor = processor.window.tensor
        # Only the last-updated row can be recomputed from the final factors
        # (earlier rows were solved against factors that changed afterwards).
        mode, index = exact._affected_rows(delta.entries, delta.categorical_indices)[-1]
        grams = [f.T @ f for f in exact.factors]
        hadamard = hadamard_all([g for m, g in enumerate(grams) if m != mode])
        expected = mttkrp_row(tensor, exact.factors, mode, index) @ np.linalg.pinv(
            hadamard
        )
        np.testing.assert_allclose(
            exact.factors[mode][index, :], expected, atol=1e-6
        )


class TestSNSRndPlus:
    @pytest.mark.parametrize("rank", [2, 3], ids=["inf", "nan"])
    def test_non_finite_sweep_falls_back_to_reference_loop(
        self, rank, small_processor
    ):
        """A triangular solve that overflows must not leak into the factors.

        Unit off-diagonals over a ridge-only diagonal blow the unclipped
        sweep up to ±inf (and, at rank 3, to inf - inf = NaN); the clipped
        reference loop stays finite.
        """
        start = decompose(small_processor.window.tensor, rank=rank, n_iterations=2)
        model = SNSRndPlus(SNSConfig(rank=rank, eta=2.0, seed=0))
        model.initialize(small_processor.window, start.decomposition)
        ridge = model.config.regularization
        hadamard = np.ones((rank, rank)) - np.eye(rank)
        numerator = np.zeros(rank)
        numerator[0] = 1e290
        old_row = np.zeros(rank)
        unclipped = solve1(
            np.tril(hadamard) + ridge * np.eye(rank),
            numerator - np.triu(hadamard, 1) @ old_row,
            signature="dd->d",
        )
        assert not np.isfinite(unclipped).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row = model._coordinate_descent(old_row, numerator, hadamard)
        expected = clipped_coordinate_descent(
            old_row, numerator, hadamard, 2.0, -2.0, ridge
        )
        np.testing.assert_array_equal(row, expected)
        assert np.abs(row).max() <= 2.0


class TestSNSVecPlus:
    def test_both_time_rows_of_a_shift_follow_eq22(
        self, small_stream, small_window_config, small_initial_factors
    ):
        """Eq. (22) for both time rows of a shift, with one pre-event
        Hadamard-of-Grams matrix serving both coordinate-descent sweeps."""
        processor = ContinuousStreamProcessor(small_stream, small_window_config)
        config = SNSConfig(rank=4, eta=5.0)
        model = SNSVecPlus(config)
        model.initialize(processor.window, small_initial_factors)
        delta = next_shift(processor, model)
        time_mode = model.time_mode
        before = [factor.copy() for factor in model.factors]
        hadamard = hadamard_all(
            [g for m, g in enumerate(model.grams) if m != time_mode]
        )
        model.update(delta)
        for index in delta.time_indices:
            old_row = before[time_mode][index, :]
            numerator = old_row @ hadamard + time_row_delta(before, delta, index)
            expected = clipped_coordinate_descent(
                old_row, numerator, hadamard, config.eta, -config.eta,
                config.regularization,
            )
            np.testing.assert_allclose(
                model.factors[time_mode][index, :], expected, rtol=1e-9, atol=1e-9
            )


class TestClipping:
    @pytest.mark.parametrize("algorithm_class", [SNSVecPlus, SNSRndPlus])
    def test_entries_never_exceed_eta(
        self,
        algorithm_class,
        small_stream,
        small_window_config,
        small_initial_factors,
    ):
        eta = 0.6
        processor = ContinuousStreamProcessor(small_stream, small_window_config)
        model = algorithm_class(SNSConfig(rank=4, theta=4, eta=eta, seed=0))
        model.initialize(processor.window, small_initial_factors)
        touched: set[tuple[int, int]] = set()
        for _, delta in processor.events(max_events=200):
            model.update(delta)
            touched |= set(
                model._affected_rows(delta.entries, delta.categorical_indices)
            )
        for mode, index in touched:
            assert np.all(np.abs(model.factors[mode][index, :]) <= eta + 1e-12)

    @pytest.mark.parametrize("name", ["sns_vec_plus", "sns_rnd_plus"])
    def test_large_eta_behaves_like_unclipped(self, name, small_stream,
                                              small_window_config,
                                              small_initial_factors):
        """With a huge η the stable variants still track the window sensibly."""
        processor = ContinuousStreamProcessor(small_stream, small_window_config)
        model = create_algorithm(name, SNSConfig(rank=4, theta=5, eta=1e9, seed=0))
        model.initialize(processor.window, small_initial_factors)
        for _, delta in processor.events(max_events=150):
            model.update(delta)
        assert np.isfinite(model.fitness())
        assert model.fitness() > 0.0


class TestRegistryIntegration:
    def test_every_registered_algorithm_has_matching_name(self):
        from repro.core.registry import ALGORITHMS

        for name, algorithm_class in ALGORITHMS.items():
            assert algorithm_class.name == name
