"""Unit tests for :mod:`repro.core.base` (shared algorithm infrastructure)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.base import SNSConfig
from repro.core.sns_vec import SNSVec
from repro.exceptions import (
    CheckpointError,
    ConfigurationError,
    NotFittedError,
    RankError,
    ShapeError,
)
from repro.kernels import empty_overrides
from repro.stream.deltas import Delta
from repro.stream.events import EventKind, StreamRecord, WindowEvent
from repro.stream.window import TensorWindow, WindowConfig
from repro.tensor.random import random_factors


class TestSNSConfig:
    def test_defaults(self):
        config = SNSConfig(rank=5)
        assert config.theta == 20
        assert config.eta == 1000.0

    @pytest.mark.parametrize(
        ("kwargs", "exception"),
        [
            ({"rank": 0}, RankError),
            ({"rank": 3, "theta": 0}, ConfigurationError),
            ({"rank": 3, "eta": 0.0}, ConfigurationError),
            ({"rank": 3, "regularization": -1.0}, ConfigurationError),
        ],
    )
    def test_invalid(self, kwargs, exception):
        with pytest.raises(exception):
            SNSConfig(**kwargs)

    def test_from_dict_reads_what_state_dict_writes(self):
        config = SNSConfig(rank=3, theta=7, eta=50, nonnegative=True, seed=None)
        saved = dataclasses.asdict(config)
        del saved["backend"]
        assert SNSConfig.from_dict(saved) == config

    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(SNSConfig) if f.name != "backend"]
    )
    def test_from_dict_requires_every_field_but_backend(self, field):
        saved = dataclasses.asdict(SNSConfig(rank=3))
        del saved[field]
        with pytest.raises(CheckpointError, match=field):
            SNSConfig.from_dict(saved)

    @pytest.mark.parametrize("key", ["sampling", "shards", "staleness", "typo"])
    def test_from_dict_refuses_unknown_keys(self, key):
        saved = dict(dataclasses.asdict(SNSConfig(rank=3)), **{key: None})
        with pytest.raises(CheckpointError, match=key):
            SNSConfig.from_dict(saved)

    @pytest.mark.parametrize(
        "field, value",
        [("rank", "3"), ("theta", 2.5), ("eta", True), ("seed", "x"), ("relaxed", 1)],
    )
    def test_from_dict_refuses_mistyped_values(self, field, value):
        saved = dict(dataclasses.asdict(SNSConfig(rank=3)), **{field: value})
        with pytest.raises(CheckpointError, match=field):
            SNSConfig.from_dict(saved)

    @pytest.mark.parametrize("saved", ["nope", 5, [1, 2], None])
    def test_from_dict_refuses_what_is_not_an_object(self, saved):
        with pytest.raises(CheckpointError, match="not a JSON object"):
            SNSConfig.from_dict(saved)


class TestLifecycle:
    @pytest.fixture
    def window(self) -> TensorWindow:
        return TensorWindow(WindowConfig(mode_sizes=(4, 3), window_length=3, period=1.0))

    def test_use_before_initialize_raises(self, window):
        model = SNSVec(SNSConfig(rank=2))
        with pytest.raises(NotFittedError):
            _ = model.factors
        with pytest.raises(NotFittedError):
            model.fitness()

    def test_initialize_validates_factor_count(self, window, rng):
        model = SNSVec(SNSConfig(rank=2))
        with pytest.raises(ShapeError):
            model.initialize(window, random_factors((4, 3), rank=2, rng=rng))

    def test_initialize_validates_factor_shapes(self, window, rng):
        model = SNSVec(SNSConfig(rank=2))
        with pytest.raises(ShapeError):
            model.initialize(window, random_factors((4, 3, 5), rank=2, rng=rng))

    def test_initialize_copies_factors(self, window, rng):
        factors = random_factors((4, 3, 3), rank=2, rng=rng)
        model = SNSVec(SNSConfig(rank=2))
        model.initialize(window, factors)
        factors[0][0, 0] = 42.0
        assert model.factors[0][0, 0] != 42.0

    def test_properties_after_initialize(self, window, rng):
        model = SNSVec(SNSConfig(rank=2))
        model.initialize(window, random_factors((4, 3, 3), rank=2, rng=rng))
        assert model.order == 3
        assert model.time_mode == 2
        assert model.rank == 2
        assert model.n_parameters == 2 * (4 + 3 + 3)
        assert model.n_updates == 0

    def test_affected_rows_order(self, window, rng):
        model = SNSVec(SNSConfig(rank=2))
        model.initialize(window, random_factors((4, 3, 3), rank=2, rng=rng))
        record = StreamRecord((2, 1), 1.0, 0.0)
        event = WindowEvent(1.0, 0, EventKind.SHIFT, record, 1)
        delta = Delta.from_event(event, 3)
        rows = model._affected_rows(delta.entries, delta.categorical_indices)
        # Time-mode rows first (newest-but-one then its neighbour), then
        # one row per categorical mode.
        assert rows == [(2, 2), (2, 1), (0, 2), (1, 1)]

    def test_reconstruction_at_matches_decomposition(self, window, rng):
        model = SNSVec(SNSConfig(rank=2))
        model.initialize(window, random_factors((4, 3, 3), rank=2, rng=rng))
        coordinate = (1, 2, 0)
        assert model.reconstruction_at(coordinate) == pytest.approx(
            model.decomposition.value_at(coordinate)
        )

    def test_decomposition_is_a_copy(self, window, rng):
        model = SNSVec(SNSConfig(rank=2))
        model.initialize(window, random_factors((4, 3, 3), rank=2, rng=rng))
        decomposition = model.decomposition
        decomposition.factors[0][0, 0] += 100.0
        assert model.factors[0][0, 0] != decomposition.factors[0][0, 0]

    def test_reconstruct_coords_kernel_matches_reconstruction_at(self, window, rng):
        model = SNSVec(SNSConfig(rank=3))
        model.initialize(window, random_factors((4, 3, 3), rank=3, rng=rng))
        coordinates = [(0, 1, 2), (3, 2, 0), (1, 0, 1)]
        values = model._kernels.reconstruct_coords(
            coordinates, model.factors, *empty_overrides(3)
        )
        for value, coordinate in zip(values, coordinates):
            assert value == pytest.approx(model.reconstruction_at(coordinate))
        # An override replaces the (mode 0, index 2) row in the gathers.
        values = model._kernels.reconstruct_coords(
            [(2, 1, 1)], model.factors, np.array([0]), np.array([2]), np.zeros((1, 3))
        )
        assert values[0] == pytest.approx(0.0)
