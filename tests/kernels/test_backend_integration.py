"""Backend selection threaded through configs, models, and checkpoints.

The backend is an *execution* detail: it changes which code computes the
factor math, never the result.  These tests pin the consequences —
``backend`` rides in every config layer, the active backend is recorded
in model state and checkpoint manifests, and state restores across
backends (a checkpoint written under numba loads on a numpy-only box).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.base import SNSConfig
from repro.core.registry import create_algorithm
from repro.exceptions import ConfigurationError
from repro.experiments.config import ExperimentSettings
from repro.kernels import registry
from repro.service.config import StreamConfig
from repro.stream.checkpoint import restore_run


@pytest.fixture(autouse=True)
def clean_registry(monkeypatch):
    monkeypatch.delenv(registry.ENV_VAR, raising=False)
    registry._reset()
    yield
    registry._reset()


@pytest.fixture
def initialized_model(small_processor, small_initial_factors):
    def build(**config_kwargs):
        config = SNSConfig(rank=4, theta=5, eta=100.0, seed=1, **config_kwargs)
        model = create_algorithm("sns_vec", config)
        model.initialize(small_processor.window, small_initial_factors)
        return model

    return build


class TestConfigValidation:
    def test_sns_config_default_is_auto(self):
        assert SNSConfig(rank=3).backend == "auto"

    @pytest.mark.parametrize("config_class, required", [
        (SNSConfig, dict(rank=3)),
        (ExperimentSettings, dict(dataset="nyc_taxi")),
        (StreamConfig, dict(mode_sizes=(3, 2), window_length=2, period=1.0, rank=2)),
    ])
    def test_empty_backend_rejected(self, config_class, required):
        with pytest.raises(ConfigurationError, match="backend"):
            config_class(backend="", **required)

    def test_stream_config_backend_roundtrips(self):
        config = StreamConfig(
            mode_sizes=(3, 2), window_length=2, period=1.0, rank=2,
            backend="numpy",
        )
        assert StreamConfig.from_dict(config.to_dict()).backend == "numpy"


class TestModelBackend:
    def test_kernel_backend_property_reports_resolved_name(self, initialized_model):
        model = initialized_model(backend="numpy")
        assert model.kernel_backend == "numpy"

    def test_unknown_backend_raises_at_construction(self):
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            create_algorithm("sns_vec", SNSConfig(rank=3, backend="typo"))

    def test_unavailable_backend_degrades_with_warning(self, initialized_model):
        if "numba" in registry.available_backends():
            pytest.skip("numba loads here; no degradation to observe")
        with pytest.warns(registry.KernelFallbackWarning):
            model = initialized_model(backend="numba")
        assert model.kernel_backend == "numpy"

    def test_state_dict_records_backend(self, initialized_model):
        state = initialized_model(backend="numpy").state_dict()
        assert state["kernel_backend"] == "numpy"

    def test_load_state_ignores_backend_mismatch(self, initialized_model, small_processor):
        # A checkpoint taken under any backend must restore under any
        # other: the backend is excluded from the config comparison.
        source = initialized_model(backend="numpy")
        state = source.state_dict()
        state["config"] = dict(state["config"], backend="auto")
        target_config = SNSConfig(rank=4, theta=5, eta=100.0, seed=1, backend="numpy")
        target = create_algorithm("sns_vec", target_config)
        target.load_state(small_processor.window, state)
        np.testing.assert_array_equal(target.factors[0], source.factors[0])

    def test_load_state_accepts_pre_backend_checkpoints(
        self, initialized_model, small_processor
    ):
        # Checkpoints written before the backend field existed carry no
        # "backend" key in their config dict; they must still restore.
        source = initialized_model()
        state = source.state_dict()
        legacy_config = dict(state["config"])
        legacy_config.pop("backend")
        state["config"] = legacy_config
        target = create_algorithm(
            "sns_vec", SNSConfig(rank=4, theta=5, eta=100.0, seed=1)
        )
        target.load_state(small_processor.window, state)
        assert target.n_updates == source.n_updates


class TestCheckpointManifest:
    def test_manifest_records_kernel_backend(
        self, tmp_path, initialized_model, small_processor
    ):
        model = initialized_model(backend="numpy")
        path = tmp_path / "ckpt"
        small_processor.save_checkpoint(path, model=model)
        from repro.stream.checkpoint import load_checkpoint

        manifest = load_checkpoint(path).manifest
        assert manifest["model"]["kernel_backend"] == "numpy"

    def test_restore_rebuilds_model_with_saved_backend_config(
        self, tmp_path, initialized_model, small_processor
    ):
        model = initialized_model(backend="numpy")
        path = tmp_path / "ckpt"
        small_processor.save_checkpoint(path, model=model)
        _processor, restored, _extra = restore_run(path)
        assert restored is not None
        assert restored.config.backend == "numpy"
        np.testing.assert_array_equal(restored.factors[1], model.factors[1])
