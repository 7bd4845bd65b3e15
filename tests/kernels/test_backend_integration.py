"""``SNSConfig.backend`` through models and checkpoints.

The kernels are not a model hyper-parameter: ``backend`` only names the
registered kernels a model calls (the numpy ones unless a caller registered
others).  A model's state leaves it out, so a checkpoint restores onto
whatever ``"auto"`` resolves to and continues bit for bit.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.core.base import SNSConfig
from repro.core.registry import create_algorithm
from repro.exceptions import ConfigurationError
from repro.stream.checkpoint import MANIFEST_FILENAME, restore_run
from repro.stream.processor import ContinuousStreamProcessor


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

    def test_empty_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="backend"):
            SNSConfig(rank=3, backend="")

    @pytest.mark.parametrize("backend", [5, None])
    def test_non_string_backend_rejected(self, backend):
        with pytest.raises(ConfigurationError, match="backend"):
            SNSConfig(rank=3, backend=backend)
        saved = dict(dataclasses.asdict(SNSConfig(rank=3)), backend=backend)
        with pytest.raises(ConfigurationError, match="backend"):
            SNSConfig.from_dict(saved)


class TestModelBackend:
    def test_unknown_backend_raises_at_construction(self):
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            create_algorithm("sns_vec", SNSConfig(rank=3, backend="typo"))

    def test_load_state_ignores_backend_mismatch(self, initialized_model, small_processor):
        source = initialized_model()
        state = source.state_dict()
        target_config = SNSConfig(rank=4, theta=5, eta=100.0, seed=1, backend="numpy")
        target = create_algorithm("sns_vec", target_config)
        target.load_state(small_processor.window, state)
        np.testing.assert_array_equal(target.factors[0], source.factors[0])


def test_state_and_manifest_leave_the_kernels_out(
    tmp_path, initialized_model, small_processor
):
    # Which kernels ran is not part of a model's state: neither the name a
    # model was given nor what it resolved to is recorded.
    model = initialized_model(backend="numpy")
    state = model.state_dict()
    assert "kernel_backend" not in state
    assert "backend" not in state["config"]
    small_processor.save_checkpoint(tmp_path / "ckpt", model=model)
    manifest = json.loads((tmp_path / "ckpt" / MANIFEST_FILENAME).read_text())
    assert "kernel_backend" not in manifest["model"]
    assert "backend" not in manifest["model"]["config"]


def test_checkpoint_of_named_kernels_restores_on_auto_and_continues(
    tmp_path, small_stream, small_window_config, small_initial_factors
):
    def started(**config_kwargs):
        processor = ContinuousStreamProcessor(small_stream, small_window_config)
        model = create_algorithm(
            "sns_rnd_plus",
            SNSConfig(rank=4, theta=5, eta=100.0, seed=1, **config_kwargs),
        )
        model.initialize(processor.window, small_initial_factors)
        return processor, model

    def advance(processor, model, n_events):
        for _, delta in processor.events(max_events=n_events):
            model.update(delta)

    reference_processor, reference = started()
    advance(reference_processor, reference, 120)

    paused_processor, paused = started(backend="numpy")
    advance(paused_processor, paused, 60)
    path = tmp_path / "ckpt"
    paused_processor.save_checkpoint(path, model=paused)

    processor, restored, _ = restore_run(path)
    assert restored is not None and restored.name == "sns_rnd_plus"
    assert restored.config == reference.config
    advance(processor, restored, 60)
    assert restored.n_updates == reference.n_updates
    for mine, theirs in zip(restored.factors, reference.factors):
        assert np.array_equal(mine, theirs)
