"""Relaxed batch update: activation, pinned results, old configs.

The guarantees of :mod:`repro.core.relaxed`:

* ``staleness=None`` is the exact path — nothing attaches, so every
  golden and bit-exactness suite of the exact path is untouched;
* ``staleness=s`` attaches the relaxed update, whose results are a
  deterministic function of (config, stream), pinned below;
* the batch counter and snapshot ride in the model's checkpoint aux
  (resume is covered by ``tests/stream/test_sharded_checkpoint.py``);
* configs saved with a ``shards`` key still load: single-shard ones map
  onto the one ``staleness`` knob, multi-shard ones are refused.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.als.als import decompose
from repro.core.base import SNSConfig
from repro.core.registry import ALGORITHMS, create_algorithm
from repro.core.relaxed import RelaxedBatchUpdate
from repro.data.generators import generate_synthetic_stream
from repro.exceptions import ConfigurationError
from repro.stream.checkpoint import MANIFEST_FILENAME, restore_run
from repro.stream.processor import ContinuousStreamProcessor
from repro.stream.window import WindowConfig

MODE_SIZES = (6, 5)
RANK = 3
N_EVENTS = 150

#: Final fitness after N_EVENTS batched events on the fixture stream, per
#: (variant, staleness).  Recorded from the multi-shard executor this module
#: replaced, run with one shard; the relaxed update reproduced its factors
#: and Grams bit for bit.  ``rel=1e-6`` absorbs BLAS round-off across
#: platforms, as in ``test_golden_fitness.py``.
GOLDEN_RELAXED_FITNESS = {
    ("sns_mat", 0): 0.2634918160006451,
    ("sns_mat", 2): 0.5113293382321082,
    ("sns_rnd", 0): 0.5874671594317846,
    ("sns_rnd", 2): 0.6787394599100633,
    ("sns_rnd_plus", 0): 0.5801482418156901,
    ("sns_rnd_plus", 2): 0.6144216073324162,
    ("sns_vec", 0): 0.26349181599844207,
    ("sns_vec", 2): 0.5113293382334944,
    ("sns_vec_plus", 0): 0.39060427807157305,
    ("sns_vec_plus", 2): 0.6175220161872903,
}


@pytest.fixture(scope="module")
def setup():
    stream = generate_synthetic_stream(
        mode_sizes=MODE_SIZES,
        rank=RANK,
        n_records=300,
        period=10.0,
        records_per_period=30.0,
        seed=3,
    )
    config = WindowConfig(mode_sizes=MODE_SIZES, window_length=3, period=10.0)
    processor = ContinuousStreamProcessor(stream, config)
    initial = decompose(processor.window.tensor, rank=RANK, n_iterations=5, seed=0)
    return stream, config, initial.decomposition


def build(setup, variant, staleness):
    stream, config, initial = setup
    processor = ContinuousStreamProcessor(stream, config)
    model = create_algorithm(
        variant,
        SNSConfig(rank=RANK, theta=5, eta=1000.0, seed=0, staleness=staleness),
    )
    model.initialize(processor.window, initial)
    return processor, model


def run_variant(setup, variant, staleness=None, max_events=N_EVENTS):
    processor, model = build(setup, variant, staleness)
    processor.run_batched(model=model, max_events=max_events)
    return processor, model


@pytest.mark.parametrize("variant, staleness", sorted(GOLDEN_RELAXED_FITNESS))
def test_relaxed_fitness_matches_pinned(setup, variant, staleness):
    _, model = run_variant(setup, variant, staleness=staleness)
    assert model.fitness() == pytest.approx(
        GOLDEN_RELAXED_FITNESS[(variant, staleness)], rel=1e-6
    )


@pytest.mark.parametrize("variant", sorted(ALGORITHMS))
def test_exact_settings_do_not_attach(setup, variant):
    _, model = run_variant(setup, variant, staleness=None)
    assert model._relaxed is None


@pytest.mark.parametrize("variant", sorted(ALGORITHMS))
def test_relaxed_run_is_finite_and_deterministic(setup, variant):
    processor, model = run_variant(setup, variant, staleness=1)
    assert isinstance(model._relaxed, RelaxedBatchUpdate)
    for factor in model.factors:
        assert np.all(np.isfinite(factor))
    # Every event was counted even though updates happen per batch.
    assert model.n_updates == processor.n_events_emitted == N_EVENTS
    _, twin = run_variant(setup, variant, staleness=1)
    for factor, twin_factor in zip(model.factors, twin.factors):
        np.testing.assert_array_equal(factor, twin_factor)


def test_relaxed_counts_batches_and_exposes_aux(setup):
    _, model = run_variant(setup, "sns_vec", staleness=1)
    relaxed = model._relaxed
    assert relaxed.batch_counter > 0
    aux = model.state_dict()["aux"]
    assert int(np.asarray(aux["shard_batch_counter"]).reshape(-1)[0]) == (
        relaxed.batch_counter
    )
    assert "shard_snapshot_factors" in aux
    assert "shard_snapshot_grams" in aux


def test_relaxed_fitness_stays_comparable_to_exact(setup):
    """The relaxation must degrade gracefully, not collapse."""
    _, exact = run_variant(setup, "sns_vec", staleness=None)
    _, relaxed = run_variant(setup, "sns_vec", staleness=2)
    assert np.isfinite(relaxed.fitness())
    assert abs(relaxed.fitness() - exact.fitness()) <= 0.3


def test_negative_staleness_rejected():
    with pytest.raises(ConfigurationError, match="staleness"):
        SNSConfig(rank=RANK, staleness=-1)


# ----------------------------------------------------------------------
# Configs saved with a `shards` key
# ----------------------------------------------------------------------
#: (saved shards, saved staleness) -> staleness after loading.
SINGLE_SHARD_RULES = [
    ((None, None), None),
    ((None, 0), None),
    ((1, None), None),
    ((1, 0), None),
    ((None, 2), 2),
    ((1, 2), 2),
]


def old_encoding(config: SNSConfig, shards, staleness) -> dict:
    return dict(dataclasses.asdict(config), shards=shards, staleness=staleness)


@pytest.mark.parametrize("saved, expected", SINGLE_SHARD_RULES)
def test_from_dict_maps_single_shard_configs(saved, expected):
    config = SNSConfig.from_dict(old_encoding(SNSConfig(rank=RANK), *saved))
    assert config == SNSConfig(rank=RANK, staleness=expected)


def test_from_dict_keeps_new_encoding():
    # Without a `shards` key, staleness 0 means the relaxed path.
    assert SNSConfig.from_dict({"rank": RANK, "staleness": 0}).staleness == 0


@pytest.mark.parametrize("shards", [2, 4])
def test_from_dict_rejects_multi_shard_configs(shards):
    with pytest.raises(ConfigurationError, match="shards"):
        SNSConfig.from_dict(old_encoding(SNSConfig(rank=RANK), shards, 0))


@pytest.mark.parametrize("saved, expected", SINGLE_SHARD_RULES)
def test_load_state_maps_single_shard_configs(setup, saved, expected):
    processor, model = run_variant(setup, "sns_vec", staleness=expected, max_events=40)
    state = model.state_dict()
    state["config"] = old_encoding(model.config, *saved)
    _, other = build(setup, "sns_vec", expected)
    other.load_state(processor.window, state)
    np.testing.assert_array_equal(other.factors[0], model.factors[0])


def test_load_state_rejects_multi_shard_configs(setup):
    processor, model = run_variant(setup, "sns_vec", staleness=0, max_events=40)
    state = model.state_dict()
    state["config"] = old_encoding(model.config, 3, 0)
    _, other = build(setup, "sns_vec", 0)
    with pytest.raises(ConfigurationError, match="shards"):
        other.load_state(processor.window, state)


def save_with_old_keys(processor, model, path, shards, staleness):
    processor.save_checkpoint(path, model=model)
    manifest_path = path / MANIFEST_FILENAME
    manifest = json.loads(manifest_path.read_text())
    manifest["model"]["config"] = old_encoding(model.config, shards, staleness)
    manifest_path.write_text(json.dumps(manifest))


@pytest.mark.parametrize("saved, expected", SINGLE_SHARD_RULES)
def test_restore_run_maps_single_shard_configs(setup, tmp_path, saved, expected):
    processor, model = run_variant(
        setup, "sns_rnd_plus", staleness=expected, max_events=40
    )
    save_with_old_keys(processor, model, tmp_path / "ckpt", *saved)
    _, restored, _ = restore_run(tmp_path / "ckpt")
    assert restored.config == model.config
    assert (restored._relaxed is None) == (expected is None)


def test_restore_run_rejects_multi_shard_configs(setup, tmp_path):
    processor, model = run_variant(setup, "sns_vec", staleness=1, max_events=40)
    save_with_old_keys(processor, model, tmp_path / "ckpt", 4, 1)
    with pytest.raises(ConfigurationError, match="shards"):
        restore_run(tmp_path / "ckpt")


def advance_batches(processor, model, n_batches):
    batches = processor.iter_batches(batch_window=2.0)
    try:
        for applied, batch in enumerate(batches, start=1):
            model.update_batch(batch)
            if applied >= n_batches:
                break
    finally:
        batches.close()  # release the processor's single-drain guard


@pytest.mark.parametrize("variant", sorted(ALGORITHMS))
def test_old_single_shard_checkpoint_continues_bit_identically(
    setup, tmp_path, variant
):
    reference_processor, reference = build(setup, variant, 2)
    advance_batches(reference_processor, reference, 12)

    paused_processor, paused = build(setup, variant, 2)
    advance_batches(paused_processor, paused, 5)  # 5 % 3 != 0: mid interval
    save_with_old_keys(paused_processor, paused, tmp_path / "ckpt", 1, 2)
    restored_processor, restored, _ = restore_run(tmp_path / "ckpt")
    assert restored.config.staleness == 2
    advance_batches(restored_processor, restored, 7)

    assert dict(restored_processor.window.tensor.items()) == dict(
        reference_processor.window.tensor.items()
    )
    assert restored._relaxed.batch_counter == reference._relaxed.batch_counter == 12
    for mine, theirs in zip(
        restored.factors + restored.grams, reference.factors + reference.grams
    ):
        np.testing.assert_array_equal(mine, theirs)
