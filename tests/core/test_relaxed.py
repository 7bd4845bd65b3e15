"""Relaxed batch update: activation, pinned results, old configs, accuracy.

The guarantees of :mod:`repro.core.relaxed`:

* ``relaxed=False`` is the exact path — the relaxed update never runs, so
  every golden and bit-exactness suite of the exact path is untouched;
* ``relaxed=True`` runs the block Gauss-Seidel update, whose results are a
  deterministic function of (config, stream), pinned below;
* the five variants collapse onto two row rules, so relaxed SNS_RND equals
  relaxed SNS_VEC and relaxed SNS+_RND equals relaxed SNS+_VEC bit for bit
  (θ is unused);
* the update keeps no state of its own (resume is covered by
  ``tests/stream/test_sharded_checkpoint.py``);
* configs saved with ``shards`` / ``staleness`` keys still load:
  ``staleness`` ``None`` maps onto the exact path and any integer onto the
  relaxed one; multi-shard configs and model state carrying the old
  snapshot's ``shard_*`` aux entries are refused;
* on many-batch workloads the relaxed fitness stays positive and close to
  the exact run's (the snapshot-based Jacobi update diverged there).
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.als.als import decompose
from repro.core.base import SNSConfig
from repro.core.registry import ALGORITHMS, create_algorithm
from repro.data.generators import generate_synthetic_stream
from repro.exceptions import ConfigurationError
from repro.experiments.config import ExperimentSettings
from repro.experiments.runner import prepare_experiment
from repro.stream.checkpoint import MANIFEST_FILENAME, restore_run
from repro.stream.processor import ContinuousStreamProcessor
from repro.stream.window import WindowConfig

MODE_SIZES = (6, 5)
RANK = 3
N_EVENTS = 150

#: Final fitness after N_EVENTS batched events on the fixture stream, per
#: variant, with ``relaxed=True``.  ``rel=1e-6`` absorbs BLAS round-off
#: across platforms, as in ``test_golden_fitness.py``.
GOLDEN_RELAXED_FITNESS = {
    "sns_mat": 0.7356106904685966,
    "sns_rnd": 0.7356106904690263,
    "sns_rnd_plus": 0.6313248664528073,
    "sns_vec": 0.7356106904690263,
    "sns_vec_plus": 0.6313248664528073,
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


def build(setup, variant, relaxed):
    stream, config, initial = setup
    processor = ContinuousStreamProcessor(stream, config)
    model = create_algorithm(
        variant,
        SNSConfig(rank=RANK, theta=5, eta=1000.0, seed=0, relaxed=relaxed),
    )
    model.initialize(processor.window, initial)
    return processor, model


def run_variant(setup, variant, relaxed=False, max_events=N_EVENTS):
    processor, model = build(setup, variant, relaxed)
    processor.run_batched(model=model, max_events=max_events)
    return processor, model


@pytest.mark.parametrize("variant", sorted(GOLDEN_RELAXED_FITNESS))
def test_relaxed_fitness_matches_pinned(setup, variant):
    _, model = run_variant(setup, variant, relaxed=True)
    assert model.fitness() == pytest.approx(
        GOLDEN_RELAXED_FITNESS[variant], rel=1e-6
    )


@pytest.mark.parametrize("variant", sorted(ALGORITHMS))
def test_exact_settings_never_run_the_relaxed_update(setup, variant, monkeypatch):
    def refuse(model, batch):
        raise AssertionError("the relaxed update ran on the exact path")

    monkeypatch.setattr("repro.core.base.relaxed_update_batch", refuse)
    _, model = run_variant(setup, variant, relaxed=False)
    assert model.n_updates == N_EVENTS


@pytest.mark.parametrize("variant", sorted(ALGORITHMS))
def test_relaxed_run_is_finite_and_deterministic(setup, variant):
    processor, model = run_variant(setup, variant, relaxed=True)
    for factor in model.factors:
        assert np.all(np.isfinite(factor))
    # Every event was counted even though updates happen per batch.
    assert model.n_updates == processor.n_events_emitted == N_EVENTS
    _, twin = run_variant(setup, variant, relaxed=True)
    for factor, twin_factor in zip(model.factors, twin.factors):
        np.testing.assert_array_equal(factor, twin_factor)


@pytest.mark.parametrize(
    "sampled, unsampled", [("sns_rnd", "sns_vec"), ("sns_rnd_plus", "sns_vec_plus")]
)
def test_sampled_variants_collapse_onto_their_row_rule(setup, sampled, unsampled):
    _, mine = run_variant(setup, sampled, relaxed=True)
    _, theirs = run_variant(setup, unsampled, relaxed=True)
    for a, b in zip(mine.factors + mine.grams, theirs.factors + theirs.grams):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("variant", sorted(ALGORITHMS))
def test_relaxed_state_is_the_models_own(setup, variant):
    # No snapshot, counter or sampler: the relaxed checkpoint aux is exactly
    # what the variant's exact model saves.
    _, relaxed = run_variant(setup, variant, relaxed=True, max_events=40)
    _, exact = run_variant(setup, variant, relaxed=False, max_events=40)
    assert set(relaxed.state_dict()["aux"]) == set(exact.state_dict()["aux"])


def test_relaxed_fitness_stays_close_to_exact(setup):
    _, exact = run_variant(setup, "sns_vec", relaxed=False)
    _, relaxed = run_variant(setup, "sns_vec", relaxed=True)
    assert np.isfinite(relaxed.fitness())
    assert abs(relaxed.fitness() - exact.fitness()) <= 0.05


@pytest.mark.parametrize("value", [1, 0, None, "false"])
def test_non_boolean_relaxed_rejected(value):
    with pytest.raises(ConfigurationError, match="relaxed"):
        SNSConfig(rank=RANK, relaxed=value)


# ----------------------------------------------------------------------
# Configs saved with `shards` / `staleness` keys
# ----------------------------------------------------------------------
#: (saved shards, saved staleness) -> relaxed after loading.
SHARDS_RULES = [
    ((None, None), False),
    ((None, 0), False),
    ((1, None), False),
    ((1, 0), False),
    ((None, 2), True),
    ((1, 2), True),
]


def old_encoding(config: SNSConfig, shards, staleness) -> dict:
    fields = dataclasses.asdict(config)
    del fields["relaxed"]
    return dict(fields, shards=shards, staleness=staleness)


@pytest.mark.parametrize("saved, expected", SHARDS_RULES)
def test_from_dict_maps_single_shard_configs(saved, expected):
    config = SNSConfig.from_dict(old_encoding(SNSConfig(rank=RANK), *saved))
    assert config == SNSConfig(rank=RANK, relaxed=expected)


@pytest.mark.parametrize(
    "staleness, expected", [(None, False), (0, True), (1, True), (8, True)]
)
def test_from_dict_maps_saved_staleness(staleness, expected):
    assert SNSConfig.from_dict({"rank": RANK, "staleness": staleness}) == SNSConfig(
        rank=RANK, relaxed=expected
    )


@pytest.mark.parametrize("shards", [2, 4])
def test_from_dict_rejects_multi_shard_configs(shards):
    with pytest.raises(ConfigurationError, match="shards"):
        SNSConfig.from_dict(old_encoding(SNSConfig(rank=RANK), shards, 0))


@pytest.mark.parametrize("saved, expected", SHARDS_RULES)
def test_load_state_maps_single_shard_configs(setup, saved, expected):
    processor, model = run_variant(setup, "sns_vec", relaxed=expected, max_events=40)
    state = model.state_dict()
    state["config"] = old_encoding(model.config, *saved)
    _, other = build(setup, "sns_vec", expected)
    other.load_state(processor.window, state)
    np.testing.assert_array_equal(other.factors[0], model.factors[0])


def test_load_state_rejects_multi_shard_configs(setup):
    processor, model = run_variant(setup, "sns_vec", relaxed=True, max_events=40)
    state = model.state_dict()
    state["config"] = old_encoding(model.config, 3, 0)
    _, other = build(setup, "sns_vec", True)
    with pytest.raises(ConfigurationError, match="shards"):
        other.load_state(processor.window, state)


def test_load_state_rejects_snapshot_aux(setup):
    processor, model = run_variant(setup, "sns_vec", relaxed=True, max_events=40)
    state = model.state_dict()
    state["config"] = old_encoding(model.config, None, 2)
    state["aux"]["shard_batch_counter"] = np.array([5.0])
    _, other = build(setup, "sns_vec", True)
    with pytest.raises(ConfigurationError, match="shard_batch_counter"):
        other.load_state(processor.window, state)


def save_with_old_keys(processor, model, path, shards, staleness):
    processor.save_checkpoint(path, model=model)
    manifest_path = path / MANIFEST_FILENAME
    manifest = json.loads(manifest_path.read_text())
    manifest["model"]["config"] = old_encoding(model.config, shards, staleness)
    manifest_path.write_text(json.dumps(manifest))


@pytest.mark.parametrize("saved, expected", SHARDS_RULES)
def test_restore_run_maps_single_shard_configs(setup, tmp_path, saved, expected):
    processor, model = run_variant(
        setup, "sns_rnd_plus", relaxed=expected, max_events=40
    )
    save_with_old_keys(processor, model, tmp_path / "ckpt", *saved)
    _, restored, _ = restore_run(tmp_path / "ckpt")
    assert restored.config == model.config
    assert restored.config.relaxed is expected


def test_restore_run_rejects_multi_shard_configs(setup, tmp_path):
    processor, model = run_variant(setup, "sns_vec", relaxed=True, max_events=40)
    save_with_old_keys(processor, model, tmp_path / "ckpt", 4, 1)
    with pytest.raises(ConfigurationError, match="shards"):
        restore_run(tmp_path / "ckpt")


def test_restore_run_rejects_snapshot_aux(setup, tmp_path):
    # What the snapshot-based relaxed update wrote into every checkpoint.
    processor, model = run_variant(setup, "sns_vec", relaxed=True, max_events=40)
    model._aux_state = lambda: {
        "shard_batch_counter": np.array([5.0]),
        "shard_snapshot_factors": [factor.copy() for factor in model.factors],
        "shard_snapshot_grams": [gram.copy() for gram in model.grams],
    }
    save_with_old_keys(processor, model, tmp_path / "ckpt", None, 1)
    with pytest.raises(ConfigurationError, match="shard_"):
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
def test_old_exact_checkpoint_continues_bit_identically(setup, tmp_path, variant):
    # Exact runs saved with the old encoding (shards=1, staleness=0) carry
    # no snapshot aux, so they continue on the exact path.
    reference_processor, reference = build(setup, variant, False)
    advance_batches(reference_processor, reference, 12)

    paused_processor, paused = build(setup, variant, False)
    advance_batches(paused_processor, paused, 5)
    save_with_old_keys(paused_processor, paused, tmp_path / "ckpt", 1, 0)
    restored_processor, restored, _ = restore_run(tmp_path / "ckpt")
    assert restored.config.relaxed is False
    advance_batches(restored_processor, restored, 7)

    assert dict(restored_processor.window.tensor.items()) == dict(
        reference_processor.window.tensor.items()
    )
    for mine, theirs in zip(
        restored.factors + restored.grams, reference.factors + reference.grams
    ):
        np.testing.assert_array_equal(mine, theirs)


# ----------------------------------------------------------------------
# Accuracy on a many-batch workload (the Jacobi update diverged here)
# ----------------------------------------------------------------------
ACCURACY_BOUND = 0.05


@pytest.fixture(scope="module")
def ride_austin():
    return prepare_experiment(
        ExperimentSettings(dataset="ride_austin", scale=0.1, max_events=1000)
    )


def drive(prepared, method, relaxed, batch_window):
    stream, spec, window_config, initial, _initial_fitness = prepared
    processor = ContinuousStreamProcessor(stream, window_config)
    model = create_algorithm(
        method,
        SNSConfig(
            rank=spec.rank, theta=spec.theta, eta=spec.eta, seed=0, relaxed=relaxed
        ),
    )
    model.initialize(processor.window, initial)
    fitnesses = []
    for batch in processor.iter_batches(max_events=1000, batch_window=batch_window):
        model.update_batch(batch)
        if relaxed:
            fitnesses.append(model.fitness())
    return model, fitnesses


@pytest.mark.parametrize("method", ["sns_vec", "sns_vec_plus"])
def test_relaxed_tracks_exact_over_many_batches(ride_austin, method):
    exact, _ = drive(ride_austin, method, False, None)
    period = ride_austin[2].period
    for divisor in (16, 4, 1):
        relaxed, fitnesses = drive(ride_austin, method, True, period / divisor)
        assert all(np.all(np.isfinite(factor)) for factor in relaxed.factors)
        assert min(fitnesses) > 0.0, f"T/{divisor}: fitness went negative"
        deviation = abs(relaxed.fitness() - exact.fitness())
        assert deviation <= ACCURACY_BOUND, f"T/{divisor}: deviation {deviation}"
