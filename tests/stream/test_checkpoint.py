"""Unit tests for the checkpoint/restore subsystem (repro.stream.checkpoint).

The exact-equivalence guarantee across all variants and engines lives in
``test_checkpoint_equivalence.py``; this module covers the format itself and
the edge cases: empty-window snapshots, snapshots taken between simultaneous
events (mid-tie), manifest validation, the model state protocol (including
configs saved with a ``sampling`` key), and the persisted event counter.
"""

from __future__ import annotations

import gc
import json
import weakref

import numpy as np
import pytest

from repro.als.als import decompose
from repro.core.base import SNSConfig
from repro.core.registry import create_algorithm
from repro.exceptions import ConfigurationError
from repro.stream.checkpoint import (
    ARRAYS_FILENAME,
    FORMAT_VERSION,
    MANIFEST_FILENAME,
    SNAPSHOT_FORMAT_VERSION,
    is_checkpoint,
    is_experiment_snapshot,
    load_checkpoint,
    load_experiment_snapshot,
    restore_run,
    save_checkpoint,
    save_experiment_snapshot,
)
from repro.stream.events import EventKind, StreamRecord
from repro.stream.processor import ContinuousStreamProcessor
from repro.stream.stream import MultiAspectStream
from repro.stream.window import WindowConfig


def drain_pairs(processor, max_events=None):
    """Collect ``(time, sequence, kind, step, indices)`` of emitted events."""
    return [
        (event.time, event.sequence, event.kind, event.step, event.record.indices)
        for event, _ in processor.events(max_events=max_events)
    ]


class TestRoundTrip:
    def test_processor_only_round_trip(self, small_processor, tmp_path):
        small_processor.run(max_events=50)
        small_processor.save_checkpoint(tmp_path / "ckpt")
        assert is_checkpoint(tmp_path / "ckpt")
        restored, model, extra = restore_run(tmp_path / "ckpt")
        assert model is None
        assert extra is None
        assert restored.start_time == small_processor.start_time
        assert restored.n_events_emitted == small_processor.n_events_emitted
        assert restored.n_pending_records == small_processor.n_pending_records
        assert dict(restored.window.tensor.items()) == dict(
            small_processor.window.tensor.items()
        )
        # The remaining event sequence is bit-identical, ties included.
        assert drain_pairs(restored) == drain_pairs(small_processor)

    def test_restore_builds_no_stream(self, small_processor, tmp_path, monkeypatch):
        # The saved pending records are adopted as they are, not passed
        # through a throwaway MultiAspectStream's validation.
        small_processor.run(max_events=50)
        small_processor.save_checkpoint(tmp_path / "ckpt")
        assert small_processor.n_pending_records > 0

        def refuse(self, *args, **kwargs):
            raise AssertionError("the restore built a MultiAspectStream")

        monkeypatch.setattr(MultiAspectStream, "__init__", refuse)
        restored, _, _ = restore_run(tmp_path / "ckpt")
        monkeypatch.undo()
        assert restored.n_pending_records == small_processor.n_pending_records
        assert drain_pairs(restored) == drain_pairs(small_processor)

    def test_processor_keeps_no_reference_to_its_stream(
        self, small_stream, small_window_config
    ):
        stream = MultiAspectStream(list(small_stream), mode_sizes=(8, 7))
        processor = ContinuousStreamProcessor(stream, small_window_config)
        alive = weakref.ref(stream)
        del stream
        gc.collect()
        assert alive() is None
        assert processor.n_pending_records > 0

    def test_from_checkpoint_classmethod(self, small_processor, tmp_path):
        small_processor.run(max_events=25)
        small_processor.save_checkpoint(tmp_path / "ckpt")
        restored = ContinuousStreamProcessor.from_checkpoint(tmp_path / "ckpt")
        assert drain_pairs(restored) == drain_pairs(small_processor)

    def test_extra_payload_round_trips(self, small_processor, tmp_path):
        payload = {"n_events": 7, "series": [1.0, 0.5]}
        small_processor.save_checkpoint(tmp_path / "ckpt", extra=payload)
        _, _, extra = restore_run(tmp_path / "ckpt")
        assert extra == payload

    def test_empty_window_snapshot(self, tmp_path):
        # One record, start_time far enough out that it expired before
        # streaming begins and nothing is pending inside the window.
        stream = MultiAspectStream(
            [StreamRecord(indices=(0, 0), value=1.0, time=0.0)], mode_sizes=(2, 2)
        )
        config = WindowConfig(mode_sizes=(2, 2), window_length=2, period=1.0)
        processor = ContinuousStreamProcessor(stream, config, start_time=100.0)
        assert processor.window.nnz == 0
        assert not processor.has_pending_events
        processor.save_checkpoint(tmp_path / "ckpt")
        restored, _, _ = restore_run(tmp_path / "ckpt")
        assert restored.window.nnz == 0
        assert restored.window.tensor.squared_norm() == 0.0
        assert not restored.has_pending_events
        assert drain_pairs(restored) == []

    def test_mid_event_tie_snapshot(self, tmp_path):
        # With period 10 and records at t=0 and t=10, the t=0 record's first
        # shift fires at exactly t=10 — simultaneous with the t=10 arrival.
        # Checkpoint *before* the tie fires, then check the restored run
        # resolves it identically (scheduled events win, in sequence order).
        records = [
            StreamRecord(indices=(0,), value=1.0, time=0.0),
            StreamRecord(indices=(1,), value=2.0, time=0.0),
            StreamRecord(indices=(0,), value=3.0, time=10.0),
            StreamRecord(indices=(1,), value=4.0, time=20.0),
        ]
        stream = MultiAspectStream(records, mode_sizes=(2,))
        config = WindowConfig(mode_sizes=(2,), window_length=3, period=10.0)
        reference = ContinuousStreamProcessor(stream, config, start_time=5.0)
        paused = ContinuousStreamProcessor(stream, config, start_time=5.0)
        reference_pairs = drain_pairs(reference)
        paused.run(end_time=5.0)  # nothing fired yet; ties are all pending
        paused.save_checkpoint(tmp_path / "ckpt")
        restored, _, _ = restore_run(tmp_path / "ckpt")
        assert drain_pairs(restored) == reference_pairs
        assert dict(restored.window.tensor.items()) == dict(
            reference.window.tensor.items()
        )

    def test_mid_tie_snapshot_between_simultaneous_events(self, tmp_path):
        # Stop *between* two events that fire at the same instant (a shift
        # and an arrival at t=10): max_events cuts after the shift, so the
        # checkpointed scheduler still holds its half of the tie.
        records = [
            StreamRecord(indices=(0,), value=1.0, time=0.0),
            StreamRecord(indices=(1,), value=2.0, time=10.0),
            StreamRecord(indices=(0,), value=3.0, time=25.0),
        ]
        stream = MultiAspectStream(records, mode_sizes=(2,))
        config = WindowConfig(mode_sizes=(2,), window_length=2, period=10.0)
        reference = ContinuousStreamProcessor(stream, config, start_time=0.0)
        paused = ContinuousStreamProcessor(stream, config, start_time=0.0)
        reference_pairs = drain_pairs(reference)
        first = drain_pairs(paused, max_events=1)
        # The tie at t=10 must have been cut in half: the scheduled shift
        # fired, the simultaneous arrival is still pending.
        assert first[0][0] == 10.0 and first[0][2] is EventKind.SHIFT
        paused.save_checkpoint(tmp_path / "ckpt")
        restored, _, _ = restore_run(tmp_path / "ckpt")
        assert first + drain_pairs(restored) == reference_pairs

    def test_resave_over_existing_checkpoint_swaps_atomically(
        self, small_processor, tmp_path
    ):
        target = tmp_path / "ckpt"
        small_processor.run(max_events=10)
        small_processor.save_checkpoint(target)
        first = (target / MANIFEST_FILENAME).read_text()
        small_processor.run(max_events=10)
        small_processor.save_checkpoint(target)
        second = (target / MANIFEST_FILENAME).read_text()
        assert first != second
        # No temp/retired siblings are left behind by the directory swap.
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "ckpt"]
        assert leftovers == []
        restored, _, _ = restore_run(target)
        assert restored.n_events_emitted == 20

    def test_checkpoint_is_self_contained(self, small_processor, tmp_path):
        # Restoring must not need the original stream object: the pending
        # records travel inside the checkpoint.
        small_processor.run(max_events=40)
        small_processor.save_checkpoint(tmp_path / "ckpt")
        expected = drain_pairs(small_processor)
        del small_processor
        restored, _, _ = restore_run(tmp_path / "ckpt")
        assert drain_pairs(restored) == expected


class TestManifestValidation:
    def test_missing_directory_is_not_a_checkpoint(self, tmp_path):
        assert not is_checkpoint(tmp_path / "nope")
        with pytest.raises(ConfigurationError):
            load_checkpoint(tmp_path / "nope")

    def test_version_mismatch_raises(self, small_processor, tmp_path):
        path = small_processor.save_checkpoint(tmp_path / "ckpt")
        manifest_path = path / MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ConfigurationError, match="version"):
            load_checkpoint(path)

    def test_foreign_format_raises(self, small_processor, tmp_path):
        path = small_processor.save_checkpoint(tmp_path / "ckpt")
        manifest_path = path / MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = "something-else"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ConfigurationError, match="format|manifest"):
            load_checkpoint(path)

    def test_corrupt_manifest_raises(self, small_processor, tmp_path):
        path = small_processor.save_checkpoint(tmp_path / "ckpt")
        (path / MANIFEST_FILENAME).write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_checkpoint(path)

    def test_missing_arrays_file_raises(self, small_processor, tmp_path):
        path = small_processor.save_checkpoint(tmp_path / "ckpt")
        (path / ARRAYS_FILENAME).unlink()
        assert not is_checkpoint(path)
        with pytest.raises(ConfigurationError):
            load_checkpoint(path)


class TestModelStateProtocol:
    @pytest.fixture
    def initialized_model(self, small_processor, small_initial_factors):
        model = create_algorithm("sns_rnd_plus", SNSConfig(rank=4, theta=5, seed=0))
        model.initialize(small_processor.window, small_initial_factors)
        return small_processor, model

    def test_window_identity_is_enforced(self, initialized_model, tmp_path):
        processor, model = initialized_model
        detached = processor.window.copy()
        model._window = detached  # simulate a consumer wiring the wrong window
        with pytest.raises(ConfigurationError, match="window"):
            save_checkpoint(tmp_path / "ckpt", processor, model=model)

    def test_state_dict_round_trip_through_disk(self, initialized_model, tmp_path):
        processor, model = initialized_model
        for _, delta in processor.events(max_events=30):
            model.update(delta)
        processor.save_checkpoint(tmp_path / "ckpt", model=model)
        restored_processor, restored_model, _ = restore_run(tmp_path / "ckpt")
        assert restored_model is not None
        assert restored_model.name == model.name
        assert restored_model.n_updates == model.n_updates
        for mine, restored in zip(model.factors, restored_model.factors):
            np.testing.assert_array_equal(mine, restored)
        for mine, restored in zip(model.grams, restored_model.grams):
            np.testing.assert_array_equal(mine, restored)
        for mine, restored in zip(
            model.prev_grams, restored_model.prev_grams
        ):
            np.testing.assert_array_equal(mine, restored)
        # The RNG stream continues on the exact same draws.
        assert (
            restored_model._rng.bit_generator.state
            == model._rng.bit_generator.state
        )
        assert list(restored_model._rng.integers(0, 1 << 30, 8)) == list(
            model._rng.integers(0, 1 << 30, 8)
        )

    def test_load_state_rejects_wrong_algorithm(self, initialized_model):
        processor, model = initialized_model
        state = model.state_dict()
        other = create_algorithm("sns_vec", SNSConfig(rank=4, theta=5, seed=0))
        with pytest.raises(ConfigurationError, match="sns_rnd_plus"):
            other.load_state(processor.window, state)

    def test_load_state_rejects_config_mismatch(self, initialized_model):
        processor, model = initialized_model
        state = model.state_dict()
        other = create_algorithm("sns_rnd_plus", SNSConfig(rank=4, theta=9, seed=0))
        with pytest.raises(ConfigurationError, match="theta"):
            other.load_state(processor.window, state)

    def test_load_state_drops_vectorized_sampling_key(self, initialized_model):
        # States saved while there were two slice samplers name theirs.
        processor, model = initialized_model
        state = model.state_dict()
        state["config"] = dict(state["config"], sampling="vectorized")
        other = create_algorithm("sns_rnd_plus", SNSConfig(rank=4, theta=5, seed=0))
        other.load_state(processor.window, state)
        np.testing.assert_array_equal(other.factors[0], model.factors[0])

    def test_load_state_rejects_legacy_sampling(self, initialized_model):
        processor, model = initialized_model
        state = model.state_dict()
        state["config"] = dict(state["config"], sampling="legacy")
        other = create_algorithm("sns_rnd_plus", SNSConfig(rank=4, theta=5, seed=0))
        with pytest.raises(ConfigurationError, match="sampling"):
            other.load_state(processor.window, state)

    @staticmethod
    def _save_with_sampling(processor, model, path, sampling):
        processor.save_checkpoint(path, model=model)
        manifest_path = path / MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        manifest["model"]["config"]["sampling"] = sampling
        manifest_path.write_text(json.dumps(manifest))

    def test_restore_drops_vectorized_sampling_key(self, initialized_model, tmp_path):
        processor, model = initialized_model
        self._save_with_sampling(processor, model, tmp_path / "ckpt", "vectorized")
        _, restored, _ = restore_run(tmp_path / "ckpt")
        assert restored.config == model.config
        np.testing.assert_array_equal(restored.factors[1], model.factors[1])

    def test_restore_rejects_legacy_sampling(self, initialized_model, tmp_path):
        processor, model = initialized_model
        self._save_with_sampling(processor, model, tmp_path / "ckpt", "legacy")
        with pytest.raises(ConfigurationError, match="sampling"):
            restore_run(tmp_path / "ckpt")

    def test_sns_mat_weights_survive(self, small_processor, small_initial_factors, tmp_path):
        model = create_algorithm("sns_mat", SNSConfig(rank=4, seed=0))
        model.initialize(small_processor.window, small_initial_factors)
        for _, delta in small_processor.events(max_events=10):
            model.update(delta)
        small_processor.save_checkpoint(tmp_path / "ckpt", model=model)
        _, restored, _ = restore_run(tmp_path / "ckpt")
        np.testing.assert_array_equal(restored.weights, model.weights)
        # λ folds into the decomposition; fitness must match exactly.
        assert restored.fitness() == model.fitness()


class TestUnifiedEventCounter:
    def test_counter_is_persisted(self, small_processor, tmp_path):
        small_processor.run(max_events=33)
        assert small_processor.n_events_emitted == 33
        small_processor.save_checkpoint(tmp_path / "ckpt")
        restored, _, _ = restore_run(tmp_path / "ckpt")
        assert restored.n_events_emitted == 33


class TestExperimentSnapshots:
    """Prepared-experiment snapshots: exact roundtrip + format validation."""

    @pytest.fixture
    def snapshot_parts(self, small_stream, small_window_config, small_processor):
        initial = decompose(
            small_processor.window.tensor, rank=4, n_iterations=5, seed=3
        ).decomposition
        return small_stream, small_window_config, initial

    def test_roundtrip_is_exact(self, snapshot_parts, tmp_path):
        stream, config, initial = snapshot_parts
        path = save_experiment_snapshot(
            tmp_path / "snap", stream, config, initial, extra={"note": "x"}
        )
        assert is_experiment_snapshot(path)
        snapshot = load_experiment_snapshot(path)
        assert snapshot.window_config == config
        assert snapshot.stream.records == stream.records
        assert snapshot.stream.mode_sizes == stream.mode_sizes
        assert snapshot.stream.mode_names == stream.mode_names
        for rebuilt, original in zip(
            snapshot.initial_factors.factors, initial.factors
        ):
            assert (rebuilt == np.asarray(original)).all()
        assert (snapshot.initial_factors.weights == initial.weights).all()
        assert snapshot.extra == {"note": "x"}

    def test_plain_factor_list_is_accepted(self, snapshot_parts, tmp_path):
        stream, config, initial = snapshot_parts
        path = save_experiment_snapshot(
            tmp_path / "snap", stream, config, initial.factors
        )
        snapshot = load_experiment_snapshot(path)
        for rebuilt, original in zip(
            snapshot.initial_factors.factors, initial.factors
        ):
            assert (rebuilt == np.asarray(original)).all()
        assert (snapshot.initial_factors.weights == 1.0).all()

    def test_mismatched_stream_and_config_rejected(self, snapshot_parts, tmp_path):
        stream, config, initial = snapshot_parts
        other = WindowConfig(mode_sizes=(9, 9), window_length=4, period=10.0)
        with pytest.raises(ConfigurationError, match="mode sizes"):
            save_experiment_snapshot(tmp_path / "snap", stream, other, initial)

    def test_snapshot_and_run_checkpoint_formats_are_distinct(
        self, snapshot_parts, small_processor, tmp_path
    ):
        stream, config, initial = snapshot_parts
        snapshot_path = save_experiment_snapshot(
            tmp_path / "snap", stream, config, initial
        )
        checkpoint_path = small_processor.save_checkpoint(tmp_path / "ckpt")
        assert not is_experiment_snapshot(checkpoint_path)
        with pytest.raises(ConfigurationError, match="manifest|format"):
            load_experiment_snapshot(checkpoint_path)
        with pytest.raises(ConfigurationError, match="manifest|format"):
            load_checkpoint(snapshot_path)

    def test_snapshot_version_mismatch_raises(self, snapshot_parts, tmp_path):
        stream, config, initial = snapshot_parts
        path = save_experiment_snapshot(tmp_path / "snap", stream, config, initial)
        manifest_path = path / MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = SNAPSHOT_FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ConfigurationError, match="version"):
            load_experiment_snapshot(path)

    def test_missing_directory_raises(self, tmp_path):
        assert not is_experiment_snapshot(tmp_path / "nope")
        with pytest.raises(ConfigurationError):
            load_experiment_snapshot(tmp_path / "nope")
