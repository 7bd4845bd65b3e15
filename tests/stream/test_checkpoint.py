"""Unit tests for the checkpoint/restore subsystem (repro.stream.checkpoint).

The exact-equivalence guarantee across all variants and engines lives in
``test_checkpoint_equivalence.py``; this module covers the format itself and
the edge cases: empty-window snapshots, snapshots taken between simultaneous
events (mid-tie), manifest validation (version 2, read as written: every key
required, no unknown or mistyped one), the model state protocol, and the
persisted event counter.
"""

from __future__ import annotations

import gc
import json
import weakref

import numpy as np
import pytest

from repro.core.base import SNSConfig
from repro.core.registry import create_algorithm
from repro.exceptions import CheckpointError, ConfigurationError
from repro.stream.checkpoint import (
    ARRAYS_FILENAME,
    FORMAT_VERSION,
    MANIFEST_FILENAME,
    is_checkpoint,
    load_checkpoint,
    require_keys,
    restore_run,
    save_checkpoint,
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


def saved_run(processor, initial_factors, path):
    """A checkpoint of an sns_rnd_plus run (aux: a list of prev-Grams)."""
    model = create_algorithm("sns_rnd_plus", SNSConfig(rank=4, theta=5, seed=0))
    model.initialize(processor.window, initial_factors)
    for _, delta in processor.events(max_events=20):
        model.update(delta)
    return processor.save_checkpoint(path, model=model, extra={"n": 1})


def edit_manifest(path, section, edit):
    """Apply ``edit`` to a manifest ``section`` (``None``: the top level)."""
    manifest_path = path / MANIFEST_FILENAME
    manifest = json.loads(manifest_path.read_text())
    edit(manifest if section is None else manifest[section])
    manifest_path.write_text(json.dumps(manifest))


#: Every key a version-2 manifest holds: (section or None for the top level,
#: key).
MANIFEST_KEYS = [
    (None, key) for key in ("window", "processor", "model", "extra")
] + [
    ("window", key)
    for key in (
        "mode_sizes",
        "window_length",
        "period",
        "n_deltas_applied",
        "tensor_version",
        "squared_norm",
    )
] + [
    ("processor", key)
    for key in (
        "start_time",
        "n_events_emitted",
        "scheduler_sequence",
        "ingest_horizon",
    )
] + [
    ("model", key)
    for key in ("name", "config", "n_updates", "rng_state", "n_factors", "aux_spec")
]


@pytest.mark.parametrize(
    "value, kind, matches",
    [
        (3, int, True),
        (True, int, False),
        (3.0, int, False),
        (3, float, True),
        (2.5, float, True),
        (False, float, False),
        ("3", float, False),
        (None, float | None, True),
        ("x", float | None, False),
        ([1, 2], list[int], True),
        ([1, "2"], list[int], False),
        ({"a": 1}, dict, True),
        ("anything", object, True),
    ],
)
def test_require_keys_checks_json_types(value, kind, matches):
    if matches:
        assert require_keys({"key": value}, {"key": kind}, "payload")
    else:
        with pytest.raises(CheckpointError, match="'key'"):
            require_keys({"key": value}, {"key": kind}, "payload")


class TestFormatTwoReadAsWritten:
    def test_manifest_holds_exactly_the_listed_keys(
        self, small_processor, small_initial_factors, tmp_path
    ):
        path = saved_run(small_processor, small_initial_factors, tmp_path / "c")
        manifest = json.loads((path / MANIFEST_FILENAME).read_text())
        assert manifest["version"] == FORMAT_VERSION == 2
        for section in (None, "window", "processor", "model"):
            keys = {key for where, key in MANIFEST_KEYS if where == section}
            payload = manifest if section is None else manifest[section]
            assert set(payload) - {"format", "version"} == keys

    def test_version_1_checkpoint_is_refused(
        self, small_processor, small_initial_factors, tmp_path
    ):
        path = saved_run(small_processor, small_initial_factors, tmp_path / "c")
        edit_manifest(path, None, lambda manifest: manifest.update(version=1))
        with pytest.raises(ConfigurationError, match="version 1"):
            restore_run(path)

    @pytest.mark.parametrize("section, key", MANIFEST_KEYS)
    def test_every_key_is_required(
        self, small_processor, small_initial_factors, tmp_path, section, key
    ):
        path = saved_run(small_processor, small_initial_factors, tmp_path / "c")
        edit_manifest(path, section, lambda payload: payload.pop(key))
        with pytest.raises(CheckpointError, match=key):
            restore_run(path)

    @pytest.mark.parametrize(
        "section, key",
        [(None, "kernel_backend"), ("window", "extra"), ("model", "kernel_backend")],
    )
    def test_unknown_keys_are_refused(
        self, small_processor, small_initial_factors, tmp_path, section, key
    ):
        path = saved_run(small_processor, small_initial_factors, tmp_path / "c")
        edit_manifest(path, section, lambda payload: payload.update({key: "numba"}))
        with pytest.raises(CheckpointError, match=key):
            restore_run(path)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("window", "mode_sizes", ["5", 4]),
            ("window", "window_length", 3.0),
            ("window", "period", True),
            ("processor", "ingest_horizon", None),
            ("processor", "n_events_emitted", "20"),
            ("model", "n_updates", 1.5),
            ("model", "rng_state", "abc"),
            ("model", "aux_spec", {"prev_grams": "3"}),
            ("model", "config", "nope"),
        ],
    )
    def test_mistyped_values_are_refused(
        self, small_processor, small_initial_factors, tmp_path, section, key, value
    ):
        path = saved_run(small_processor, small_initial_factors, tmp_path / "c")
        edit_manifest(path, section, lambda payload: payload.update({key: value}))
        with pytest.raises(CheckpointError, match=key):
            restore_run(path)

    def test_damaged_rng_state_is_refused(
        self, small_processor, small_initial_factors, tmp_path
    ):
        path = saved_run(small_processor, small_initial_factors, tmp_path / "c")
        edit_manifest(path, "model", lambda model: model["rng_state"].pop("state"))
        with pytest.raises(CheckpointError, match="rng_state"):
            restore_run(path)


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
