"""Corrupt / truncated checkpoint directories fail loudly and recoverably."""

from __future__ import annotations

import json
import shutil

import pytest

from repro.exceptions import CheckpointError, ConfigurationError
from repro.stream.checkpoint import (
    ARRAYS_FILENAME,
    MANIFEST_FILENAME,
    is_checkpoint,
    load_checkpoint,
    save_checkpoint,
    sweep_stale_sibling_dirs,
)


@pytest.fixture
def checkpoint_dir(small_processor, tmp_path):
    small_processor.run(max_events=50)
    return save_checkpoint(tmp_path / "ckpt", small_processor)


class TestCorruptCheckpoint:
    def test_intact_checkpoint_loads(self, checkpoint_dir):
        assert is_checkpoint(checkpoint_dir)
        load_checkpoint(checkpoint_dir)

    def test_missing_directory_is_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_checkpoint(tmp_path / "nowhere")

    def test_missing_arrays_file(self, checkpoint_dir):
        (checkpoint_dir / ARRAYS_FILENAME).unlink()
        with pytest.raises(CheckpointError, match="incomplete"):
            load_checkpoint(checkpoint_dir)

    def test_missing_manifest_file(self, checkpoint_dir):
        (checkpoint_dir / MANIFEST_FILENAME).unlink()
        with pytest.raises(CheckpointError, match="incomplete"):
            load_checkpoint(checkpoint_dir)

    def test_truncated_npz(self, checkpoint_dir):
        arrays_path = checkpoint_dir / ARRAYS_FILENAME
        payload = arrays_path.read_bytes()
        arrays_path.write_bytes(payload[: len(payload) // 2])
        with pytest.raises(CheckpointError, match="truncated or corrupt"):
            load_checkpoint(checkpoint_dir)

    def test_unparseable_manifest(self, checkpoint_dir):
        (checkpoint_dir / MANIFEST_FILENAME).write_text("{not json")
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(checkpoint_dir)

    def test_manifest_holding_non_object(self, checkpoint_dir):
        (checkpoint_dir / MANIFEST_FILENAME).write_text(json.dumps([1, 2]))
        with pytest.raises(CheckpointError):
            load_checkpoint(checkpoint_dir)

    def test_missing_array_keys(self, checkpoint_dir, tmp_path):
        import numpy as np

        arrays_path = checkpoint_dir / ARRAYS_FILENAME
        with np.load(arrays_path) as payload:
            arrays = {key: payload[key] for key in payload.files}
        del arrays["heap_times"]
        np.savez(arrays_path, **arrays)
        with pytest.raises(CheckpointError, match="missing required arrays"):
            load_checkpoint(checkpoint_dir)

    def test_wrong_format_stays_configuration_error(self, checkpoint_dir):
        manifest = json.loads((checkpoint_dir / MANIFEST_FILENAME).read_text())
        manifest["format"] = "something-else"
        (checkpoint_dir / MANIFEST_FILENAME).write_text(json.dumps(manifest))
        with pytest.raises(ConfigurationError):
            load_checkpoint(checkpoint_dir)


class TestStaleSiblingSweep:
    def test_tmp_sibling_is_removed(self, checkpoint_dir):
        stale = checkpoint_dir.with_name(f"{checkpoint_dir.name}.tmp-9999")
        stale.mkdir()
        (stale / MANIFEST_FILENAME).write_text("{}")
        removed = sweep_stale_sibling_dirs(checkpoint_dir)
        assert stale in removed
        assert not stale.exists()
        assert is_checkpoint(checkpoint_dir)

    def test_old_sibling_is_removed_when_target_intact(self, checkpoint_dir):
        retired = checkpoint_dir.with_name(f"{checkpoint_dir.name}.old-9999")
        shutil.copytree(checkpoint_dir, retired)
        removed = sweep_stale_sibling_dirs(checkpoint_dir)
        assert retired in removed
        assert not retired.exists()
        assert is_checkpoint(checkpoint_dir)

    def test_complete_old_sibling_is_salvaged_when_target_missing(
        self, checkpoint_dir
    ):
        # The killed-mid-swap window: the target was renamed away but the
        # new state never moved in.  The retired copy is the last good state.
        retired = checkpoint_dir.with_name(f"{checkpoint_dir.name}.old-9999")
        checkpoint_dir.rename(retired)
        assert not checkpoint_dir.exists()
        sweep_stale_sibling_dirs(checkpoint_dir)
        assert is_checkpoint(checkpoint_dir)
        load_checkpoint(checkpoint_dir)

    def test_incomplete_old_sibling_is_not_salvaged(self, checkpoint_dir):
        retired = checkpoint_dir.with_name(f"{checkpoint_dir.name}.old-9999")
        checkpoint_dir.rename(retired)
        (retired / ARRAYS_FILENAME).unlink()
        sweep_stale_sibling_dirs(checkpoint_dir)
        assert not checkpoint_dir.exists()
        assert not retired.exists()

    def test_save_sweeps_leftover_tmp_dirs(self, small_processor, tmp_path):
        small_processor.run(max_events=50)
        target = tmp_path / "ckpt"
        stale = tmp_path / "ckpt.tmp-12345"
        stale.mkdir()
        (stale / "partial.npz").write_bytes(b"\x00" * 16)
        save_checkpoint(target, small_processor)
        assert not stale.exists()
        assert is_checkpoint(target)

    def test_sweep_without_siblings_is_a_noop(self, checkpoint_dir):
        assert sweep_stale_sibling_dirs(checkpoint_dir) == []
