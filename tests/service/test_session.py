"""StreamSession: lifecycle, validation, determinism, durability."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.exceptions import CheckpointError, ConfigurationError, ServiceError
from repro.service.config import StreamConfig
from repro.service.session import StreamSession
from repro.stream.checkpoint import MANIFEST_FILENAME
from repro.stream.events import StreamRecord

from helpers import live_chunks, tiny_config, warm_records


def live_session(seed=1, chunk_seed=2, n_chunks=2, **overrides) -> StreamSession:
    session = StreamSession("s", tiny_config(**overrides))
    session.ingest(warm_records(seed))
    session.start()
    for chunk in live_chunks(n_chunks, seed=chunk_seed):
        session.ingest(chunk)
    return session


class TestConfig:
    def test_round_trips_through_dict(self, stream_config):
        assert StreamConfig.from_dict(stream_config.to_dict()) == stream_config

    def test_unknown_keys_rejected(self, stream_config):
        payload = stream_config.to_dict()
        payload["raank"] = 5
        with pytest.raises(ConfigurationError, match="raank"):
            StreamConfig.from_dict(payload)

    def test_vectorized_sampling_key_is_dropped(self, stream_config):
        # Configs saved while there were two slice samplers name theirs.
        payload = dict(stream_config.to_dict(), sampling="vectorized")
        assert StreamConfig.from_dict(payload) == stream_config

    def test_legacy_sampling_rejected(self, stream_config):
        payload = dict(stream_config.to_dict(), sampling="legacy")
        with pytest.raises(ConfigurationError, match="sampling"):
            StreamConfig.from_dict(payload)

    @pytest.mark.parametrize(
        "shards, staleness, expected",
        [(None, None, None), (None, 0, None), (1, 0, None), (1, 2, 2), (None, 3, 3)],
    )
    def test_single_shard_configs_map_onto_staleness(
        self, stream_config, shards, staleness, expected
    ):
        # Configs written while streams could run several shards carry
        # `shards`; staleness 0 then meant the exact path.
        payload = dict(stream_config.to_dict(), shards=shards, staleness=staleness)
        assert StreamConfig.from_dict(payload) == dataclasses.replace(
            stream_config, staleness=expected
        )

    def test_multi_shard_configs_rejected(self, stream_config):
        payload = dict(stream_config.to_dict(), shards=4, staleness=0)
        with pytest.raises(ConfigurationError, match="shards"):
            StreamConfig.from_dict(payload)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"staleness": -1},
            {"mode_sizes": ()},
            {"mode_sizes": (4, 0)},
            {"window_length": 0},
            {"period": -1.0},
            {"rank": 0},
            {"method": "definitely_not_registered"},
            {"als_iterations": 0},
            {"batch_window": -0.5},
        ],
    )
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            tiny_config(**overrides)


class TestLifecycle:
    def test_new_session_buffers(self, stream_config):
        session = StreamSession("s", stream_config)
        assert not session.is_live
        accepted = session.ingest(warm_records())
        assert accepted == 30
        assert session.stats()["phase"] == "buffering"
        assert session.stats()["buffered_records"] == 30

    def test_queries_need_a_live_stream(self, stream_config):
        session = StreamSession("s", stream_config)
        for query in (session.factors, session.fitness, session.anomalies):
            with pytest.raises(ServiceError) as excinfo:
                query()
            assert excinfo.value.code == "conflict"

    def test_start_goes_live_and_catches_up(self):
        session = StreamSession("s", tiny_config())
        session.ingest(warm_records())
        # One record beyond the initial window: replayed during start().
        session.ingest([StreamRecord(indices=(0, 0), value=1.0, time=16.0)])
        outcome = session.start()
        assert session.is_live
        assert outcome["start_time"] == pytest.approx(15.0)
        assert outcome["clock"] >= 16.0
        assert session.stats()["n_updates"] > 0

    def test_start_without_records_is_conflict(self, stream_config):
        session = StreamSession("s", stream_config)
        with pytest.raises(ServiceError) as excinfo:
            session.start()
        assert excinfo.value.code == "conflict"

    def test_double_start_is_conflict(self):
        session = live_session()
        with pytest.raises(ServiceError) as excinfo:
            session.start()
        assert excinfo.value.code == "conflict"

    def test_queries_on_live_stream(self):
        session = live_session()
        factors = session.factors()
        assert len(factors["factors"]) == 3  # 2 categorical modes + time
        assert np.asarray(factors["factors"][0]).shape == (4, 2)
        assert 0.0 <= session.fitness()["fitness"] <= 1.0
        scoreboard = session.anomalies(k=5)
        assert scoreboard["scored"] > 0
        assert len(scoreboard["anomalies"]) <= 5

    def test_advance_moves_the_clock(self):
        session = live_session()
        before = session.clock
        session.advance(before + 20.0)
        assert session.clock == before + 20.0
        with pytest.raises(ServiceError) as excinfo:
            session.advance(before)  # backwards
        assert excinfo.value.code == "conflict"

    def test_telemetry_counts_work(self):
        session = live_session(n_chunks=2)
        telemetry = session.telemetry_snapshot()
        assert telemetry["records_ingested"] == 30 + 2 * 8
        assert telemetry["chunks_applied"] >= 2
        assert telemetry["events_applied"] > 0
        session.fitness()
        assert session.telemetry_snapshot()["queries_served"] >= 1


class TestValidation:
    @pytest.mark.parametrize(
        ("record", "code"),
        [
            (StreamRecord(indices=(0, 0, 0), value=1.0, time=1.0), "bad_request"),
            (StreamRecord(indices=(9, 0), value=1.0, time=1.0), "bad_request"),
        ],
    )
    def test_malformed_records_rejected_while_buffering(
        self, stream_config, record, code
    ):
        session = StreamSession("s", stream_config)
        with pytest.raises(ServiceError) as excinfo:
            session.ingest([record])
        assert excinfo.value.code == code
        assert session.stats()["buffered_records"] == 0  # nothing kept

    def test_time_regression_is_conflict(self, stream_config):
        session = StreamSession("s", stream_config)
        session.ingest([StreamRecord(indices=(0, 0), value=1.0, time=10.0)])
        with pytest.raises(ServiceError) as excinfo:
            session.ingest([StreamRecord(indices=(0, 0), value=1.0, time=9.0)])
        assert excinfo.value.code == "conflict"

    def test_live_rejection_leaves_state_untouched(self):
        session = live_session()
        factors_before = [np.array(f) for f in session.factors()["factors"]]
        clock_before = session.clock
        with pytest.raises(ServiceError):
            session.ingest(
                [StreamRecord(indices=(0, 0), value=1.0, time=clock_before - 1.0)]
            )
        assert session.clock == clock_before
        for before, after in zip(
            factors_before, session.factors()["factors"]
        ):
            assert np.array_equal(before, np.array(after))


class TestDeterminism:
    def test_same_chunk_sequence_is_bit_identical(self):
        a = live_session(seed=1, chunk_seed=9, n_chunks=3)
        b = live_session(seed=1, chunk_seed=9, n_chunks=3)
        for fa, fb in zip(a.factors()["factors"], b.factors()["factors"]):
            assert np.array_equal(np.array(fa), np.array(fb))
        assert a._detector.state_dict() == b._detector.state_dict()
        assert a.fitness()["fitness"] == b.fitness()["fitness"]


class TestDurability:
    def test_buffering_session_round_trips(self, stream_config, tmp_path):
        session = StreamSession("buf", stream_config)
        session.ingest(warm_records())
        session.save(tmp_path / "buf")
        restored = StreamSession.load(tmp_path / "buf")
        assert not restored.is_live
        assert restored.clock == session.clock
        # The restored buffer starts the identical stream.
        restored.start()
        session.start()
        for fa, fb in zip(
            session.factors()["factors"], restored.factors()["factors"]
        ):
            assert np.array_equal(np.array(fa), np.array(fb))

    def test_live_session_round_trips_and_continues(self, tmp_path):
        session = live_session(n_chunks=2)
        session.save(tmp_path / "s")
        restored = StreamSession.load(tmp_path / "s")
        assert restored.is_live
        assert restored.clock == session.clock
        assert restored._detector.state_dict() == session._detector.state_dict()
        for fa, fb in zip(
            session.factors()["factors"], restored.factors()["factors"]
        ):
            assert np.array_equal(np.array(fa), np.array(fb))
        # Restore recomputes the window's squared norm exactly, so fitness
        # may move by float-drift noise — but no more.
        assert restored.fitness()["fitness"] == pytest.approx(
            session.fitness()["fitness"], abs=1e-12
        )
        # Continue both with the same chunk: still bit-identical factors.
        extra = live_chunks(3, seed=2)[2]
        session.ingest(extra)
        restored.ingest(extra)
        for fa, fb in zip(
            session.factors()["factors"], restored.factors()["factors"]
        ):
            assert np.array_equal(np.array(fa), np.array(fb))
        assert restored._detector.state_dict() == session._detector.state_dict()

    def test_restored_telemetry_includes_the_checkpoint(self, tmp_path):
        session = live_session()
        session.save(tmp_path / "s")
        restored = StreamSession.load(tmp_path / "s")
        assert restored.telemetry.checkpoints_written == 1
        assert restored.telemetry.events_since_checkpoint == 0

    @staticmethod
    def _save_with_sampling(session, target, sampling):
        session.save(target)
        meta = json.loads((target / "meta.json").read_text())
        meta["config"]["sampling"] = sampling
        (target / "meta.json").write_text(json.dumps(meta))

    def test_load_drops_vectorized_sampling_key(self, tmp_path):
        session = live_session()
        self._save_with_sampling(session, tmp_path / "s", "vectorized")
        restored = StreamSession.load(tmp_path / "s")
        assert restored.config == session.config
        for fa, fb in zip(
            session.factors()["factors"], restored.factors()["factors"]
        ):
            assert np.array_equal(np.array(fa), np.array(fb))

    def test_load_rejects_legacy_sampling(self, tmp_path):
        self._save_with_sampling(live_session(), tmp_path / "s", "legacy")
        with pytest.raises(ConfigurationError, match="sampling"):
            StreamSession.load(tmp_path / "s")

    @pytest.mark.parametrize("staleness", [None, 2])
    def test_load_maps_single_shard_meta(self, tmp_path, staleness):
        # A stream saved with the old encoding: `shards` in meta.json and in
        # the checkpoint's model config, where the server pinned
        # shards=1 and staleness=0 for exact streams.
        session = live_session(staleness=staleness)
        target = tmp_path / "s"
        session.save(target)
        meta = json.loads((target / "meta.json").read_text())
        meta["config"]["shards"] = None
        (target / "meta.json").write_text(json.dumps(meta))
        manifest_path = target / "state" / MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        manifest["model"]["config"].update(
            shards=1, staleness=0 if staleness is None else staleness
        )
        manifest_path.write_text(json.dumps(manifest))

        restored = StreamSession.load(target)
        assert restored.config == session.config
        assert restored._model.config == session._model.config
        assert restored.stats()["staleness"] == staleness
        assert "shards" not in restored.stats()
        assert "shards" not in restored.telemetry_snapshot()
        extra = live_chunks(3, seed=2)[2]
        session.ingest(extra)
        restored.ingest(extra)
        for fa, fb in zip(
            session.factors()["factors"], restored.factors()["factors"]
        ):
            assert np.array_equal(np.array(fa), np.array(fb))

    def test_load_rejects_multi_shard_meta(self, tmp_path):
        session = live_session()
        session.save(tmp_path / "s")
        meta = json.loads((tmp_path / "s" / "meta.json").read_text())
        meta["config"]["shards"] = 4
        (tmp_path / "s" / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ConfigurationError, match="shards"):
            StreamSession.load(tmp_path / "s")

    def test_load_rejects_missing_and_damaged_directories(self, tmp_path):
        with pytest.raises(CheckpointError, match="meta.json"):
            StreamSession.load(tmp_path / "missing")
        target = tmp_path / "bad"
        target.mkdir()
        (target / "meta.json").write_text("{broken")
        with pytest.raises(CheckpointError, match="unreadable"):
            StreamSession.load(target)

    def test_load_rejects_live_stream_without_checkpoint(self, tmp_path):
        session = live_session()
        session.save(tmp_path / "s")
        import shutil

        shutil.rmtree(tmp_path / "s" / "state")
        with pytest.raises(CheckpointError, match="no run checkpoint"):
            StreamSession.load(tmp_path / "s")
