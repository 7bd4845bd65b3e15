"""StreamSession: lifecycle, validation, determinism, durability."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.data.generators import SyntheticStreamConfig, generate_stream
from repro.exceptions import CheckpointError, ConfigurationError, ServiceError
from repro.service.config import StreamConfig
from repro.service.session import StreamSession
from repro.stream.checkpoint import MANIFEST_FILENAME
from repro.stream.events import StreamRecord

from helpers import edit_json, live_chunks, tiny_config, warm_records


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

    @pytest.mark.parametrize("key", ["sampling", "backend", "shards", "staleness"])
    def test_keys_of_older_configs_are_unknown(self, stream_config, key):
        payload = dict(stream_config.to_dict(), **{key: None})
        with pytest.raises(ConfigurationError, match=key):
            StreamConfig.from_dict(payload)

    @pytest.mark.parametrize("payload", ["nope", 5, [1, 2], None])
    def test_a_config_that_is_not_an_object_is_rejected(self, payload):
        with pytest.raises(ConfigurationError, match="JSON object"):
            StreamConfig.from_dict(payload)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"relaxed": "false"},
            {"relaxed": 1},
            {"relaxed": None},
            {"nonnegative": "false"},
            {"nonnegative": 0},
            {"mode_sizes": ()},
            {"mode_sizes": (4.7, 3)},
            {"mode_sizes": (True, 3)},
            {"mode_sizes": 4},
            {"window_length": 2.0},
            {"rank": 2.5},
            {"rank": True},
            {"theta": 2.5},
            {"seed": "x"},
            {"seed": None},
            {"als_iterations": 1.5},
            {"detector_warmup": "5"},
            {"period": float("nan")},
            {"period": float("inf")},
            {"period": "5"},
            {"eta": float("nan")},
            {"eta": True},
            {"regularization": float("nan")},
            {"batch_window": float("inf")},
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

    def test_load_refuses_version_1_metadata(self, tmp_path):
        live_session().save(tmp_path / "s")
        edit_json(
            tmp_path / "s" / "meta.json", lambda meta: meta.update(version=1)
        )
        with pytest.raises(CheckpointError, match="version 1"):
            StreamSession.load(tmp_path / "s")

    @pytest.mark.parametrize(
        "phase, key",
        [
            ("buffering", key)
            for key in ("stream_id", "phase", "config", "clock", "last_seq",
                        "buffer", "telemetry")
        ]
        + [("live", key) for key in ("stream_id", "config")],
    )
    def test_load_requires_every_metadata_key(self, tmp_path, phase, key):
        session = StreamSession("s", tiny_config())
        session.ingest(warm_records())
        if phase == "live":
            session.start()
        session.save(tmp_path / "s")
        edit_json(tmp_path / "s" / "meta.json", lambda meta: meta.pop(key))
        with pytest.raises(ConfigurationError, match=key):
            StreamSession.load(tmp_path / "s")

    @pytest.mark.parametrize("key", ["clock", "last_seq", "detector", "telemetry"])
    def test_load_requires_every_checkpoint_extra_key(self, tmp_path, key):
        live_session().save(tmp_path / "s")
        edit_json(
            tmp_path / "s" / "state" / MANIFEST_FILENAME,
            lambda manifest: manifest["extra"].pop(key),
        )
        with pytest.raises(CheckpointError, match=key):
            StreamSession.load(tmp_path / "s")

    @pytest.mark.parametrize(
        "key, value", [("clock", "abc"), ("last_seq", "abc"), ("last_seq", 1.5)]
    )
    def test_load_refuses_mistyped_checkpoint_extra(self, tmp_path, key, value):
        live_session().save(tmp_path / "s")
        edit_json(
            tmp_path / "s" / "state" / MANIFEST_FILENAME,
            lambda manifest: manifest["extra"].update({key: value}),
        )
        with pytest.raises(CheckpointError, match=key):
            StreamSession.load(tmp_path / "s")

    @pytest.mark.parametrize(
        "field, saved",
        [
            ("seed", None),
            ("theta", 2.5),
            ("mode_sizes", [4.0, 3.0]),
            ("eta", float("nan")),
        ],
    )
    def test_load_rejects_untyped_meta(self, tmp_path, field, saved):
        # Configs that passed before StreamConfig type-checked its fields
        # (a null seed ran an unseeded ALS, θ is unused by sns_vec, float
        # mode sizes were truncated) no longer load: recovery reports them.
        live_session().save(tmp_path / "s")
        meta = json.loads((tmp_path / "s" / "meta.json").read_text())
        meta["config"][field] = saved
        (tmp_path / "s" / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ConfigurationError, match=field):
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


class TestRelaxedServing:
    """A relaxed stream fed the ``service_tcp`` workload's chunk shape.

    A served stream's batches are its ingest chunks cut at ``batch_window``
    (default ``T``), so the regime is set by the client's chunking, not by
    any fixed fraction of ``T``.  Here: 8 x 6 modes, ``W`` 4, ``T`` 10,
    rank 4, 50 records per period, 50-record chunks (about ``T`` each).
    """

    STREAM = dict(
        mode_sizes=(8, 6),
        window_length=4,
        period=10.0,
        rank=4,
        als_iterations=4,
        detector_warmup=20,
        seed=0,
    )
    N_CHUNKS = 20
    CHUNK_RECORDS = 50
    #: Measured over generator seeds 100-102: worst |relaxed - exact| 0.103
    #: (sns_vec_plus, seed 102).  The snapshot update this replaced fell
    #: below zero fitness on the same replay.
    DEVIATION_BOUND = 0.15

    def replay(self, method, relaxed):
        records = list(
            generate_stream(
                SyntheticStreamConfig(
                    mode_sizes=(8, 6),
                    rank=3,
                    n_records=300 + self.N_CHUNKS * self.CHUNK_RECORDS,
                    period=10.0,
                    records_per_period=50.0,
                    seed=100,
                )
            )
        )
        span = self.STREAM["window_length"] * self.STREAM["period"]
        warm = [r for r in records if r.time <= records[0].time + span]
        live = records[len(warm) :]
        session = StreamSession(
            "s", StreamConfig(method=method, relaxed=relaxed, **self.STREAM)
        )
        session.ingest(warm)
        session.start()
        batches = session.telemetry.batches_applied
        fitness = []
        for chunk in range(self.N_CHUNKS):
            start = chunk * self.CHUNK_RECORDS
            session.ingest(live[start : start + self.CHUNK_RECORDS])
            fitness.append(session.fitness()["fitness"])
        per_chunk = (session.telemetry.batches_applied - batches) / self.N_CHUNKS
        return session, per_chunk, fitness

    @pytest.mark.parametrize("method", ["sns_vec", "sns_vec_plus"])
    def test_relaxed_stream_tracks_exact(self, method):
        _, _, exact = self.replay(method, relaxed=False)
        session, per_chunk, relaxed = self.replay(method, relaxed=True)
        assert 1.0 <= per_chunk <= 2.0
        assert all(np.isfinite(f).all() for f in session._model.factors)
        assert min(relaxed) > 0.0
        assert abs(relaxed[-1] - exact[-1]) <= self.DEVIATION_BOUND
