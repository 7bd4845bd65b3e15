"""StreamingServer behaviour, exercised in-process through ``_dispatch``.

No TCP here: these tests drive the server's op dispatcher directly inside
``asyncio.run`` so the concurrency model (bounded queues, per-stream locks,
worker tasks) runs for real while failures stay easy to localise.  The
socket layer gets its own end-to-end coverage in ``test_service_e2e.py``.
"""

from __future__ import annotations

import asyncio
import json
import time

import numpy as np
import pytest

from repro.anomaly.detector import SCOREBOARD_SIZE
from repro.exceptions import ServiceError
from repro.service.config import ServiceConfig
from repro.service.manager import ServiceManager
from repro.service.server import StreamingServer
from repro.service.session import StreamSession

from helpers import (
    live_chunks,
    make_records,
    tiny_config,
    warm_records,
    wire_records,
)


def sequential_reference(warm, chunks) -> StreamSession:
    """The ground truth: the same chunk sequence applied alone, in order."""
    session = StreamSession("reference", tiny_config())
    session.ingest(warm)
    session.start()
    for chunk in chunks:
        session.ingest(chunk)
    return session


async def dispatch(server, op, **fields):
    return await server._dispatch({"op": op, **fields})


async def create_and_start(server, stream_id, warm):
    response = await dispatch(
        server,
        "create_stream",
        stream=stream_id,
        config=tiny_config().to_dict(),
    )
    assert response["ok"], response
    response = await dispatch(
        server, "ingest", stream=stream_id, records=wire_records(warm)
    )
    assert response["ok"], response
    response = await dispatch(server, "start_stream", stream=stream_id)
    assert response["ok"], response


class TestOps:
    def test_ping_streams_and_unknown_op(self):
        async def scenario():
            server = StreamingServer(ServiceManager(ServiceConfig()))
            response = await dispatch(server, "ping")
            assert response["ok"] and response["pong"]
            with pytest.raises(ServiceError) as excinfo:
                await dispatch(server, "nonsense")
            assert excinfo.value.code == "bad_request"
            with pytest.raises(ServiceError) as excinfo:
                await dispatch(server, "factors", stream="ghost")
            assert excinfo.value.code == "unknown_stream"

        asyncio.run(scenario())

    def test_dispatch_safely_maps_errors_to_codes(self):
        async def scenario():
            server = StreamingServer(ServiceManager(ServiceConfig()))
            # Broken JSON and wrong shapes never raise, they answer.
            response = await server._dispatch_safely(b"{not json}\n")
            assert not response["ok"] and response["error"] == "bad_request"
            response = await server._dispatch_safely(b'{"no_op": 1}\n')
            assert not response["ok"] and response["error"] == "bad_request"
            # A config error inside an op (unknown key) maps to bad_request.
            response = await server._dispatch_safely(
                json.dumps(
                    {"op": "create_stream", "stream": "a", "config": {"bogus": 1}}
                ).encode() + b"\n"
            )
            assert not response["ok"] and response["error"] == "bad_request"

        asyncio.run(scenario())

    @staticmethod
    def _create(config):
        async def scenario():
            server = StreamingServer(ServiceManager(ServiceConfig()))
            request = {"op": "create_stream", "stream": "a", "config": config}
            response = await server._dispatch_safely(
                json.dumps(request).encode() + b"\n"
            )
            streams = server.manager.stream_ids
            await server.stop()
            return response, streams

        return asyncio.run(scenario())

    @pytest.mark.parametrize("key", ["sampling", "backend", "shards", "staleness"])
    def test_create_stream_refuses_keys_of_older_configs(self, key):
        response, streams = self._create(dict(tiny_config().to_dict(), **{key: 1}))
        assert not response["ok"] and response["error"] == "bad_request"
        assert key in response["message"] and streams == []

    @pytest.mark.parametrize(
        "key, value",
        [("theta", 0), ("eta", -1.0), ("regularization", -1.0), ("rank", 0)],
    )
    def test_create_stream_refuses_a_model_value_out_of_range(self, key, value):
        # Refused before a record is buffered, not at start_stream.
        response, streams = self._create(dict(tiny_config().to_dict(), **{key: value}))
        assert not response["ok"] and response["error"] == "bad_request"
        assert response["message"].startswith(f"{key} must be") and streams == []

    @pytest.mark.parametrize("config", ["nope", 5, [1, 2]])
    def test_create_stream_refuses_a_config_that_is_not_an_object(self, config):
        response, streams = self._create(config)
        assert not response["ok"] and response["error"] == "bad_request"
        assert "JSON object" in response["message"] and streams == []

    def test_full_lifecycle_queries(self):
        async def scenario():
            server = StreamingServer(ServiceManager(ServiceConfig()))
            warm = warm_records(seed=3)
            chunks = live_chunks(2, seed=4)
            await create_and_start(server, "s", warm)
            for chunk in chunks:
                await dispatch(
                    server, "ingest", stream="s", records=wire_records(chunk)
                )
            flush = await dispatch(server, "flush", stream="s")
            assert flush["deferred_errors"] == []
            factors = await dispatch(server, "factors", stream="s")
            fitness = await dispatch(server, "fitness", stream="s")
            anomalies = await dispatch(server, "anomalies", stream="s", k=3)
            stats = await dispatch(server, "stats", stream="s")
            telemetry = await dispatch(server, "telemetry", stream="s")
            rows = (await dispatch(server, "streams"))["streams"]
            await server.stop()
            return chunks, warm, factors, fitness, anomalies, stats, telemetry, rows

        chunks, warm, factors, fitness, anomalies, stats, telemetry, rows = (
            asyncio.run(scenario())
        )
        reference = sequential_reference(warm, chunks)
        for fa, fb in zip(factors["factors"], reference.factors()["factors"]):
            assert np.array_equal(np.array(fa), np.array(fb))
        assert fitness["fitness"] == reference.fitness()["fitness"]
        assert anomalies["scored"] == reference._detector.count
        assert anomalies["anomalies"] == reference.anomalies(k=3)["anomalies"]
        assert stats["phase"] == "live"
        assert telemetry["telemetry"]["records_ingested"] == 30 + 2 * 8
        assert rows[0]["stream"] == "s" and rows[0]["queue_depth"] == 0

    @pytest.mark.parametrize(
        "k", [True, 2.7, "5", "abc", None, -1, SCOREBOARD_SIZE + 1], ids=repr
    )
    def test_anomalies_k_outside_the_board_is_a_bad_request(self, k):
        async def scenario():
            server = StreamingServer(ServiceManager(ServiceConfig()))
            await create_and_start(server, "s", warm_records(seed=3))
            request = {"op": "anomalies", "stream": "s", "k": k}
            refused = await server._dispatch_safely(
                json.dumps(request).encode() + b"\n"
            )
            deepest = await dispatch(
                server, "anomalies", stream="s", k=SCOREBOARD_SIZE
            )
            default = await dispatch(server, "anomalies", stream="s")
            await server.stop()
            return refused, deepest, default

        refused, deepest, default = asyncio.run(scenario())
        assert not refused["ok"] and refused["error"] == "bad_request"
        assert f"0..{SCOREBOARD_SIZE}" in refused["message"]
        assert deepest["ok"] and deepest["k"] == SCOREBOARD_SIZE
        assert default["ok"] and default["k"] == 20


class TestNonFiniteInput:
    """NaN and Infinity parse from JSON; neither may reach a live window."""

    @pytest.mark.parametrize(
        "request_fields",
        [
            {"op": "ingest", "records": [[[1, 2], 1.0, float("nan")]]},
            {"op": "ingest", "records": [[[1, 2], 1.0, float("inf")]]},
            {"op": "ingest", "records": [[[1, 2], float("nan"), 21.0]]},
            {"op": "advance", "time": float("nan")},
            {"op": "advance", "time": float("inf")},
        ],
        ids=["nan-time", "inf-time", "nan-value", "advance-nan", "advance-inf"],
    )
    def test_is_refused_with_the_window_and_clock_unchanged(self, request_fields):
        config = tiny_config(mode_sizes=(8, 6), window_length=4)
        warm = make_records(40, start=0.0, spacing=0.5, seed=1, mode_sizes=(8, 6))

        def state(server):
            processor = server.manager.get("s")._processor
            return (
                processor.window.tensor.nnz,
                len(processor._scheduler),
                server.manager.get("s").clock,
            )

        async def scenario():
            server = StreamingServer(ServiceManager(ServiceConfig()))
            await dispatch(
                server, "create_stream", stream="s", config=config.to_dict()
            )
            await dispatch(server, "ingest", stream="s", records=wire_records(warm))
            await dispatch(server, "start_stream", stream="s")
            before = state(server)
            line = json.dumps({**request_fields, "stream": "s"}).encode() + b"\n"
            response = await server._dispatch_safely(line)
            flush = await dispatch(server, "flush", stream="s")
            after = state(server)
            await server.stop()
            return before, response, flush, after

        before, response, flush, after = asyncio.run(scenario())
        nnz, scheduled, _ = before
        assert nnz > 0 and scheduled > 0
        assert after == before
        if request_fields["op"] == "ingest":
            assert not response["ok"] and response["error"] == "bad_request"
            assert "finite" in response["message"]
        else:  # an advance is queued; its refusal surfaces at the flush
            assert response["ok"]
            [error] = flush["deferred_errors"]
            assert error.startswith("bad_request") and "finite" in error


class TestMistypedRecords:
    """A record's fields reach ``StreamRecord`` as sent: a float index, a
    bool or a string is refused, never truncated or converted."""

    @pytest.mark.parametrize(
        "record",
        [
            [[2.7, 1], 1.0, 5.0],
            [[True, 0], True, 5.0],
            [["3", 0], "1.5", "5"],
            [[1, 2], 1.0, True],
            [(1, 2), "1.0", 21.0],
            ["12", 1.0, 21.0],
        ],
        ids=["float-index", "bool-index-and-value", "strings", "bool-time",
             "string-value", "string-indices"],
    )
    def test_is_refused_naming_the_record(self, record):
        config = tiny_config(mode_sizes=(8, 6), window_length=4)
        warm = make_records(40, start=0.0, spacing=0.5, seed=1, mode_sizes=(8, 6))

        def state(server):
            processor = server.manager.get("s")._processor
            return (
                sorted(processor.window.tensor.items()),
                len(processor._scheduler),
                server.manager.get("s").clock,
            )

        async def scenario():
            server = StreamingServer(ServiceManager(ServiceConfig()))
            await dispatch(
                server, "create_stream", stream="s", config=config.to_dict()
            )
            await dispatch(server, "ingest", stream="s", records=wire_records(warm))
            await dispatch(server, "start_stream", stream="s")
            before = state(server)
            valid = [[1, 2], 1.0, 21.0]
            line = json.dumps(
                {"op": "ingest", "stream": "s", "records": [valid, record]}
            ).encode() + b"\n"
            response = await server._dispatch_safely(line)
            await dispatch(server, "flush", stream="s")
            after = state(server)
            await server.stop()
            return before, response, after

        before, response, after = asyncio.run(scenario())
        assert not response["ok"] and response["error"] == "bad_request"
        assert "record 1 is malformed" in response["message"]
        # Nothing of the chunk was applied, the valid record included.
        assert after == before


class TestConcurrentTenants:
    N_STREAMS = 6

    def test_concurrent_streams_match_sequential_runs(self):
        """The headline guarantee: N tenants ingesting at once, with queries
        interleaved, end bit-identical to N sequential single-tenant runs."""
        warms = {
            f"t{i}": warm_records(seed=10 + i) for i in range(self.N_STREAMS)
        }
        chunk_sets = {
            f"t{i}": live_chunks(4, seed=40 + i) for i in range(self.N_STREAMS)
        }

        async def tenant(server, stream_id):
            await create_and_start(server, stream_id, warms[stream_id])
            for chunk in chunk_sets[stream_id]:
                response = await dispatch(
                    server,
                    "ingest",
                    stream=stream_id,
                    records=wire_records(chunk),
                )
                assert response["ok"], response
                # Interleave reads with everyone else's writes.
                fitness = await dispatch(server, "fitness", stream=stream_id)
                assert 0.0 <= fitness["fitness"] <= 1.0
                await asyncio.sleep(0)
            flush = await dispatch(server, "flush", stream=stream_id)
            assert flush["deferred_errors"] == []

        async def scenario():
            server = StreamingServer(
                ServiceManager(ServiceConfig(max_streams=self.N_STREAMS))
            )
            await asyncio.gather(
                *(tenant(server, stream_id) for stream_id in warms)
            )
            results = {
                stream_id: await dispatch(server, "factors", stream=stream_id)
                for stream_id in warms
            }
            detectors = {
                stream_id: server.manager.get(stream_id)._detector.state_dict()
                for stream_id in warms
            }
            await server.stop()
            return results, detectors

        results, detectors = asyncio.run(scenario())
        for stream_id in warms:
            reference = sequential_reference(
                warms[stream_id], chunk_sets[stream_id]
            )
            for fa, fb in zip(
                results[stream_id]["factors"], reference.factors()["factors"]
            ):
                assert np.array_equal(np.array(fa), np.array(fb))
            assert detectors[stream_id] == reference._detector.state_dict()

    def test_soak_thousand_streams(self, tmp_path):
        """Admission, ingestion, queries, checkpoint and recovery at 1,000
        concurrent streams, with the watchdog running and per-stream memory
        structurally bounded.

        At this scale the full-factor cross-check is sampled (every 50th
        stream, deterministically); the structural invariants — window
        occupancy capped by the window's cell count, no buffered or pending
        records left behind, drained queues, zero watchdog stalls — are
        asserted on *every* stream, because those are the bounds that keep
        per-stream memory flat as tenancy grows.
        """
        n_streams = 1000
        root = tmp_path / "state"
        config = ServiceConfig(
            max_streams=n_streams,
            checkpoint_root=str(root),
            watchdog_stall_seconds=30.0,
        )
        warms = {f"s{i:04d}": warm_records(seed=100 + i) for i in range(n_streams)}
        chunk_sets = {
            f"s{i:04d}": live_chunks(1, seed=3000 + i) for i in range(n_streams)
        }
        sample_ids = sorted(warms)[::50]  # 20 streams, deterministic

        async def tenant(server, stream_id):
            await create_and_start(server, stream_id, warms[stream_id])
            for chunk in chunk_sets[stream_id]:
                await dispatch(
                    server, "ingest", stream=stream_id, records=wire_records(chunk)
                )
            await dispatch(server, "flush", stream=stream_id)

        async def scenario():
            server = StreamingServer(ServiceManager(config))
            # The in-process harness never calls server.start() (no TCP), so
            # start the watchdog the way start() does: the soak must prove
            # it stays quiet under full load, not merely that it is off.
            server._watchdog_task = asyncio.get_running_loop().create_task(
                server._watchdog_loop(config.watchdog_stall_seconds)
            )
            await asyncio.gather(
                *(tenant(server, stream_id) for stream_id in warms)
            )
            ping = await dispatch(server, "ping")
            assert ping["streams"] == n_streams
            tiny = tiny_config()
            window_cells = int(
                np.prod(tiny.mode_sizes) * tiny.window_length
            )
            for stream_id in warms:
                stats = await dispatch(server, "stats", stream=stream_id)
                assert stats["phase"] == "live"
                assert 0 < stats["window_nnz"] <= window_cells
                assert stats["pending_records"] == 0
                assert stats["buffered_records"] == 0
                telemetry = await dispatch(
                    server, "telemetry", stream=stream_id
                )
                assert telemetry["telemetry"]["stalls_detected"] == 0
            for row in (await dispatch(server, "streams"))["streams"]:
                assert row["queue_depth"] == 0
                assert not row["degraded"]
            assert all(
                not worker.stalled for worker in server._workers.values()
            )
            written = await dispatch(server, "checkpoint_all")
            assert len(written["checkpointed"]) == n_streams
            factors = {
                stream_id: (await dispatch(server, "factors", stream=stream_id))[
                    "factors"
                ]
                for stream_id in sample_ids
            }
            await server.stop()
            return factors

        factors = asyncio.run(scenario())
        # A fresh manager (fresh process in real life) recovers all 1,000.
        recovered = ServiceManager(config)
        report = recovered.recover()
        assert report["failed"] == {}
        assert len(report["recovered"]) == n_streams
        for stream_id in sample_ids:
            for fa, fb in zip(
                factors[stream_id],
                recovered.get(stream_id).factors()["factors"],
            ):
                assert np.array_equal(np.array(fa), np.array(fb))


class TestBackpressure:
    def test_overload_is_rejected_not_dropped(self):
        """A full queue answers ``overloaded``; retrying the same chunk later
        converges on exactly the sequential-reference state."""
        warm = warm_records(seed=5)
        chunks = live_chunks(6, seed=6)

        async def scenario():
            server = StreamingServer(
                ServiceManager(ServiceConfig(queue_limit=2))
            )
            await create_and_start(server, "s", warm)
            await dispatch(server, "flush", stream="s")
            # Synchronous put_nowait calls: the worker task never runs between
            # them, so the queue fills deterministically at queue_limit=2.
            accepted, rejected = [], []
            for chunk in chunks:
                request = {"records": wire_records(chunk), "op": "ingest"}
                try:
                    server._op_ingest("s", request)
                    accepted.append(chunk)
                except ServiceError as error:
                    assert error.code == "overloaded"
                    rejected.append(chunk)
            assert len(accepted) == 2
            assert len(rejected) == 4
            telemetry = await dispatch(server, "telemetry", stream="s")
            assert telemetry["telemetry"]["overload_rejections"] == 4
            # Drain, then retry every rejected chunk in order: nothing lost.
            # The client owns the retry — on another overload, flush and
            # resend (the queue stays tiny on purpose).
            await dispatch(server, "flush", stream="s")
            for chunk in rejected:
                while True:
                    try:
                        response = await dispatch(
                            server,
                            "ingest",
                            stream="s",
                            records=wire_records(chunk),
                        )
                    except ServiceError as error:
                        assert error.code == "overloaded"
                        await dispatch(server, "flush", stream="s")
                        continue
                    assert response["ok"], response
                    break
            flush = await dispatch(server, "flush", stream="s")
            assert flush["deferred_errors"] == []
            factors = await dispatch(server, "factors", stream="s")
            await server.stop()
            return factors

        factors = asyncio.run(scenario())
        reference = sequential_reference(warm, chunks)
        for fa, fb in zip(factors["factors"], reference.factors()["factors"]):
            assert np.array_equal(np.array(fa), np.array(fb))

    def test_deferred_error_surfaces_on_flush(self):
        async def scenario():
            server = StreamingServer(ServiceManager(ServiceConfig()))
            await create_and_start(server, "s", warm_records(seed=7))
            chunk = live_chunks(1, seed=8)[0]
            await dispatch(
                server, "ingest", stream="s", records=wire_records(chunk)
            )
            # Behind the clock: accepted into the queue, fails on apply.
            stale = [[[0, 0], 1.0, 0.5]]
            response = await dispatch(
                server, "ingest", stream="s", records=stale
            )
            assert response["ok"]  # acked before applied, by design
            flush = await dispatch(server, "flush", stream="s")
            assert len(flush["deferred_errors"]) == 1
            assert "conflict" in flush["deferred_errors"][0]
            # Errors are delivered once, then cleared.
            flush = await dispatch(server, "flush", stream="s")
            assert flush["deferred_errors"] == []
            factors = await dispatch(server, "factors", stream="s")
            await server.stop()
            return chunk, factors

        chunk, factors = asyncio.run(scenario())
        # The failed chunk left no partial state behind.
        reference = sequential_reference(warm_records(seed=7), [chunk])
        for fa, fb in zip(factors["factors"], reference.factors()["factors"]):
            assert np.array_equal(np.array(fa), np.array(fb))


class TestCheckpointing:
    def test_count_triggered_checkpoints(self, tmp_path):
        root = tmp_path / "state"
        config = ServiceConfig(checkpoint_root=str(root), checkpoint_events=10)

        async def scenario():
            server = StreamingServer(ServiceManager(config))
            await create_and_start(server, "s", warm_records(seed=9))
            for chunk in live_chunks(4, seed=10):
                await dispatch(
                    server, "ingest", stream="s", records=wire_records(chunk)
                )
            await dispatch(server, "flush", stream="s")
            telemetry = await dispatch(server, "telemetry", stream="s")
            written = telemetry["telemetry"]["checkpoints_written"]
            session = server.manager.get("s")
            # stop() adds the final graceful checkpoint.
            await server.stop()
            return written, session.telemetry.checkpoints_written

        mid_run, total = asyncio.run(scenario())
        assert mid_run >= 1  # the worker checkpointed while serving
        assert total > mid_run  # graceful stop wrote one more
        recovered = ServiceManager(config)
        assert recovered.recover()["recovered"] == ["s"]

    def test_explicit_checkpoint_op(self, tmp_path):
        config = ServiceConfig(checkpoint_root=str(tmp_path / "state"))

        async def scenario():
            server = StreamingServer(ServiceManager(config))
            await create_and_start(server, "s", warm_records(seed=11))
            response = await dispatch(server, "checkpoint", stream="s")
            await server.stop()
            return response

        response = asyncio.run(scenario())
        assert response["ok"]
        assert response["path"] is not None
        assert (tmp_path / "state" / "s" / "meta.json").is_file()

    def test_periodic_sweep_checkpoints_an_idle_live_stream(self, tmp_path):
        # No checkpoint_events: only the background sweep writes here.
        root = tmp_path / "state"
        config = ServiceConfig(checkpoint_root=str(root), checkpoint_interval=0.05)

        async def scenario():
            server = StreamingServer(ServiceManager(config))
            await server.start()
            await create_and_start(server, "s", warm_records(seed=12))
            for chunk in live_chunks(2, seed=13):
                await dispatch(
                    server, "ingest", stream="s", records=wire_records(chunk)
                )
            await dispatch(server, "flush", stream="s")
            # The stream is idle from here on; the sweep runs every 50 ms,
            # so the deadline is generous.
            telemetry = server.manager.get("s").telemetry
            deadline = time.monotonic() + 30.0
            while (
                telemetry.checkpoints_written < 1
                or telemetry.events_since_checkpoint > 0
            ):
                assert time.monotonic() < deadline, "the sweep never checkpointed"
                await asyncio.sleep(0.05)
            # Hold further sweeps, then read what the last one left on disk.
            server._checkpoint_task.cancel()
            await server._writer.wait_idle("s")
            restored = StreamSession.load(root / "s")
            factors = server.manager.get("s").factors()["factors"]
            await server.stop()
            return restored, factors

        restored, factors = asyncio.run(scenario())
        assert restored.is_live
        assert restored.telemetry.checkpoints_written >= 1
        for fa, fb in zip(factors, restored.factors()["factors"]):
            assert np.array_equal(np.array(fa), np.array(fb))


class TestIdempotentIngest:
    def test_duplicate_seq_is_acked_not_reapplied(self):
        warm = warm_records(seed=80)
        chunk = live_chunks(1, seed=81)[0]

        async def scenario():
            server = StreamingServer(ServiceManager(ServiceConfig()))
            await create_and_start(server, "s", warm)
            first = await dispatch(
                server, "ingest", stream="s",
                records=wire_records(chunk), seq=1,
            )
            assert first["ok"] and first["duplicate"] is False
            assert first["seq"] == 1
            await dispatch(server, "flush", stream="s")
            # The retry after an ambiguous failure: same seq, same chunk.
            again = await dispatch(
                server, "ingest", stream="s",
                records=wire_records(chunk), seq=1,
            )
            assert again["ok"] and again["duplicate"] is True
            assert again["queued"] == 0
            flush = await dispatch(server, "flush", stream="s")
            assert flush["deferred_errors"] == []
            telemetry = await dispatch(server, "telemetry", stream="s")
            assert telemetry["telemetry"]["duplicates_skipped"] == 1
            factors = await dispatch(server, "factors", stream="s")
            await server.stop()
            return factors

        factors = asyncio.run(scenario())
        # Applied exactly once: bit-identical to the single-send reference.
        reference = sequential_reference(warm, [chunk])
        for fa, fb in zip(factors["factors"], reference.factors()["factors"]):
            assert np.array_equal(np.array(fa), np.array(fb))

    @pytest.mark.parametrize("seq", [1.5, True, "2"])
    def test_a_seq_that_is_not_an_integer_is_refused(self, seq):
        """Truncated, seq 1.5 would read as a duplicate of seq 1 and its
        chunk would be dropped."""
        warm = warm_records(seed=84)
        chunks = live_chunks(2, seed=85)

        async def scenario():
            server = StreamingServer(ServiceManager(ServiceConfig()))
            await create_and_start(server, "s", warm)
            await dispatch(
                server, "ingest", stream="s",
                records=wire_records(chunks[0]), seq=1,
            )
            line = json.dumps(
                {"op": "ingest", "stream": "s",
                 "records": wire_records(chunks[1]), "seq": seq}
            ).encode() + b"\n"
            response = await server._dispatch_safely(line)
            await server.stop()
            return response

        response = asyncio.run(scenario())
        assert not response["ok"] and response["error"] == "bad_request"
        assert "seq must be an integer" in response["message"]

    def test_enqueued_but_unapplied_seq_also_deduplicates(self):
        """The dedup window covers acked-but-not-yet-applied chunks, not
        just the applied high-water mark."""
        warm = warm_records(seed=82)
        chunks = live_chunks(2, seed=83)

        async def scenario():
            server = StreamingServer(ServiceManager(ServiceConfig()))
            await create_and_start(server, "s", warm)
            await dispatch(server, "flush", stream="s")
            # Synchronous enqueues: the worker never runs between them.
            server._op_ingest(
                "s", {"op": "ingest", "records": wire_records(chunks[0]), "seq": 1}
            )
            server._op_ingest(
                "s", {"op": "ingest", "records": wire_records(chunks[1]), "seq": 2}
            )
            duplicate = server._op_ingest(
                "s", {"op": "ingest", "records": wire_records(chunks[1]), "seq": 2}
            )
            assert duplicate["duplicate"] is True and duplicate["queued"] == 0
            flush = await dispatch(server, "flush", stream="s")
            assert flush["deferred_errors"] == []
            factors = await dispatch(server, "factors", stream="s")
            await server.stop()
            return factors

        factors = asyncio.run(scenario())
        reference = sequential_reference(warm, chunks)
        for fa, fb in zip(factors["factors"], reference.factors()["factors"]):
            assert np.array_equal(np.array(fa), np.array(fb))

    def test_non_monotonic_seq_conflicts(self):
        async def scenario():
            server = StreamingServer(ServiceManager(ServiceConfig()))
            await create_and_start(server, "s", warm_records(seed=84))
            await dispatch(server, "flush", stream="s")
            chunk = live_chunks(1, seed=85)[0]
            # Gaps are allowed (a retried client may have skipped seqs)...
            server._op_ingest(
                "s", {"op": "ingest", "records": wire_records(chunk), "seq": 5}
            )
            # ...but a seq below the accepted high-water that is NOT a
            # known duplicate would reorder the stream: refused.
            with pytest.raises(ServiceError) as excinfo:
                server._op_ingest(
                    "s",
                    {"op": "ingest", "records": wire_records(chunk), "seq": 3},
                )
            assert excinfo.value.code == "conflict"
            await dispatch(server, "flush", stream="s")
            await server.stop()

        asyncio.run(scenario())

    def test_seq_validation(self):
        async def scenario():
            server = StreamingServer(ServiceManager(ServiceConfig()))
            await create_and_start(server, "s", warm_records(seed=86))
            chunk = wire_records(live_chunks(1, seed=87)[0])
            for bad in (0, -3, "nope"):
                with pytest.raises(ServiceError) as excinfo:
                    await dispatch(
                        server, "ingest", stream="s", records=chunk, seq=bad
                    )
                assert excinfo.value.code == "bad_request"
            await server.stop()

        asyncio.run(scenario())

    def test_failed_apply_frees_the_seq_for_retry(self):
        """A seq whose chunk failed to apply must not poison the retry:
        the client fixes the payload and re-sends the same seq."""
        warm = warm_records(seed=88)
        good = live_chunks(1, seed=89)[0]

        async def scenario():
            server = StreamingServer(ServiceManager(ServiceConfig()))
            await create_and_start(server, "s", warm)
            stale = [[[0, 0], 1.0, 0.5]]  # behind the clock: apply fails
            response = await dispatch(
                server, "ingest", stream="s", records=stale, seq=1
            )
            assert response["ok"]  # acked before applied, by design
            flush = await dispatch(server, "flush", stream="s")
            assert len(flush["deferred_errors"]) == 1
            retry = await dispatch(
                server, "ingest", stream="s",
                records=wire_records(good), seq=1,
            )
            assert retry["ok"] and retry["duplicate"] is False
            flush = await dispatch(server, "flush", stream="s")
            assert flush["deferred_errors"] == []
            factors = await dispatch(server, "factors", stream="s")
            await server.stop()
            return factors

        factors = asyncio.run(scenario())
        reference = sequential_reference(warm, [good])
        for fa, fb in zip(factors["factors"], reference.factors()["factors"]):
            assert np.array_equal(np.array(fa), np.array(fb))

    def test_seq_high_water_survives_checkpoint_and_recovery(self, tmp_path):
        """The applied high-water mark is part of the checkpoint: after a
        crash the mark rolls back WITH the state, so exactly the chunks
        whose effects were lost are re-applied on retry."""
        config = ServiceConfig(checkpoint_root=str(tmp_path / "state"))
        warm = warm_records(seed=90)
        chunks = live_chunks(2, seed=91)

        async def phase_one():
            server = StreamingServer(ServiceManager(config))
            await create_and_start(server, "s", warm)
            await dispatch(
                server, "ingest", stream="s",
                records=wire_records(chunks[0]), seq=1,
            )
            await dispatch(server, "flush", stream="s")
            await dispatch(server, "checkpoint", stream="s")
            # Applied but NOT checkpointed: lost by the simulated crash.
            await dispatch(
                server, "ingest", stream="s",
                records=wire_records(chunks[1]), seq=2,
            )
            await dispatch(server, "flush", stream="s")
            # Simulated SIGKILL: no graceful stop, no final checkpoint.
            for worker in server._workers.values():
                await worker.stop()
            await server._writer.stop()

        asyncio.run(phase_one())

        async def phase_two():
            manager = ServiceManager(config)
            report = manager.recover()
            assert report["recovered"] == ["s"]
            server = StreamingServer(manager)
            # seq 1 was checkpointed: a retry is a duplicate.
            duplicate = await dispatch(
                server, "ingest", stream="s",
                records=wire_records(chunks[0]), seq=1,
            )
            assert duplicate["duplicate"] is True
            # seq 2's effects were lost with the crash — the mark rolled
            # back with the state, so the retry is APPLIED, not skipped.
            retry = await dispatch(
                server, "ingest", stream="s",
                records=wire_records(chunks[1]), seq=2,
            )
            assert retry["duplicate"] is False
            flush = await dispatch(server, "flush", stream="s")
            assert flush["deferred_errors"] == []
            factors = await dispatch(server, "factors", stream="s")
            await server.stop()
            return factors

        factors = asyncio.run(phase_two())
        reference = sequential_reference(warm, chunks)
        for fa, fb in zip(factors["factors"], reference.factors()["factors"]):
            assert np.array_equal(np.array(fa), np.array(fb))

    def test_advance_carries_seq_too(self):
        async def scenario():
            server = StreamingServer(ServiceManager(ServiceConfig()))
            await create_and_start(server, "s", warm_records(seed=92))
            await dispatch(server, "flush", stream="s")
            stats = await dispatch(server, "stats", stream="s")
            target = stats["clock"] + 5.0
            first = await dispatch(
                server, "advance", stream="s", time=target, seq=1
            )
            assert first["duplicate"] is False
            again = await dispatch(
                server, "advance", stream="s", time=target, seq=1
            )
            assert again["duplicate"] is True
            flush = await dispatch(server, "flush", stream="s")
            assert flush["deferred_errors"] == []
            assert flush["clock"] == target
            await server.stop()

        asyncio.run(scenario())
