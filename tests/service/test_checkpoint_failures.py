"""Checkpoint-failure recovery matrix.

The durability contract under failing disks: a failed checkpoint write
must (1) leave the stream live and serving, (2) mark it *degraded* with
the error surfaced in telemetry/health, (3) be retried with backoff off
the hot path, (4) never corrupt the previous on-disk checkpoint — a
SIGKILL while degraded recovers bit-exactly from the last *successful*
write — and (5) clear the degraded state on the next successful write.

Faults are injected deterministically through the ``checkpoint.write``
site (see ``repro.service.faults``), at every stage of the atomic
directory swap: ``begin`` (nothing written), ``arrays`` (partial npz in
the temp dir), ``manifest`` (npz written, manifest missing) and ``commit``
(the swap landed but the writer saw an error — the ambiguous success).
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.exceptions import ServiceError
from repro.service.config import ServiceConfig
from repro.service.manager import ServiceManager
from repro.service.server import StreamingServer

from helpers import live_chunks, tiny_config, warm_records, wire_records
from test_server import create_and_start, dispatch, sequential_reference


def checkpoint_fault(stage="begin", hits=(1,), kind="enospc", **kwargs):
    rule = {"site": "checkpoint.write", "kind": kind, "stage": stage, **kwargs}
    if hits is not None:
        rule["hits"] = list(hits)
    return rule


class TestDegradedState:
    def test_failed_count_trigger_degrades_then_recovers(self, tmp_path):
        """An ENOSPC on the count-triggered background write: the stream
        stays live, health reports degraded, the backoff retry succeeds
        and clears the state, and no chunk is lost or double-applied."""
        config = ServiceConfig(
            checkpoint_root=str(tmp_path / "state"),
            checkpoint_events=5,
            checkpoint_retry_backoff=0.05,
            fault_plan={"rules": [checkpoint_fault(hits=(1,))]},
        )
        warm = warm_records(seed=60)
        chunks = live_chunks(2, seed=61)

        async def scenario():
            server = StreamingServer(ServiceManager(config))
            await create_and_start(server, "s", warm)
            await dispatch(
                server, "ingest", stream="s", records=wire_records(chunks[0])
            )
            await dispatch(server, "flush", stream="s")
            # The count-triggered write ran (flush waits for the writer)
            # and failed: degraded, error surfaced, stream still live.
            health = await dispatch(server, "health", stream="s")
            assert health["status"] == "degraded"
            assert health["degraded"] is True
            assert health["checkpoint_failures"] == 1
            assert "OSError" in health["last_checkpoint_error"]
            telemetry = await dispatch(server, "telemetry", stream="s")
            assert telemetry["telemetry"]["degraded"] is True
            assert telemetry["telemetry"]["checkpoint_failure_streak"] == 1
            assert telemetry["telemetry"]["checkpoints_written"] == 0
            # Service-level health aggregates the degraded stream.
            overall = await dispatch(server, "health")
            assert overall["status"] == "degraded"
            assert overall["streams"]["degraded"] == ["s"]
            assert overall["faults"]["fired_by_site"] == {
                "checkpoint.write": 1
            }
            # The worker was never killed: ingestion continues.
            await dispatch(
                server, "ingest", stream="s", records=wire_records(chunks[1])
            )
            flush = await dispatch(server, "flush", stream="s")
            assert flush["deferred_errors"] == []
            # The backoff retry (0.05 s base) fires and succeeds.
            deadline = asyncio.get_running_loop().time() + 5.0
            while True:
                health = await dispatch(server, "health", stream="s")
                if health["status"] == "ok":
                    break
                assert asyncio.get_running_loop().time() < deadline, health
                await asyncio.sleep(0.05)
            assert health["last_checkpoint_error"] is None
            telemetry = await dispatch(server, "telemetry", stream="s")
            assert telemetry["telemetry"]["checkpoint_failure_streak"] == 0
            assert telemetry["telemetry"]["checkpoints_written"] >= 1
            # Failure counters are lifetime counters: they do not reset.
            assert telemetry["telemetry"]["checkpoint_failures"] == 1
            factors = await dispatch(server, "factors", stream="s")
            await server.stop()
            return factors

        factors = asyncio.run(scenario())
        reference = sequential_reference(warm, chunks)
        for fa, fb in zip(factors["factors"], reference.factors()["factors"]):
            assert np.array_equal(np.array(fa), np.array(fb))

    def test_persistent_failures_go_checkpoint_stale(self, tmp_path):
        """Writes that keep failing push the stream past 2x its checkpoint
        budget: health flags it stale (degraded) while it keeps serving."""
        config = ServiceConfig(
            checkpoint_root=str(tmp_path / "state"),
            checkpoint_events=5,
            checkpoint_retry_backoff=0.05,
            fault_plan={
                "rules": [checkpoint_fault(hits=None, probability=1.0)]
            },
        )

        async def scenario():
            server = StreamingServer(ServiceManager(config))
            await create_and_start(server, "s", warm_records(seed=62))
            for chunk in live_chunks(3, seed=63):
                await dispatch(
                    server, "ingest", stream="s", records=wire_records(chunk)
                )
            await dispatch(server, "flush", stream="s")
            health = await dispatch(server, "health", stream="s")
            telemetry = await dispatch(server, "telemetry", stream="s")
            await server.stop()
            return health, telemetry

        health, telemetry = asyncio.run(scenario())
        assert health["status"] == "degraded"
        assert health["checkpoint_stale"] is True
        assert health["events_since_checkpoint"] >= 10
        assert telemetry["telemetry"]["checkpoints_written"] == 0
        assert telemetry["telemetry"]["checkpoint_failures"] >= 1


class TestOnDiskSafety:
    @pytest.mark.parametrize("stage", ["arrays", "manifest"])
    def test_partial_write_preserves_previous_checkpoint(
        self, tmp_path, stage
    ):
        """A write that dies mid-directory (partial npz / missing manifest)
        must not damage the previous checkpoint: a SIGKILL while degraded
        recovers bit-exactly from the last successful write."""
        root = str(tmp_path / "state")
        config = ServiceConfig(
            checkpoint_root=root,
            fault_plan={
                "rules": [
                    checkpoint_fault(stage=stage, kind="oserror", hits=(2,))
                ]
            },
        )
        warm = warm_records(seed=64)
        chunk = live_chunks(1, seed=65)[0]

        async def scenario():
            server = StreamingServer(ServiceManager(config))
            await create_and_start(server, "s", warm)
            # Write #1 succeeds; its factors are the recovery target.
            response = await dispatch(server, "checkpoint", stream="s")
            assert response["ok"]
            saved = await dispatch(server, "factors", stream="s")
            # Post-checkpoint work, then write #2 dies mid-directory.
            await dispatch(
                server, "ingest", stream="s", records=wire_records(chunk)
            )
            await dispatch(server, "flush", stream="s")
            with pytest.raises(OSError):
                await dispatch(server, "checkpoint", stream="s")
            health = await dispatch(server, "health", stream="s")
            assert health["status"] == "degraded"
            # Emulated SIGKILL: recover from disk *now*, with the failed
            # write's debris still around.  Only checkpoint #1 exists.
            recovered = ServiceManager(ServiceConfig(checkpoint_root=root))
            report = recovered.recover()
            assert report["failed"] == {}
            after_crash = recovered.get("s").factors()
            # Still live in the original server; write #3 succeeds and
            # clears the degraded state.
            response = await dispatch(server, "checkpoint", stream="s")
            assert response["ok"]
            health = await dispatch(server, "health", stream="s")
            assert health["status"] == "ok"
            current = await dispatch(server, "factors", stream="s")
            await server.stop()
            return saved, after_crash, current

        saved, after_crash, current = asyncio.run(scenario())
        for fa, fb in zip(saved["factors"], after_crash["factors"]):
            assert np.array_equal(np.array(fa), np.array(fb))
        # After the successful write #3, recovery sees the newest state.
        recovered = ServiceManager(ServiceConfig(checkpoint_root=root))
        recovered.recover()
        for fa, fb in zip(
            current["factors"], recovered.get("s").factors()["factors"]
        ):
            assert np.array_equal(np.array(fa), np.array(fb))

    def test_commit_stage_fault_is_an_ambiguous_success(self, tmp_path):
        """A fault after the atomic swap: the write landed but the writer
        saw an error.  The conservative answer — count it as a failure and
        retry — must be safe, and recovery sees the new state."""
        root = str(tmp_path / "state")
        config = ServiceConfig(
            checkpoint_root=root,
            fault_plan={
                "rules": [
                    checkpoint_fault(stage="commit", kind="oserror", hits=(1,))
                ]
            },
        )

        async def scenario():
            server = StreamingServer(ServiceManager(config))
            await create_and_start(server, "s", warm_records(seed=66))
            with pytest.raises(OSError):
                await dispatch(server, "checkpoint", stream="s")
            telemetry = await dispatch(server, "telemetry", stream="s")
            assert telemetry["telemetry"]["degraded"] is True
            factors = await dispatch(server, "factors", stream="s")
            # The retry is a no-op state-wise and clears the degraded flag.
            response = await dispatch(server, "checkpoint", stream="s")
            assert response["ok"]
            await server.stop()
            return factors

        factors = asyncio.run(scenario())
        recovered = ServiceManager(ServiceConfig(checkpoint_root=root))
        assert recovered.recover()["recovered"] == ["s"]
        for fa, fb in zip(
            factors["factors"], recovered.get("s").factors()["factors"]
        ):
            assert np.array_equal(np.array(fa), np.array(fb))


class TestIsolationAcrossStreams:
    def test_checkpoint_all_is_best_effort(self, tmp_path):
        """One stream's dead disk must not keep the others from being
        persisted — by the op, by the graceful stop, or by recovery."""
        root = str(tmp_path / "state")
        config = ServiceConfig(
            checkpoint_root=root,
            fault_plan={
                "rules": [
                    checkpoint_fault(
                        hits=None, probability=1.0, streams=["sick"]
                    )
                ]
            },
        )

        async def scenario():
            server = StreamingServer(ServiceManager(config))
            await create_and_start(server, "sick", warm_records(seed=67))
            await create_and_start(server, "healthy", warm_records(seed=68))
            response = await dispatch(server, "checkpoint_all")
            assert response["checkpointed"] == ["healthy"]
            assert "sick" in response["failed"]
            assert "OSError" in response["failed"]["sick"]
            # Both streams keep serving.
            for stream in ("sick", "healthy"):
                factors = await dispatch(server, "factors", stream=stream)
                assert factors["ok"]
            health = await dispatch(server, "health")
            assert health["streams"]["degraded"] == ["sick"]
            # Graceful stop survives the sick stream too.
            await server.stop()

        asyncio.run(scenario())
        recovered = ServiceManager(ServiceConfig(checkpoint_root=root))
        report = recovered.recover()
        assert "healthy" in report["recovered"]


class TestWatchdog:
    def test_stalled_apply_is_flagged_and_clears(self):
        """A worker stuck in one apply past ``watchdog_stall_seconds`` is
        reported by ``health`` (which must answer lock-free, *during* the
        stall) and recovers once the apply completes."""
        config = ServiceConfig(
            watchdog_stall_seconds=0.08,
            fault_plan={
                "rules": [
                    {
                        "site": "worker.stall",
                        "kind": "delay",
                        "delay": 0.6,
                        # Queued item 1 is the warm chunk; the live chunk
                        # below is item 2.
                        "hits": [2],
                    }
                ]
            },
        )
        warm = warm_records(seed=69)
        chunk = live_chunks(1, seed=70)[0]

        async def scenario():
            # start() is needed here: the watchdog task (stalls_detected)
            # only runs on a started server.
            server = StreamingServer(ServiceManager(config))
            await server.start()
            await create_and_start(server, "s", warm)
            await dispatch(
                server, "ingest", stream="s", records=wire_records(chunk)
            )
            await asyncio.sleep(0.3)  # mid-stall: > threshold, < delay
            during = await dispatch(server, "health", stream="s")
            overall = await dispatch(server, "health")
            await dispatch(server, "flush", stream="s")
            after = await dispatch(server, "health", stream="s")
            factors = await dispatch(server, "factors", stream="s")
            await server.stop()
            return during, overall, after, factors

        during, overall, after, factors = asyncio.run(scenario())
        assert during["status"] == "stalled"
        assert during["stalled"] is True
        assert during["apply_busy_seconds"] > 0.08
        assert during["stalls_detected"] >= 1
        assert overall["status"] == "stalled"
        assert overall["streams"]["stalled"] == ["s"]
        assert after["status"] == "ok"
        assert after["stalled"] is False
        assert after["stalls_detected"] == 1  # episode counted once
        # The stalled chunk was still applied exactly once.
        reference = sequential_reference(warm, [chunk])
        for fa, fb in zip(factors["factors"], reference.factors()["factors"]):
            assert np.array_equal(np.array(fa), np.array(fb))

    def test_chunk_queued_behind_a_stalled_stream_is_not_stalled(self):
        """The stall clock counts apply time, not time spent waiting for
        the numeric worker: while stream ``a``'s apply is stuck, stream
        ``b``'s chunk waits behind it well past the threshold, yet only
        ``a`` is flagged."""
        config = ServiceConfig(
            watchdog_stall_seconds=0.1,
            fault_plan={
                "rules": [
                    {
                        "site": "worker.stall",
                        "kind": "delay",
                        "delay": 0.4,
                        "streams": ["a"],
                        "hits": [2],
                    }
                ]
            },
        )
        warms = {"a": warm_records(seed=71), "b": warm_records(seed=72)}
        chunks = {"a": live_chunks(1, seed=73)[0], "b": live_chunks(1, seed=74)[0]}

        async def scenario():
            server = StreamingServer(ServiceManager(config))
            await server.start()
            for stream in ("a", "b"):
                await create_and_start(server, stream, warms[stream])
            await dispatch(
                server, "ingest", stream="a", records=wire_records(chunks["a"])
            )
            await asyncio.sleep(0.05)  # a's apply now holds the worker
            await dispatch(
                server, "ingest", stream="b", records=wire_records(chunks["b"])
            )
            await asyncio.sleep(0.2)  # b has waited > threshold for the worker
            during = {
                stream: await dispatch(server, "health", stream=stream)
                for stream in ("a", "b")
            }
            for stream in ("a", "b"):
                await dispatch(server, "flush", stream=stream)
            after = {
                stream: await dispatch(server, "health", stream=stream)
                for stream in ("a", "b")
            }
            factors = {
                stream: await dispatch(server, "factors", stream=stream)
                for stream in ("a", "b")
            }
            await server.stop()
            return during, after, factors

        during, after, factors = asyncio.run(scenario())
        assert during["a"]["status"] == "stalled"
        assert during["b"]["status"] == "ok"
        assert during["b"]["stalled"] is False
        assert during["b"]["apply_busy_seconds"] is None
        assert during["b"]["stalls_detected"] == 0
        assert after["a"]["stalls_detected"] == 1
        assert after["b"]["status"] == "ok"
        assert after["b"]["stalls_detected"] == 0
        for stream in ("a", "b"):
            reference = sequential_reference(warms[stream], [chunks[stream]])
            for fa, fb in zip(
                factors[stream]["factors"], reference.factors()["factors"]
            ):
                assert np.array_equal(np.array(fa), np.array(fb))


class TestInjectedApplyFaults:
    def test_apply_fault_defers_error_and_keeps_worker_alive(self):
        """An exception injected at the apply site behaves exactly like any
        apply failure: deferred error on flush, worker alive, a re-send of
        the same chunk lands."""
        config = ServiceConfig(
            fault_plan={
                "rules": [{"site": "apply", "kind": "exception", "hits": [1]}]
            }
        )
        warm = warm_records(seed=71)
        chunk = live_chunks(1, seed=72)[0]

        async def scenario():
            server = StreamingServer(ServiceManager(config))
            # The fault hits queued item 1 — the warm chunk itself.
            await dispatch(
                server,
                "create_stream",
                stream="s",
                config=tiny_config().to_dict(),
            )
            response = await dispatch(
                server, "ingest", stream="s", records=wire_records(warm)
            )
            assert response["ok"]
            flush = await dispatch(server, "flush", stream="s")
            assert len(flush["deferred_errors"]) == 1
            assert "InjectedFaultError" in flush["deferred_errors"][0]
            # The worker survived: re-send the lost chunk and go live.
            await dispatch(
                server, "ingest", stream="s", records=wire_records(warm)
            )
            await dispatch(server, "start_stream", stream="s")
            await dispatch(
                server, "ingest", stream="s", records=wire_records(chunk)
            )
            flush = await dispatch(server, "flush", stream="s")
            assert flush["deferred_errors"] == []
            factors = await dispatch(server, "factors", stream="s")
            await server.stop()
            return factors

        factors = asyncio.run(scenario())
        reference = sequential_reference(warm, [chunk])
        for fa, fb in zip(factors["factors"], reference.factors()["factors"]):
            assert np.array_equal(np.array(fa), np.array(fb))
