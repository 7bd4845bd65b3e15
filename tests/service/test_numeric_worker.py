"""The server's threading model: one process-wide numeric worker thread.

Every session/manager call the server makes runs on one thread that is
not the event loop's; that thread outlives any one event loop; and a
stopped server leaves no other thread behind.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.service.config import ServiceConfig
from repro.service.manager import ServiceManager
from repro.service.server import StreamingServer
from repro.service.session import StreamSession

from helpers import live_chunks, warm_records, wire_records
from test_server import create_and_start, dispatch, sequential_reference

#: Every session/manager method the server hands to the numeric worker.
OFFLOADED = {
    StreamSession: (
        "ingest",
        "advance",
        "start",
        "factors",
        "fitness",
        "anomalies",
        "stats",
        "telemetry_snapshot",
    ),
    ServiceManager: (
        "recover",
        "checkpoint_stream",
        "checkpoint_all",
        "drop_stream",
    ),
}


@pytest.fixture
def offload_calls(monkeypatch):
    """``[(method name, thread), ...]`` of every offloaded call."""
    calls: list[tuple[str, threading.Thread]] = []

    def recording(name, method):
        def wrapper(*args, **kwargs):
            calls.append((name, threading.current_thread()))
            return method(*args, **kwargs)

        return wrapper

    for cls, names in OFFLOADED.items():
        for name in names:
            monkeypatch.setattr(cls, name, recording(name, getattr(cls, name)))
    return calls


class TestNumericWorker:
    N_STREAMS = 6

    def test_every_offloaded_call_runs_on_one_worker_thread(
        self, tmp_path, offload_calls
    ):
        """Six tenants at once, calling every offloaded method: every call
        lands on one thread, never the loop's."""
        config = ServiceConfig(
            max_streams=self.N_STREAMS,
            checkpoint_root=str(tmp_path / "state"),
            checkpoint_events=10,
        )
        warms = {
            f"t{i}": warm_records(seed=10 + i) for i in range(self.N_STREAMS)
        }
        chunk_sets = {
            f"t{i}": live_chunks(4, seed=40 + i) for i in range(self.N_STREAMS)
        }

        async def tenant(server, stream_id):
            await create_and_start(server, stream_id, warms[stream_id])
            for chunk in chunk_sets[stream_id]:
                await dispatch(
                    server,
                    "ingest",
                    stream=stream_id,
                    records=wire_records(chunk),
                )
                for op in ("fitness", "anomalies", "factors", "stats"):
                    assert (await dispatch(server, op, stream=stream_id))["ok"]
                await asyncio.sleep(0)
            await dispatch(server, "advance", stream=stream_id, time=24.0)
            flush = await dispatch(server, "flush", stream=stream_id)
            assert flush["deferred_errors"] == []
            await dispatch(server, "telemetry", stream=stream_id)
            await dispatch(server, "checkpoint", stream=stream_id)

        async def scenario():
            loop_thread = threading.current_thread()
            server = StreamingServer(ServiceManager(config))
            await server.start()
            await asyncio.gather(
                *(tenant(server, stream_id) for stream_id in warms)
            )
            written = await dispatch(server, "checkpoint_all")
            assert len(written["checkpointed"]) == self.N_STREAMS
            await dispatch(server, "drop_stream", stream="t0")
            await server.stop()
            return loop_thread

        loop_thread = asyncio.run(scenario())
        assert {name for name, _ in offload_calls} == {
            name for names in OFFLOADED.values() for name in names
        }
        threads = {thread for _, thread in offload_calls}
        assert len(threads) == 1, threads
        (worker,) = threads
        assert worker is not loop_thread
        assert worker.is_alive()

    def test_worker_outlives_an_event_loop(self, offload_calls):
        """Two servers in two ``asyncio.run`` calls both serve correctly,
        on the same worker thread."""
        warm = warm_records(seed=5)
        chunks = live_chunks(2, seed=6)

        async def scenario(stream_id):
            server = StreamingServer(ServiceManager(ServiceConfig()))
            await create_and_start(server, stream_id, warm)
            for chunk in chunks:
                await dispatch(
                    server, "ingest", stream=stream_id, records=wire_records(chunk)
                )
            await dispatch(server, "flush", stream=stream_id)
            factors = await dispatch(server, "factors", stream=stream_id)
            await server.stop()
            return factors["factors"]

        first = asyncio.run(scenario("first"))
        threads_first = {thread for _, thread in offload_calls}
        second = asyncio.run(scenario("second"))
        assert len(threads_first) == 1
        assert {thread for _, thread in offload_calls} == threads_first
        reference = sequential_reference(warm, chunks).factors()["factors"]
        for factors in (first, second):
            for fa, fb in zip(factors, reference):
                assert np.array_equal(np.array(fa), np.array(fb))

    def test_stop_leaves_only_the_worker_thread(self, offload_calls):
        """After ``stop()`` the only thread the server has added is the
        numeric worker — no executor pool is left behind."""
        before = set(threading.enumerate())

        async def scenario():
            server = StreamingServer(ServiceManager(ServiceConfig()))
            await server.start()
            await asyncio.gather(
                *(
                    create_and_start(server, f"s{i}", warm_records(seed=20 + i))
                    for i in range(3)
                )
            )
            for i, chunk in enumerate(live_chunks(3, seed=30)):
                await dispatch(
                    server, "ingest", stream=f"s{i}", records=wire_records(chunk)
                )
            await server.stop()
            return set(threading.enumerate())

        after_stop = asyncio.run(scenario())
        (worker,) = {thread for _, thread in offload_calls}
        assert threading.main_thread() in after_stop
        assert after_stop - before <= {worker}
        assert worker in after_stop
