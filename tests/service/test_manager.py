"""ServiceManager: admission, durability, recovery."""

from __future__ import annotations

import asyncio
import dataclasses
import json

import numpy as np
import pytest

from repro.exceptions import ServiceError
from repro.service.config import ServiceConfig
from repro.service.manager import ServiceManager
from repro.service.server import StreamingServer

from helpers import edit_json, live_chunks, tiny_config, warm_records


def populated_manager(service_config, n_streams=3, live=True) -> ServiceManager:
    manager = ServiceManager(service_config)
    for position in range(n_streams):
        session = manager.create_stream(f"tenant-{position}", tiny_config())
        session.ingest(warm_records(seed=position + 1))
        if live:
            session.start()
            for chunk in live_chunks(2, seed=position + 50):
                session.ingest(chunk)
    return manager


def edit_manifest(directory, change):
    edit_json(directory / "state" / "manifest.json", change)


def edit_meta(directory, change):
    edit_json(directory / "meta.json", change)


def version_1(directory):
    edit_meta(directory, lambda meta: meta.update(version=1))
    edit_manifest(directory, lambda manifest: manifest.update(version=1))


def edit_arrays(directory, change):
    path = directory / "state" / "state.npz"
    with np.load(path) as payload:
        arrays = dict(payload)
    change(arrays)
    np.savez(path, **arrays)


def set_entry(key, position, value):
    """An edit that writes ``value`` at ``position`` of array ``key``."""
    return lambda d: edit_arrays(d, lambda a: a[key].__setitem__(position, value))


def replace_array(key, change):
    """An edit that replaces array ``key`` with ``change(array)``."""
    return lambda d: edit_arrays(d, lambda a: a.__setitem__(key, change(a[key])))


#: A stream directory written before format 2, and damaged ones:
#: kind -> (edit of the stream directory, what the failure reason names).
DAMAGE = {
    "version 1": (version_1, "version 1"),
    "unknown model name": (
        lambda d: edit_manifest(d, lambda m: m["model"].update(name="sns_typo")),
        "sns_typo",
    ),
    "truncated factor": (
        replace_array("model_factor_0", lambda factor: factor[:, :1]),
        "model_factor_0",
    ),
    "factor count": (
        lambda d: edit_manifest(d, lambda m: m["model"].update(n_factors=1)),
        "1 factor matrices",
    ),
    "unknown model config key": (
        lambda d: edit_manifest(d, lambda m: m["model"]["config"].update(bogus=1)),
        "bogus",
    ),
    "mistyped last_seq": (
        lambda d: edit_manifest(d, lambda m: m["extra"].update(last_seq="abc")),
        "last_seq",
    ),
    "config not an object": (
        lambda d: edit_meta(d, lambda meta: meta.update(config="nope")),
        "config",
    ),
    # The run checkpoint's arrays, each read as written.
    "window index out of bounds": (
        set_entry("window_indices", (0, 0), 99),
        "window_indices",
    ),
    "duplicate window coordinate": (
        replace_array("window_indices", lambda w: np.concatenate([w[:1], w[:-1]])),
        "window_indices",
    ),
    "short window values": (
        replace_array("window_values", lambda values: values[:-1]),
        "window_values",
    ),
    "float window indices": (
        replace_array("window_indices", lambda w: w.astype(np.float64) + 0.5),
        "window_indices",
    ),
    "heap record id out of range": (
        set_entry("heap_records", 0, 99),
        "heap_records",
    ),
    "future record id out of range": (
        replace_array("future_records", lambda ids: np.append(ids, 99)),
        "future_records",
    ),
    "heap step out of range": (set_entry("heap_steps", 0, 99), "heap_steps"),
    "negative record index": (
        set_entry("records_indices", (0, 0), -1),
        "records_indices",
    ),
    "record index outside its mode": (
        set_entry("records_indices", (0, 0), 99),
        "records_indices",
    ),
}


def assert_recovers_only_the_intact_stream(service_config, damaged):
    """``tenant-0`` intact, each ``damaged`` stream id broken as its kind
    says: recover() restores tenant-0, lists the rest under ``failed``, and
    a server over the same root starts."""
    manager = populated_manager(service_config, n_streams=len(damaged) + 1)
    manager.checkpoint_all()
    for stream_id, kind in damaged.items():
        DAMAGE[kind][0](manager.stream_directory(stream_id))

    fresh = ServiceManager(service_config)
    report = fresh.recover()
    assert report["recovered"] == ["tenant-0"]
    assert sorted(report["failed"]) == sorted(damaged)
    for stream_id, kind in damaged.items():
        assert DAMAGE[kind][1] in report["failed"][stream_id]
    original = manager.get("tenant-0").factors()["factors"]
    for fa, fb in zip(original, fresh.get("tenant-0").factors()["factors"]):
        assert np.array_equal(np.array(fa), np.array(fb))

    async def start_and_stop():
        server = StreamingServer(ServiceManager(service_config))
        await server.start()
        streams = server.manager.stream_ids
        await server.stop()
        return streams

    assert asyncio.run(start_and_stop()) == ["tenant-0"]


class TestAdmission:
    def test_create_get_drop(self, service_config, stream_config):
        manager = ServiceManager(service_config)
        session = manager.create_stream("a", stream_config)
        assert manager.get("a") is session
        assert "a" in manager and len(manager) == 1
        manager.drop_stream("a")
        assert "a" not in manager
        with pytest.raises(ServiceError) as excinfo:
            manager.get("a")
        assert excinfo.value.code == "unknown_stream"

    def test_duplicate_id_is_conflict(self, service_config, stream_config):
        manager = ServiceManager(service_config)
        manager.create_stream("a", stream_config)
        with pytest.raises(ServiceError) as excinfo:
            manager.create_stream("a", stream_config)
        assert excinfo.value.code == "conflict"

    @pytest.mark.parametrize(
        "stream_id", ["", "-leading-dash", "has space", "a/b", "x" * 129]
    )
    def test_malformed_ids_rejected(self, service_config, stream_config, stream_id):
        manager = ServiceManager(service_config)
        with pytest.raises(ServiceError) as excinfo:
            manager.create_stream(stream_id, stream_config)
        assert excinfo.value.code == "bad_request"

    def test_stream_cap_enforced(self, stream_config):
        manager = ServiceManager(ServiceConfig(max_streams=2))
        manager.create_stream("a", stream_config)
        manager.create_stream("b", stream_config)
        with pytest.raises(ServiceError) as excinfo:
            manager.create_stream("c", stream_config)
        assert excinfo.value.code == "stream_cap"
        manager.drop_stream("a")
        manager.create_stream("c", stream_config)  # freed slot is reusable


class TestDurability:
    def test_no_root_means_no_checkpoints(self, stream_config):
        manager = ServiceManager(ServiceConfig())
        manager.create_stream("a", stream_config)
        assert manager.stream_directory("a") is None
        assert manager.checkpoint_stream("a") is None
        assert manager.checkpoint_all() == []

    def test_checkpoint_all_then_recover(self, service_config):
        manager = populated_manager(service_config, n_streams=3)
        assert manager.checkpoint_all() == [
            "tenant-0",
            "tenant-1",
            "tenant-2",
        ]
        fresh = ServiceManager(service_config)
        report = fresh.recover()
        assert report["recovered"] == ["tenant-0", "tenant-1", "tenant-2"]
        assert report["failed"] == {}
        for stream_id in manager.stream_ids:
            original = manager.get(stream_id).factors()["factors"]
            recovered = fresh.get(stream_id).factors()["factors"]
            for fa, fb in zip(original, recovered):
                assert np.array_equal(np.array(fa), np.array(fb))

    def test_recover_skips_damaged_stream_but_keeps_the_rest(
        self, service_config
    ):
        manager = populated_manager(service_config, n_streams=3)
        manager.checkpoint_all()
        damaged = manager.stream_directory("tenant-1")
        (damaged / "meta.json").write_text("{torn write")
        fresh = ServiceManager(service_config)
        report = fresh.recover()
        assert report["recovered"] == ["tenant-0", "tenant-2"]
        assert "tenant-1" in report["failed"]
        assert "tenant-1" not in fresh

    @pytest.mark.parametrize("kind", sorted(DAMAGE))
    def test_recover_reports_a_damaged_stream_and_the_server_starts(
        self, service_config, kind
    ):
        # Each of these once crashed recover() (TypeError or ValueError),
        # and with it StreamingServer.start(), instead of being reported.
        assert_recovers_only_the_intact_stream(service_config, {"tenant-1": kind})

    def test_recover_reports_old_and_damaged_streams_together(self, service_config):
        # One tenant per kind, plus the intact one.
        assert_recovers_only_the_intact_stream(
            dataclasses.replace(service_config, max_streams=len(DAMAGE) + 1),
            {f"tenant-{n}": kind for n, kind in enumerate(sorted(DAMAGE), start=1)},
        )

    def test_recover_rejects_renamed_directory(self, service_config):
        manager = populated_manager(service_config, n_streams=1)
        manager.checkpoint_all()
        directory = manager.stream_directory("tenant-0")
        directory.rename(directory.with_name("impostor"))
        fresh = ServiceManager(service_config)
        report = fresh.recover()
        assert report["recovered"] == []
        assert "does not match" in report["failed"]["impostor"]

    def test_recover_respects_the_stream_cap(self, service_config):
        manager = populated_manager(service_config, n_streams=3, live=False)
        manager.checkpoint_all()
        capped = ServiceConfig(
            max_streams=2,
            queue_limit=service_config.queue_limit,
            checkpoint_root=service_config.checkpoint_root,
        )
        fresh = ServiceManager(capped)
        report = fresh.recover()
        assert len(report["recovered"]) == 2
        assert len(report["failed"]) == 1
        assert "stream cap" in next(iter(report["failed"].values()))

    def test_recover_without_root_is_empty(self, stream_config):
        manager = ServiceManager(ServiceConfig())
        assert manager.recover() == {"recovered": [], "failed": {}}

    def test_drop_stream_can_delete_state(self, service_config):
        manager = populated_manager(service_config, n_streams=1)
        manager.checkpoint_all()
        directory = manager.stream_directory("tenant-0")
        assert directory.is_dir()
        manager.drop_stream("tenant-0", delete_state=True)
        assert not directory.exists()

    def test_describe_lists_every_stream(self, service_config):
        manager = populated_manager(service_config, n_streams=2)
        rows = manager.describe()
        assert [row["stream"] for row in rows] == ["tenant-0", "tenant-1"]
        assert all(row["phase"] == "live" for row in rows)
        assert all(row["events_applied"] > 0 for row in rows)
