"""Fixtures for the streaming-service tests (helpers live in helpers.py)."""

from __future__ import annotations

import os
import sys

import pytest

# The test tree is not a package; make `import helpers` work everywhere.
sys.path.insert(0, os.path.dirname(__file__))

from helpers import ServerProcess, tiny_config  # noqa: E402

from repro.service.config import ServiceConfig  # noqa: E402


@pytest.fixture
def stream_config():
    return tiny_config()


@pytest.fixture
def launch():
    """Factory of ``repro serve`` subprocesses, cleaned up on teardown."""
    processes: list[ServerProcess] = []

    def _launch(*extra_args: str, env=None) -> ServerProcess:
        process = ServerProcess(*extra_args, env=env)
        processes.append(process)
        return process

    yield _launch
    for process in processes:
        process.cleanup()


@pytest.fixture
def service_config(tmp_path):
    return ServiceConfig(
        max_streams=8, queue_limit=4, checkpoint_root=str(tmp_path / "state")
    )
