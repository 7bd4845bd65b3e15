"""Shared helpers for the streaming-service tests.

Every test stream here is deliberately tiny (small modes, short window,
few ALS iterations) so that multi-stream scenarios — including the
1,000-stream soak — stay fast.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from collections.abc import Mapping

import numpy as np

from repro.service.client import ServiceClient
from repro.service.config import StreamConfig
from repro.stream.events import StreamRecord

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

#: Geometry shared by most service tests: W*T = 15, so records in [0, 15)
#: fill the initial window and the stream goes live at t=15.
TINY_KWARGS = dict(
    mode_sizes=(4, 3),
    window_length=3,
    period=5.0,
    rank=2,
    als_iterations=2,
    detector_warmup=5,
    seed=0,
)


def edit_json(path, change) -> None:
    """Apply ``change`` to the JSON object saved at ``path``, in place."""
    payload = json.loads(path.read_text())
    change(payload)
    path.write_text(json.dumps(payload))


def tiny_config(**overrides) -> StreamConfig:
    kwargs = dict(TINY_KWARGS)
    kwargs.update(overrides)
    return StreamConfig(**kwargs)


def make_records(
    n: int,
    start: float,
    spacing: float,
    seed: int,
    mode_sizes=(4, 3),
) -> list[StreamRecord]:
    """``n`` chronologically ordered random records starting at ``start``."""
    rng = np.random.default_rng(seed)
    return [
        StreamRecord(
            indices=tuple(int(rng.integers(0, size)) for size in mode_sizes),
            value=float(rng.uniform(0.5, 2.0)),
            time=start + position * spacing,
        )
        for position in range(n)
    ]


def wire_records(records) -> list[list]:
    """Wire form of a record chunk: ``[[indices...], value, time]``."""
    return [[list(r.indices), r.value, r.time] for r in records]


def warm_records(seed: int = 1) -> list[StreamRecord]:
    """Records filling the initial window of a TINY stream: t in [0, 15)."""
    return make_records(30, start=0.0, spacing=0.5, seed=seed)


def live_chunks(n_chunks: int = 3, seed: int = 2) -> list[list[StreamRecord]]:
    """Chronological post-warm-up chunks (t > 15) for a TINY stream."""
    records = make_records(n_chunks * 8, start=15.25, spacing=0.25, seed=seed)
    return [records[i * 8 : (i + 1) * 8] for i in range(n_chunks)]


class ServerProcess:
    """A ``python -m repro.service`` subprocess bound to a free port.

    ``env`` replaces this process's environment as the server's (its
    ``PYTHONPATH`` still gains this checkout's ``src``).
    """

    def __init__(self, *extra_args: str, env: Mapping[str, str] | None = None):
        env = dict(os.environ if env is None else env)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC, env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--port", "0", *extra_args],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        self.port = self._await_port()

    def _await_port(self) -> int:
        deadline = time.monotonic() + 30.0
        assert self.process.stdout is not None
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                break
            if line.startswith("listening on "):
                return int(line.rsplit(":", 1)[1])
        raise AssertionError(
            f"server never announced its port (rc={self.process.poll()})"
        )

    def client(self, timeout: float = 60.0, **kwargs) -> ServiceClient:
        return ServiceClient("127.0.0.1", self.port, timeout=timeout, **kwargs)

    def kill(self) -> None:
        self.process.send_signal(signal.SIGKILL)
        self.process.wait(timeout=10.0)

    def wait(self, timeout: float = 30.0) -> int:
        return self.process.wait(timeout=timeout)

    def cleanup(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=10.0)
        if self.process.stdout is not None:
            self.process.stdout.close()
