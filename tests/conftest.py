"""Shared fixtures for the test suite.

Everything is intentionally tiny (small modes, short streams, low rank) so
the whole suite runs in seconds; the benchmarks exercise realistic sizes.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro.als.als import decompose
from repro.data.generators import generate_synthetic_stream
from repro.experiments.parallel import START_METHOD
from repro.stream.processor import ContinuousStreamProcessor
from repro.stream.stream import MultiAspectStream
from repro.stream.events import StreamRecord
from repro.stream.window import WindowConfig
from repro.tensor.sparse import SparseTensor


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_tensor(rng: np.random.Generator) -> SparseTensor:
    """A small random sparse tensor of shape (6, 5, 4)."""
    tensor = SparseTensor((6, 5, 4))
    coordinates = {
        (int(i), int(j), int(k))
        for i, j, k in zip(
            rng.integers(0, 6, size=30),
            rng.integers(0, 5, size=30),
            rng.integers(0, 4, size=30),
        )
    }
    for coordinate in coordinates:
        tensor.set(coordinate, float(rng.uniform(0.5, 3.0)))
    return tensor


@pytest.fixture
def tiny_records() -> list[StreamRecord]:
    """A handful of hand-written records for exact-value tests."""
    return [
        StreamRecord(indices=(0, 1), value=1.0, time=0.0),
        StreamRecord(indices=(1, 0), value=2.0, time=5.0),
        StreamRecord(indices=(0, 0), value=1.0, time=12.0),
        StreamRecord(indices=(2, 1), value=3.0, time=21.0),
        StreamRecord(indices=(1, 1), value=1.0, time=33.0),
    ]


@pytest.fixture
def tiny_stream(tiny_records: list[StreamRecord]) -> MultiAspectStream:
    """Stream over a 3 x 2 categorical space with 5 records."""
    return MultiAspectStream(tiny_records, mode_sizes=(3, 2))


@pytest.fixture
def small_stream() -> MultiAspectStream:
    """A synthetic stream big enough to exercise the streaming algorithms."""
    return generate_synthetic_stream(
        mode_sizes=(8, 7),
        rank=3,
        n_records=600,
        period=10.0,
        records_per_period=40.0,
        seed=7,
    )


@pytest.fixture
def small_window_config() -> WindowConfig:
    """Window configuration matching ``small_stream``."""
    return WindowConfig(mode_sizes=(8, 7), window_length=4, period=10.0)


@pytest.fixture
def small_processor(
    small_stream: MultiAspectStream, small_window_config: WindowConfig
) -> ContinuousStreamProcessor:
    """Processor bootstrapped on the small stream."""
    return ContinuousStreamProcessor(small_stream, small_window_config)


@pytest.fixture
def small_initial_factors(small_processor: ContinuousStreamProcessor):
    """ALS initialisation on the small stream's initial window."""
    result = decompose(
        small_processor.window.tensor, rank=4, n_iterations=8, seed=3
    )
    return result.decomposition


@pytest.fixture
def kill_after_first_save(monkeypatch):
    """Install, for a directory name ``victim``, a checkpoint save that ends
    its process right after the first save under a directory so named.

    Pool workers inherit the patch by forking, so this kills a fan-out
    worker mid-task (the test is skipped where fork is unavailable);
    ``monkeypatch.undo()`` lifts it.
    """
    if START_METHOD != "fork":
        pytest.skip("pool workers inherit the patch only by fork")
    save = ContinuousStreamProcessor.save_checkpoint

    def install(victim: str) -> None:
        def save_then_die(self, path, *args, **kwargs):
            saved = save(self, path, *args, **kwargs)
            if Path(path).parent.name == victim:
                os._exit(1)
            return saved

        monkeypatch.setattr(ContinuousStreamProcessor, "save_checkpoint", save_then_die)

    return install
