"""Benchmark-wide fixtures and sizing knobs.

The environment variable ``REPRO_BENCH_SCALE`` (default ``1.0``) scales every
benchmark's workload: values below 1 make the whole suite faster (useful on
slow machines or in CI), values above 1 stress larger streams.

Thread pinning: committed baseline numbers are only comparable when BLAS /
OpenMP worker pools are the same size on both sides, so this conftest pins
every recognised thread-count knob to 1 at import time (before numpy's BLAS
spins up its pool) unless the variable is already set in the environment or
``REPRO_BENCH_PIN_THREADS=0`` opts out.  :func:`thread_settings` reports
what actually applied so benchmark JSON can record it next to the numbers.
"""

from __future__ import annotations

import os

import pytest

#: Thread-count knobs recognised by the numeric stack used here: OpenMP
#: (and its vendor-prefixed variants read by BLAS builds), OpenBLAS, MKL
#: and numexpr.
_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _pin_threads() -> None:
    """Pin unset thread knobs to 1 (no-op under REPRO_BENCH_PIN_THREADS=0).

    ``setdefault`` semantics: an operator who exported an explicit count
    keeps it — the point is a deterministic default, not a straitjacket.
    """
    if os.environ.get("REPRO_BENCH_PIN_THREADS", "1") == "0":
        return
    for variable in _THREAD_ENV_VARS:
        os.environ.setdefault(variable, "1")


# Import time, not fixture time: BLAS pools size themselves when the shared
# library first loads, which happens as soon as any test module imports numpy.
_pin_threads()


def thread_settings() -> dict[str, object]:
    """The machine/thread context benchmark JSON should record."""
    return {
        "cpu_count": os.cpu_count(),
        "pinned": os.environ.get("REPRO_BENCH_PIN_THREADS", "1") != "0",
        "thread_env": {
            variable: os.environ.get(variable)
            for variable in _THREAD_ENV_VARS
        },
    }


def bench_scale() -> float:
    """Global multiplier applied to benchmark workload sizes."""
    try:
        return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    except ValueError:
        return 1.0


@pytest.fixture(scope="session")
def workload_scale() -> float:
    """Session fixture exposing the global benchmark scale."""
    return bench_scale()


def scaled_events(base: int, minimum: int = 200) -> int:
    """Scale an event count by the global benchmark scale."""
    return max(int(base * bench_scale()), minimum)
