"""SciPy is optional, and only the code that uses it loads it.

``import repro`` and every SNS_MAT / SNS_VEC / SNS+_VEC run need numpy
only.  SciPy's LAPACK solvers are imported once per process, when a
sampled model (SNS_RND / SNS+_RND) is constructed; without SciPy those
variants take their numpy fallbacks.  The import checks run in fresh
interpreters, because this test process has usually loaded SciPy already.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.als.als import decompose
from repro.core.base import SNSConfig
from repro.core.registry import create_algorithm
from repro.kernels import lapack
from repro.stream.processor import ContinuousStreamProcessor

SRC = Path(__file__).resolve().parents[1] / "src"

requires_scipy = pytest.mark.skipif(
    importlib.util.find_spec("scipy") is None, reason="scipy is not installed"
)


def run_python(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter on this checkout; its stdout lines."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("REPRO_KERNEL_BACKEND", None)
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.splitlines()


def test_numpy_only_variants_never_load_scipy():
    lines = run_python(
        """
        import sys

        import repro
        import repro.cli
        import repro.service.cli
        from repro import (
            ContinuousStreamProcessor, SNSConfig, WindowConfig,
            create_algorithm, decompose,
        )
        from repro.data import generate_synthetic_stream

        stream = generate_synthetic_stream(
            mode_sizes=(8, 7), rank=3, n_records=600, period=10.0,
            records_per_period=40.0, seed=7,
        )
        config = WindowConfig(mode_sizes=(8, 7), window_length=4, period=10.0)
        for name in ("sns_mat", "sns_vec", "sns_vec_plus"):
            processor = ContinuousStreamProcessor(stream, config)
            start = decompose(processor.window.tensor, rank=4, n_iterations=5)
            model = create_algorithm(name, SNSConfig(rank=4, backend="numpy"))
            model.initialize(processor.window, start.decomposition)
            for _event, delta in processor.events(max_events=100):
                model.update(delta)
            print(name, model.n_updates)
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """
    )
    assert lines == ["sns_mat 100", "sns_vec 100", "sns_vec_plus 100", "[]"]


@requires_scipy
def test_constructing_a_sampled_model_loads_lapack():
    lines = run_python(
        """
        import sys

        from repro import SNSConfig, create_algorithm
        from repro.kernels.lapack import lapack_solvers

        print("scipy.linalg.lapack" in sys.modules)
        create_algorithm("sns_rnd_plus", SNSConfig(rank=3))
        print("scipy.linalg.lapack" in sys.modules)
        from scipy.linalg import lapack
        solvers = lapack_solvers()
        print(solvers.posv is lapack.dposv, solvers.trtrs is lapack.dtrtrs)
        """
    )
    assert lines == ["False", "True", "True True"]


def test_concurrent_first_calls_resolve_once(monkeypatch):
    monkeypatch.setattr(lapack, "_solvers", None)
    n_threads = 16
    barrier = threading.Barrier(n_threads)
    results: list[lapack.LapackSolvers | None] = [None] * n_threads

    def first_call(position: int) -> None:
        barrier.wait(timeout=30)
        results[position] = lapack.lapack_solvers()

    threads = [
        threading.Thread(target=first_call, args=(position,))
        for position in range(n_threads)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results[0] is not None
    assert all(result is results[0] for result in results)


def run_sampled(name, small_stream, small_window_config):
    processor = ContinuousStreamProcessor(small_stream, small_window_config)
    start = decompose(processor.window.tensor, rank=4, n_iterations=8, seed=3)
    model = create_algorithm(name, SNSConfig(rank=4, theta=5, backend="numpy"))
    model.initialize(processor.window, start.decomposition)
    for _event, delta in processor.events(max_events=60):
        model.update(delta)
    return model


@requires_scipy
@pytest.mark.parametrize("name", ["sns_rnd", "sns_rnd_plus"])
def test_sampled_variants_without_scipy_agree_to_round_off(
    name, small_stream, small_window_config, monkeypatch, request
):
    with_lapack = run_sampled(name, small_stream, small_window_config)
    assert with_lapack._lapack.posv is not None
    request.getfixturevalue("hide_scipy")
    monkeypatch.setattr(lapack, "_solvers", None)
    fallback = run_sampled(name, small_stream, small_window_config)
    assert fallback._lapack == lapack.LapackSolvers(posv=None, trtrs=None)
    assert lapack.lapack_solvers() == fallback._lapack
    for lapack_factor, numpy_factor in zip(with_lapack.factors, fallback.factors):
        np.testing.assert_allclose(numpy_factor, lapack_factor, rtol=1e-9, atol=1e-9)
