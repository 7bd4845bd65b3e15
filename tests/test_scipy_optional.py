"""SciPy is optional, and no variant loads it.

``import repro`` and every SliceNStitch variant, on the exact path and on
the relaxed batch update, need numpy only: the sampled variants and the
least-squares solves call numpy's own LAPACK gufuncs, so their results do
not depend on whether SciPy is installed.  The import checks run in fresh
interpreters, because this test process has usually loaded SciPy already.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
from numpy.linalg import _umath_linalg

SRC = Path(__file__).resolve().parents[1] / "src"

#: A stream, its window config and an ALS start, for the fresh interpreters.
SETUP = """
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

    def started(name, **options):
        processor = ContinuousStreamProcessor(stream, config)
        start = decompose(processor.window.tensor, rank=4, n_iterations=5)
        model = create_algorithm(
            name, SNSConfig(rank=4, theta=5, **options)
        )
        model.initialize(processor.window, start.decomposition)
        return processor, model
"""


def run_python(*parts: str) -> list[str]:
    """Run ``parts``, each dedented, as one fresh interpreter's program.

    The interpreter runs on this checkout; returns its stdout lines.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "\n".join(textwrap.dedent(part) for part in parts)
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.splitlines()


def test_numpy_only_variants_never_load_scipy():
    lines = run_python(
        "import sys\nimport repro.cli\nimport repro.service.cli",
        SETUP,
        """
    for name in ("sns_mat", "sns_rnd", "sns_rnd_plus", "sns_vec", "sns_vec_plus"):
        processor, model = started(name)
        for _event, delta in processor.events(max_events=100):
            model.update(delta)
        print(name, model.n_updates)
    processor, model = started("sns_rnd", relaxed=True)
    print("relaxed sns_rnd", processor.run_batched(model=model, max_events=100))
    print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """,
    )
    assert lines == [
        "sns_mat 100",
        "sns_rnd 100",
        "sns_rnd_plus 100",
        "sns_vec 100",
        "sns_vec_plus 100",
        "relaxed sns_rnd 100",
        "[]",
    ]


def test_sampled_variants_are_the_same_without_scipy():
    digests = """
    import hashlib

    for name in ("sns_rnd", "sns_rnd_plus"):
        processor, model = started(name)
        for _event, delta in processor.events(max_events=200):
            model.update(delta)
        digest = hashlib.sha256()
        for factor in model.factors:
            digest.update(factor.tobytes())
        print(name, digest.hexdigest())
    """
    installed = run_python(SETUP, digests)
    blocked = run_python("import sys\nsys.modules['scipy'] = None", SETUP, digests)
    assert [line.split()[0] for line in installed] == ["sns_rnd", "sns_rnd_plus"]
    assert blocked == installed


def test_lapack_gufuncs_are_what_np_linalg_solve_calls():
    # The solves call these private gufuncs directly; a numpy release that
    # renames or reroutes them must fail here rather than change results.
    rng = np.random.default_rng(5)
    half = rng.standard_normal((6, 6))
    lower = np.tril(half @ half.T) + 6 * np.eye(6)
    rhs = rng.standard_normal(6)
    rows = rng.standard_normal((3, 6))
    assert np.array_equal(
        _umath_linalg.solve1(lower, rhs, signature="dd->d"),
        np.linalg.solve(lower, rhs),
    )
    assert np.array_equal(
        _umath_linalg.solve(lower, rows.T, signature="dd->d"),
        np.linalg.solve(lower, rows.T),
    )
