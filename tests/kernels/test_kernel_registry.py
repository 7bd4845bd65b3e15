"""Unit tests for :mod:`repro.kernels.registry`, the kernel seam.

The numpy kernels are the only implementation.  The registry lets a caller
put other callables behind the same five calls: the benchmark's traced runs
register timing wrappers with ``register_backend(..., replace=True)`` and
name them through ``SNSConfig.backend`` or ``set_default_backend``.  These
tests pin that seam: unknown names raise, ``"auto"`` resolves to the process
default or numpy, and a wrapped backend sees every kernel call a plain run
makes while the results stay bit-identical.
"""

from __future__ import annotations

import cProfile
import pstats
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.als.als import decompose
from repro.core.base import SNSConfig
from repro.core.registry import ALGORITHMS, create_algorithm
from repro.data.generators import generate_synthetic_stream
from repro.exceptions import ConfigurationError
from repro.kernels import (
    KERNEL_NAMES,
    KernelBackend,
    register_backend,
    resolve_backend,
    set_default_backend,
)
from repro.kernels import numpy_backend
from repro.kernels.api import validate_backend
from repro.service.config import StreamConfig
from repro.service.session import StreamSession
from repro.stream.events import StreamRecord
from repro.stream.processor import ContinuousStreamProcessor
from repro.stream.window import WindowConfig

COUNTING = "test-counting"


@pytest.fixture(autouse=True)
def no_process_default():
    set_default_backend(None)
    yield
    set_default_backend(None)


class TestRegistration:
    def test_numpy_is_always_available(self):
        backend = resolve_backend()
        assert backend.name == "numpy"
        assert resolve_backend("auto") is backend
        assert resolve_backend("numpy") is backend
        validate_backend(backend)

    def test_auto_name_is_reserved(self):
        with pytest.raises(ConfigurationError):
            register_backend("auto", resolve_backend)

    def test_duplicate_registration_rejected_unless_replace(self):
        register_backend("test-duplicate", resolve_backend, replace=True)
        with pytest.raises(ConfigurationError):
            register_backend("test-duplicate", resolve_backend)
        register_backend("test-duplicate", resolve_backend, replace=True)
        assert resolve_backend("test-duplicate").name == "numpy"

    def test_validate_backend_rejects_non_backend(self):
        with pytest.raises(TypeError):
            validate_backend(object())
        with pytest.raises(TypeError):
            register_backend("test-not-a-backend", object, replace=True)

    def test_loaded_instances_are_cached(self):
        # The factory runs once, at registration; resolving never re-runs it.
        built = []

        def factory():
            built.append(counting_backend(Counter()))
            return built[-1]

        register_backend("test-cached", factory, replace=True)
        set_default_backend("test-cached")
        resolved = [resolve_backend("test-cached") for _ in range(50)]
        resolved += [resolve_backend() for _ in range(51)]
        assert len(built) == 1
        assert all(backend is built[0] for backend in resolved)

    def test_refused_replacement_keeps_the_registered_backend(self):
        register_backend("test-kept", resolve_backend, replace=True)
        kept = resolve_backend("test-kept")

        def half_built():
            kernels = {name: getattr(kept, name) for name in KERNEL_NAMES}
            kernels["solve_regularized"] = None
            return KernelBackend(name="half", **kernels)

        with pytest.raises(TypeError, match="solve_regularized"):
            register_backend("test-kept", half_built, replace=True)
        assert resolve_backend("test-kept") is kept


class TestUnknownNames:
    def test_resolve_backend_raises_too(self):
        # A typo is a configuration error, never a silent fallback.
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            resolve_backend("no-such-backend")

    def test_set_default_backend_raises_immediately(self):
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            set_default_backend("no-such-backend")


class TestSelectionPrecedence:
    def test_process_default_is_what_auto_resolves_to(self):
        register_backend("test-default", resolve_backend, replace=True)
        set_default_backend("test-default")
        assert resolve_backend() is resolve_backend("test-default")
        assert resolve_backend("auto") is resolve_backend("test-default")

    def test_explicit_name_beats_process_default(self):
        register_backend("test-default", lambda: counting_backend(Counter()),
                         replace=True)
        set_default_backend("test-default")
        assert resolve_backend("numpy").name == "numpy"

    def test_replacing_the_default_takes_effect(self):
        # A traced run re-registers its wrappers under one name each time and
        # leaves the default naming it: "auto" must reach the newest ones.
        first, second = Counter(), Counter()
        register_backend("test-default", lambda: counting_backend(first),
                         replace=True)
        set_default_backend("test-default")
        register_backend("test-default",
                         lambda: counting_backend(second, resolve_backend("numpy")),
                         replace=True)
        resolve_backend().mttkrp_rows(
            np.zeros((1, 2), dtype=np.int64), np.ones(1), [np.ones((1, 2))] * 2, 0
        )
        assert (first["mttkrp_rows"], second["mttkrp_rows"]) == (0, 1)

    def test_clearing_the_default(self):
        register_backend("test-default", lambda: counting_backend(Counter()),
                         replace=True)
        set_default_backend("test-default")
        set_default_backend(None)
        assert resolve_backend().name == "numpy"


# ----------------------------------------------------------------------
# The timing seam, used the way perfbench/hooks.py uses it
# ----------------------------------------------------------------------
def counting_backend(
    counts: Counter, base: KernelBackend | None = None
) -> KernelBackend:
    """``base``'s kernels, else those ``"auto"`` resolves to now, counting calls."""
    if base is None:
        base = resolve_backend()

    def wrap(name):
        kernel = getattr(base, name)

        def counted(*args):
            counts[name] += 1
            return kernel(*args)

        return counted

    kernels = {name: wrap(name) for name in KERNEL_NAMES}
    return KernelBackend(name=COUNTING, description="counting", **kernels)


def install_counting_backend() -> Counter:
    counts: Counter = Counter()
    register_backend(COUNTING, lambda: counting_backend(counts), replace=True)
    return counts


def numpy_kernel_calls(run) -> Counter:
    """Calls ``run()`` makes into the numpy kernels, counted by cProfile.

    This does not go through the registry, so it also sees calls that would
    bypass the seam.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run()
    finally:
        profiler.disable()
    source = Path(numpy_backend.__file__).resolve()
    calls: Counter = Counter()
    for (filename, _, function), (_, n_calls, *_) in pstats.Stats(profiler).stats.items():
        if function in KERNEL_NAMES and Path(filename).resolve() == source:
            calls[function] += n_calls
    return calls


@pytest.fixture(scope="module")
def model_inputs():
    stream = generate_synthetic_stream(
        mode_sizes=(8, 7), rank=3, n_records=600, period=10.0,
        records_per_period=40.0, seed=7,
    )
    config = WindowConfig(mode_sizes=(8, 7), window_length=4, period=10.0)
    processor = ContinuousStreamProcessor(stream, config)
    initial = decompose(processor.window.tensor, rank=4, n_iterations=5, seed=3)
    return stream, config, initial.decomposition


def replay(model_inputs, method: str, backend: str, counts: Counter | None):
    """Initialise ``method`` and replay 150 events; returns (model, calls)."""
    stream, config, initial = model_inputs
    processor = ContinuousStreamProcessor(stream, config)
    model = create_algorithm(method, SNSConfig(rank=4, theta=5, backend=backend))
    model.initialize(processor.window, initial)

    def run():
        if method == "sns_vec":
            for _, delta in processor.events(max_events=150):
                model.update(delta)
        else:
            for batch in processor.iter_batches(max_events=150, batch_window=2.0):
                model.update_batch(batch)

    if counts is None:
        return model, numpy_kernel_calls(run)
    counts.clear()
    run()
    return model, Counter(counts)


@pytest.mark.parametrize("method", sorted(ALGORITHMS))
def test_counting_backend_sees_every_kernel_call(model_inputs, method):
    plain_model, plain_calls = replay(model_inputs, method, "auto", None)
    counts = install_counting_backend()
    counted_model, counted_calls = replay(model_inputs, method, COUNTING, counts)

    assert sum(plain_calls.values()) > 0
    assert counted_calls == plain_calls
    for plain, counted in zip(plain_model.factors, counted_model.factors):
        assert np.array_equal(plain, counted)


def session_records(n: int, start: float, seed: int) -> list[StreamRecord]:
    rng = np.random.default_rng(seed)
    return [
        StreamRecord(
            indices=(int(rng.integers(0, 4)), int(rng.integers(0, 3))),
            value=float(rng.uniform(0.5, 2.0)),
            time=start + position * 0.25,
        )
        for position in range(n)
    ]


def started_session() -> StreamSession:
    session = StreamSession(
        "s",
        StreamConfig(
            mode_sizes=(4, 3), window_length=3, period=5.0, rank=2,
            method="sns_rnd_plus", als_iterations=2, detector_warmup=5,
        ),
    )
    session.ingest(session_records(60, start=0.0, seed=1))
    session.start()
    return session


def served(counts: Counter | None, session: StreamSession | None = None):
    """A session fed three live chunks; returns (factors, calls)."""
    if session is None:
        session = started_session()
    live = session_records(24, start=15.25, seed=2)

    def run():
        for position in range(0, len(live), 8):
            session.ingest(live[position : position + 8])

    if counts is None:
        calls = numpy_kernel_calls(run)
    else:
        counts.clear()
        run()
        calls = Counter(counts)
    return session.factors()["factors"], calls


def test_process_default_reaches_served_streams():
    plain_factors, plain_calls = served(None)
    counts = install_counting_backend()
    set_default_backend(COUNTING)
    try:
        counted_factors, counted_calls = served(counts)
    finally:
        set_default_backend(None)

    assert sum(plain_calls.values()) > 0
    assert counted_calls == plain_calls
    for plain, counted in zip(plain_factors, counted_factors):
        assert np.array_equal(np.array(plain), np.array(counted))


def test_process_default_reaches_recovered_streams(tmp_path):
    # A served stream restored from its checkpoint resolves its kernels
    # anew, so a server that recovers its tenants still times them.
    started_session().save(tmp_path / "s")
    plain_factors, plain_calls = served(None, StreamSession.load(tmp_path / "s"))
    counts = install_counting_backend()
    set_default_backend(COUNTING)
    try:
        recovered = StreamSession.load(tmp_path / "s")
        counted_factors, counted_calls = served(counts, recovered)
    finally:
        set_default_backend(None)

    assert sum(plain_calls.values()) > 0
    assert counted_calls == plain_calls
    for plain, counted in zip(plain_factors, counted_factors):
        assert np.array_equal(np.array(plain), np.array(counted))
