"""Resume-equivalence suite: checkpoint → restore → continue vs uninterrupted.

For every SliceNStitch variant × engine (per-event / batched), an
interrupted run — save at N/2 events, restore into fresh objects, replay the
remaining events — must match an uninterrupted N-event run:

* the tensor window **bit-identically** (exact dict equality of entries),
* the factor matrices within ``1e-12`` (the documented bound; in practice
  the restored runs reproduce the reference exactly, because the restore
  path rebuilds the sparse backend in storage order — which fixes slice
  enumeration — and the model's RNG stream bit-for-bit),
* the lifetime counters (`n_events_emitted`, `n_updates`) exactly.

This is the acceptance gate of the checkpoint subsystem; CI runs it as the
resume-equivalence smoke step.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.als.als import decompose
from repro.core.base import SNSConfig
from repro.core.registry import ALGORITHMS, create_algorithm
from repro.data.generators import generate_synthetic_stream
from repro.stream.checkpoint import restore_run
from repro.stream.processor import ContinuousStreamProcessor
from repro.stream.window import WindowConfig

#: Documented factor-deviation bound for a resumed run.
FACTOR_TOLERANCE = 1e-12

#: Total replayed events; the checkpoint is taken at the halfway point.
N_EVENTS = 200

MODE_SIZES = (6, 5)
RANK = 3


@pytest.fixture(scope="module")
def equivalence_setup():
    stream = generate_synthetic_stream(
        mode_sizes=MODE_SIZES,
        rank=RANK,
        n_records=400,
        period=10.0,
        records_per_period=30.0,
        seed=3,
    )
    config = WindowConfig(mode_sizes=MODE_SIZES, window_length=3, period=10.0)
    processor = ContinuousStreamProcessor(stream, config)
    initial = decompose(processor.window.tensor, rank=RANK, n_iterations=5, seed=0)
    return stream, config, initial.decomposition


def build_run(equivalence_setup, variant: str):
    stream, config, initial = equivalence_setup
    processor = ContinuousStreamProcessor(stream, config)
    model = create_algorithm(
        variant, SNSConfig(rank=RANK, theta=5, eta=1000.0, seed=0)
    )
    model.initialize(processor.window, initial)
    return processor, model


def advance(processor, model, n_events: int, batched: bool) -> None:
    if batched:
        processor.run_batched(model=model, max_events=n_events)
    else:
        for _, delta in processor.events(max_events=n_events):
            model.update(delta)


@pytest.mark.parametrize("batched", [False, True], ids=["per_event", "batched"])
@pytest.mark.parametrize("variant", sorted(ALGORITHMS))
def test_resume_matches_uninterrupted_run(
    equivalence_setup, tmp_path, variant, batched
):
    # Reference: one uninterrupted N-event run.
    reference_processor, reference_model = build_run(equivalence_setup, variant)
    advance(reference_processor, reference_model, N_EVENTS, batched)

    # Interrupted twin: N/2 events, checkpoint, restore, remaining N/2.
    half = N_EVENTS // 2
    paused_processor, paused_model = build_run(equivalence_setup, variant)
    advance(paused_processor, paused_model, half, batched)
    paused_processor.save_checkpoint(tmp_path / "ckpt", model=paused_model)
    restored_processor, restored_model, _ = restore_run(tmp_path / "ckpt")
    assert restored_model is not None
    advance(restored_processor, restored_model, N_EVENTS - half, batched)

    # Window: bit-identical, entry for entry.
    assert dict(restored_processor.window.tensor.items()) == dict(
        reference_processor.window.tensor.items()
    )
    assert (
        restored_processor.n_events_emitted
        == reference_processor.n_events_emitted
        == N_EVENTS
    )
    # Factors: within the documented bound (observed: exactly equal).
    assert restored_model.n_updates == reference_model.n_updates
    scale = max(
        1.0,
        max(float(np.max(np.abs(f))) for f in reference_model.factors),
    )
    for mode, (restored, reference) in enumerate(
        zip(restored_model.factors, reference_model.factors)
    ):
        deviation = float(np.max(np.abs(restored - reference)))
        assert deviation <= FACTOR_TOLERANCE * scale, (
            f"factor {mode} deviates by {deviation:.3e} "
            f"(bound {FACTOR_TOLERANCE * scale:.3e})"
        )
    # Fitness — a global reduction over window and factors — must agree too.
    assert restored_model.fitness() == pytest.approx(
        reference_model.fitness(), rel=1e-12, abs=1e-12
    )


@pytest.mark.parametrize("batched", [False, True], ids=["per_event", "batched"])
@pytest.mark.parametrize("variant", sorted(ALGORITHMS))
def test_double_interruption_stays_exact(
    equivalence_setup, tmp_path, variant, batched
):
    """Two checkpoint/restore cycles compose without losing exactness."""
    reference_processor, reference_model = build_run(equivalence_setup, variant)
    advance(reference_processor, reference_model, N_EVENTS, batched)

    processor, model = build_run(equivalence_setup, variant)
    consumed = 0
    for chunk in (N_EVENTS // 3, N_EVENTS // 3):
        advance(processor, model, chunk, batched)
        consumed += chunk
        processor.save_checkpoint(tmp_path / "ckpt", model=model)
        processor, model, _ = restore_run(tmp_path / "ckpt")
    advance(processor, model, N_EVENTS - consumed, batched)

    assert dict(processor.window.tensor.items()) == dict(
        reference_processor.window.tensor.items()
    )
    for restored, reference in zip(model.factors, reference_model.factors):
        np.testing.assert_allclose(
            restored, reference, rtol=0.0, atol=FACTOR_TOLERANCE * 100
        )


@pytest.mark.parametrize("batched", [False, True], ids=["per_event", "batched"])
def test_resume_crossing_engines_keeps_window_exact(
    equivalence_setup, tmp_path, batched
):
    """A checkpoint saved by one engine restores into the other exactly.

    Pure window replay is engine-agnostic (grouping does not change the
    float operations), so saving under one engine and continuing under the
    other must still reproduce the reference window bit for bit.
    """
    stream, config, _ = equivalence_setup
    reference = ContinuousStreamProcessor(stream, config)
    reference.run(max_events=N_EVENTS)

    paused = ContinuousStreamProcessor(stream, config)
    if batched:
        paused.run_batched(max_events=N_EVENTS // 2)
    else:
        paused.run(max_events=N_EVENTS // 2)
    paused.save_checkpoint(tmp_path / "ckpt")
    restored, _, _ = restore_run(tmp_path / "ckpt")
    if batched:
        restored.run(max_events=N_EVENTS - N_EVENTS // 2)  # cross over
    else:
        restored.run_batched(max_events=N_EVENTS - N_EVENTS // 2)
    assert dict(restored.window.tensor.items()) == dict(
        reference.window.tensor.items()
    )
