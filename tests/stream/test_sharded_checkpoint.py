"""Relaxed checkpoint/restore: interrupt → restore → continue must be exact.

Relaxed runs (``relaxed=True``, see :mod:`repro.core.relaxed`) relax
consistency *within* a batch, but their durability contract is as strict as
the exact path's: for every variant, a run interrupted at a
batch boundary and restored must continue bit-identically — factors and
Grams ``np.array_equal`` — to the uninterrupted relaxed run.  The relaxed
update keeps no state between batches, so the model's factors, Grams and
variant aux are everything a restore needs; SNS_MAT's ``λ`` absorption runs
at ``initialize`` only, so a restore adopts the saved Gram 0 verbatim.

Batch boundaries are the natural interruption points because relaxed
semantics are *batch-defined*: every row a batch touches is solved once.
This is also how the streaming service operates — chunks are applied as
whole batches and checkpoints are taken between them, never inside one.
(Splitting a batch in two is still a *valid* relaxed execution, just a
different one — the per-event exact path is the only engine whose results
are invariant to batch boundaries.)
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

MODE_SIZES = (6, 5)
RANK = 3
BATCH_WINDOW = 2.0
N_BATCHES = 30


@pytest.fixture(scope="module")
def relaxed_setup():
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


def build_run(relaxed_setup, variant: str):
    stream, config, initial = relaxed_setup
    processor = ContinuousStreamProcessor(stream, config)
    model = create_algorithm(
        variant,
        SNSConfig(rank=RANK, theta=5, eta=1000.0, seed=0, relaxed=True),
    )
    model.initialize(processor.window, initial)
    return processor, model


def advance_batches(processor, model, n_batches: int) -> int:
    """Apply the next ``n_batches`` whole batches (the service drain shape)."""
    applied = 0
    batches = processor.iter_batches(batch_window=BATCH_WINDOW)
    try:
        for batch in batches:
            model.update_batch(batch)
            applied += 1
            if applied >= n_batches:
                break
    finally:
        batches.close()  # release the processor's single-drain guard
    return applied


@pytest.mark.parametrize("variant", sorted(ALGORITHMS))
def test_relaxed_resume_matches_uninterrupted_run(relaxed_setup, tmp_path, variant):
    reference_processor, reference_model = build_run(relaxed_setup, variant)
    n_reference = advance_batches(reference_processor, reference_model, N_BATCHES)
    assert n_reference == N_BATCHES

    half = N_BATCHES // 2 - 1
    paused_processor, paused_model = build_run(relaxed_setup, variant)
    advance_batches(paused_processor, paused_model, half)
    paused_processor.save_checkpoint(tmp_path / "ckpt", model=paused_model)
    restored_processor, restored_model, _ = restore_run(tmp_path / "ckpt")
    assert restored_model is not None
    assert restored_model.config.relaxed
    advance_batches(restored_processor, restored_model, N_BATCHES - half)

    assert dict(restored_processor.window.tensor.items()) == dict(
        reference_processor.window.tensor.items()
    )
    assert (
        restored_processor.n_events_emitted
        == reference_processor.n_events_emitted
    )
    assert restored_model.n_updates == reference_model.n_updates
    for mode, (restored, reference) in enumerate(
        zip(restored_model.factors, reference_model.factors)
    ):
        assert np.array_equal(restored, reference), f"factor {mode} differs"
    for mode, (restored, reference) in enumerate(
        zip(restored_model.grams, reference_model.grams)
    ):
        assert np.array_equal(restored, reference), f"Gram {mode} differs"
    assert restored_model.fitness() == reference_model.fitness()
