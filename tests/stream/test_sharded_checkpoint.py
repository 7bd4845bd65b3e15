"""Relaxed checkpoint/restore: interrupt → restore → continue must be exact.

Relaxed runs (``staleness`` set, see :mod:`repro.core.relaxed`) relax
consistency *within* a batch, but their durability contract is as strict as
the exact path's: for every variant × kernel backend, a run interrupted at a
batch boundary (and mid staleness interval — the checkpoint lands between
snapshot refreshes) and restored must continue bit-identically to the
uninterrupted relaxed run.  The aux entries (batch counter + factor/Gram
snapshot) riding in the model's ``state_dict`` are what makes that
possible: the refresh schedule, the stateless per-batch sample generators,
and the snapshot every row solve reads all line up again after the restore.

Batch boundaries are the natural interruption points because relaxed
semantics are *batch-defined*: every row a batch touches is solved once,
and the snapshot refresh schedule counts batches.  This is also how the
streaming service operates — chunks are applied as whole batches and
checkpoints are taken between them, never inside one.  (Splitting a batch
in two is still a *valid* relaxed execution, just a different one — the
per-event exact path is the only engine whose results are invariant to
batch boundaries.)

The ``numba`` backend degrades to the numpy reference when numba is not
importable (this is exercised either way — resolution happens inside the
model), so the suite runs on any box.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from repro.als.als import decompose
from repro.core.base import SNSConfig
from repro.core.registry import ALGORITHMS, create_algorithm
from repro.data.generators import generate_synthetic_stream
from repro.stream.checkpoint import MANIFEST_FILENAME, restore_run
from repro.stream.processor import ContinuousStreamProcessor
from repro.stream.window import WindowConfig

FACTOR_TOLERANCE = 1e-12
MODE_SIZES = (6, 5)
RANK = 3
#: Staleness of 2 with an interruption after an odd number of batches makes
#: the checkpoint land inside a synchronization interval — the restore must
#: reproduce the snapshot the remaining batches would have read.
STALENESS = 2
BATCH_WINDOW = 2.0
N_BATCHES = 30


@pytest.fixture(scope="module")
def sharded_setup():
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


def build_run(sharded_setup, variant: str, backend: str):
    stream, config, initial = sharded_setup
    processor = ContinuousStreamProcessor(stream, config)
    with warnings.catch_warnings():
        # backend="numba" degrades to numpy with a warning when numba is
        # not importable; that fallback is part of what this suite covers.
        warnings.simplefilter("ignore")
        model = create_algorithm(
            variant,
            SNSConfig(
                rank=RANK,
                theta=5,
                eta=1000.0,
                seed=0,
                backend=backend,
                staleness=STALENESS,
            ),
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


@pytest.mark.parametrize("backend", ["numpy", "numba"])
@pytest.mark.parametrize("variant", sorted(ALGORITHMS))
def test_sharded_resume_matches_uninterrupted_run(
    sharded_setup, tmp_path, variant, backend
):
    reference_processor, reference_model = build_run(sharded_setup, variant, backend)
    n_reference = advance_batches(reference_processor, reference_model, N_BATCHES)
    assert n_reference == N_BATCHES
    assert reference_model._relaxed is not None

    half = N_BATCHES // 2 - 1  # 14 % (STALENESS + 1) != 0: mid interval
    paused_processor, paused_model = build_run(sharded_setup, variant, backend)
    advance_batches(paused_processor, paused_model, half)
    assert paused_model._relaxed.batch_counter % (STALENESS + 1) != 0
    paused_processor.save_checkpoint(tmp_path / "ckpt", model=paused_model)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        restored_processor, restored_model, _ = restore_run(tmp_path / "ckpt")
    assert restored_model is not None
    assert restored_model._relaxed is not None
    # Relaxed bookkeeping restored: same point in the refresh schedule.
    assert (
        restored_model._relaxed.batch_counter
        == paused_model._relaxed.batch_counter
    )
    advance_batches(restored_processor, restored_model, N_BATCHES - half)

    assert dict(restored_processor.window.tensor.items()) == dict(
        reference_processor.window.tensor.items()
    )
    assert (
        restored_processor.n_events_emitted
        == reference_processor.n_events_emitted
    )
    assert restored_model.n_updates == reference_model.n_updates
    assert (
        restored_model._relaxed.batch_counter
        == reference_model._relaxed.batch_counter
        == N_BATCHES
    )
    scale = max(
        1.0, max(float(np.max(np.abs(f))) for f in reference_model.factors)
    )
    for mode, (restored, reference) in enumerate(
        zip(restored_model.factors, reference_model.factors)
    ):
        deviation = float(np.max(np.abs(restored - reference)))
        assert deviation <= FACTOR_TOLERANCE * scale, (
            f"factor {mode} deviates by {deviation:.3e} after relaxed resume "
            f"(bound {FACTOR_TOLERANCE * scale:.3e})"
        )
    assert restored_model.fitness() == pytest.approx(
        reference_model.fitness(), rel=1e-12, abs=1e-12
    )


def test_old_checkpoints_restore_onto_exact_path(sharded_setup, tmp_path):
    """A checkpoint saved without a staleness key restores onto the exact path."""
    stream, config, initial = sharded_setup
    processor = ContinuousStreamProcessor(stream, config)
    model = create_algorithm(
        "sns_vec", SNSConfig(rank=RANK, theta=5, eta=1000.0, seed=0)
    )
    model.initialize(processor.window, initial)
    processor.run_batched(model=model, max_events=50)
    processor.save_checkpoint(tmp_path / "ckpt", model=model)
    manifest_path = tmp_path / "ckpt" / MANIFEST_FILENAME
    manifest = json.loads(manifest_path.read_text())
    del manifest["model"]["config"]["staleness"]
    manifest_path.write_text(json.dumps(manifest))
    _, restored, _ = restore_run(tmp_path / "ckpt")
    assert restored is not None
    assert restored.config.staleness is None
    assert restored._relaxed is None
