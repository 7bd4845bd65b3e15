"""Exact checkpoint / restore of streaming runs (versioned npz + JSON manifest).

A checkpoint is a directory holding two files:

* ``manifest.json`` — format name + version, the window configuration, the
  scalar processor state (``start_time``, the event counter, the scheduler's
  sequence counter), the model metadata (registry name, hyper-parameter
  config, update counter, numpy bit-generator state), and an optional
  caller-supplied ``extra`` payload (the experiment runner stores its fitness
  bookkeeping there).
* ``state.npz`` — every array: the window's COO entries in storage order, a
  table of the unique stream records still referenced by the run, the
  scheduler heap (raw heap-array order, so the restored heap is structurally
  identical and pops in the exact same order, ties included), the pending
  future-record cursor as an id list, and the model's factor / Gram / aux
  matrices.

Guarantees
----------
Restore is *exact*, not approximate:

* the window tensor is rebuilt entry by entry in the saved storage order, so
  ``to_coo_arrays`` ordering — and with it every COO-driven float reduction —
  is preserved, and continuing the run leaves the window **bit-identical** to
  an uninterrupted one;
* the scheduler heap is adopted verbatim (no re-heapify) with its sequence
  counter, so simultaneous events resume with the same tie-breaking;
* the model's numpy ``Generator`` state is restored bit-for-bit, so the
  slice sampler continues on the exact same draw stream;
* ``_squared_norm`` is *recomputed exactly* from the restored entries (a
  compensated sum), shedding any incremental float drift the live run had
  accumulated.

The tensor's per-mode inverted index uses insertion-ordered dict buckets
whose iteration order is exactly the projection of the entry storage order,
so rebuilding the entries in ``to_coo_arrays`` order restores slice
enumeration — and with it every slice-driven float reduction — exactly.  The
equivalence suite (``tests/stream/test_checkpoint_equivalence.py``) pins the
resulting guarantee: checkpoint → restore → continue matches an
uninterrupted run bit-identically on the window and within ``1e-12`` on the
factors (observed: exactly equal) for all five variants × both engines.

Checkpoints written while the randomised variants had a second, legacy slice
sampler record a ``sampling`` key in the model config.
:meth:`~repro.core.base.SNSConfig.from_dict` drops it when it names the
remaining ``"vectorized"`` sampler and refuses ``"legacy"`` runs, which
cannot be continued exactly.  Checkpoints written while there were two
kernel backends name one as ``backend`` in the model config, which
``from_dict`` drops, and record a ``kernel_backend`` that restore ignores.

Checkpoints are self-contained: restoring does not need the original stream
object (the records still in flight are stored in the checkpoint itself).

Experiment snapshots
--------------------
:func:`save_experiment_snapshot` / :func:`load_experiment_snapshot` persist a
*prepared-but-unstarted* experiment: the full stream record table, the window
configuration, and the shared ALS initial factors every method starts from.
The snapshot is the unit of distribution for parallel replay
(:mod:`repro.experiments.parallel`): the parent prepares once, ships the
directory, and each worker rehydrates the identical stream and initial
decomposition — no per-worker data generation or ALS.  Rehydration is exact:
records and factors round-trip through float64 npz arrays bit-for-bit, so a
worker's ``run_method`` outcome is identical to an in-process run.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
from collections.abc import Mapping, Sequence
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.exceptions import CheckpointError, ConfigurationError
from repro.stream.events import StreamRecord, WindowEvent
from repro.stream.processor import ContinuousStreamProcessor
from repro.stream.scheduler import EventScheduler, RawEvent
from repro.stream.stream import MultiAspectStream
from repro.stream.window import TensorWindow, WindowConfig
from repro.tensor.sparse import SparseTensor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.base import ContinuousCPD
    from repro.tensor.kruskal import KruskalTensor

#: Format identifier written into every manifest.
FORMAT_NAME = "repro-stream-checkpoint"

#: On-disk format version.  Bump on any incompatible layout change; loading a
#: checkpoint with a different version raises :class:`ConfigurationError`.
FORMAT_VERSION = 1

MANIFEST_FILENAME = "manifest.json"
ARRAYS_FILENAME = "state.npz"

#: Format identifier of prepared-experiment snapshots (same file layout, a
#: different payload: stream records + window config + initial factors).
SNAPSHOT_FORMAT_NAME = "repro-experiment-snapshot"

#: On-disk snapshot format version; mismatches raise ConfigurationError.
SNAPSHOT_FORMAT_VERSION = 1


@dataclasses.dataclass(slots=True)
class StreamCheckpoint:
    """A loaded checkpoint: the parsed manifest plus the npz arrays."""

    path: Path
    manifest: dict[str, Any]
    arrays: dict[str, np.ndarray]

    @property
    def extra(self) -> Any:
        """The caller-supplied payload stored at save time (or ``None``)."""
        return self.manifest.get("extra")

    @property
    def has_model(self) -> bool:
        """True when model state was saved alongside the processor."""
        return self.manifest.get("model") is not None


def is_checkpoint(path: str | Path) -> bool:
    """True if ``path`` looks like a checkpoint directory (manifest present)."""
    path = Path(path)
    return (path / MANIFEST_FILENAME).is_file() and (path / ARRAYS_FILENAME).is_file()


# ----------------------------------------------------------------------
# Save
# ----------------------------------------------------------------------
def save_checkpoint(
    path: str | Path,
    processor: ContinuousStreamProcessor,
    model: "ContinuousCPD | None" = None,
    extra: Any = None,
) -> Path:
    """Write a checkpoint of ``processor`` (and optionally ``model``) to ``path``.

    ``path`` is created as a directory (parents included).  The save is
    crash-safe for the single-writer case: both files are written into a
    fresh temporary sibling directory which then replaces ``path``, so an
    interrupted save can never corrupt an existing checkpoint or leave a
    manifest paired with mismatched arrays — the worst case of a crash in
    the swap window is that ``path`` is briefly absent while the previous
    state survives under a ``<name>.old-<pid>`` sibling.  ``extra`` must be
    JSON-serializable; callers use it to persist run-loop bookkeeping (the
    experiment runner stores its fitness series and event count).

    When ``model`` is given it must track the *same* window object as
    ``processor`` — two objects that merely hold equal values would silently
    diverge after resume.
    """
    path = Path(path)
    if model is not None and model.window is not processor.window:
        raise ConfigurationError(
            "model.window is not the processor's window; checkpointing "
            "inconsistent objects would not restore a coherent run"
        )
    config = processor.config
    tensor = processor.window.tensor
    indices, values = tensor.to_coo_arrays()

    # Unique-record table shared by the heap entries and the pending records.
    record_rows: list[StreamRecord] = []
    record_ids: dict[int, int] = {}

    def intern_record(record: StreamRecord) -> int:
        key = id(record)
        row = record_ids.get(key)
        if row is None:
            row = len(record_rows)
            record_ids[key] = row
            record_rows.append(record)
        return row

    heap_entries, sequence = processor._scheduler.snapshot()
    heap_times = np.array([entry[0] for entry in heap_entries], dtype=np.float64)
    heap_sequences = np.array([entry[1] for entry in heap_entries], dtype=np.int64)
    heap_records = np.array(
        [intern_record(entry[3]) for entry in heap_entries], dtype=np.int64
    )
    heap_steps = np.array([entry[4] for entry in heap_entries], dtype=np.int64)
    future_ids = np.array(
        [intern_record(record) for record in processor._future_records],
        dtype=np.int64,
    )
    n_categorical = len(config.mode_sizes)
    records_indices = (
        np.array([record.indices for record in record_rows], dtype=np.int64)
        if record_rows
        else np.empty((0, n_categorical), dtype=np.int64)
    )
    records_values = np.array(
        [record.value for record in record_rows], dtype=np.float64
    )
    records_times = np.array(
        [record.time for record in record_rows], dtype=np.float64
    )

    arrays: dict[str, np.ndarray] = {
        "window_indices": indices,
        "window_values": values,
        "records_indices": records_indices,
        "records_values": records_values,
        "records_times": records_times,
        "heap_times": heap_times,
        "heap_sequences": heap_sequences,
        "heap_steps": heap_steps,
        "heap_records": heap_records,
        "future_records": future_ids,
    }

    manifest: dict[str, Any] = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "window": {
            "mode_sizes": list(config.mode_sizes),
            "window_length": config.window_length,
            "period": config.period,
            "n_deltas_applied": processor.window.n_deltas_applied,
            "tensor_version": tensor.version,
            # Diagnostic only: the incremental value at save time.  Restore
            # recomputes the squared norm exactly from the entries.
            "squared_norm": tensor.squared_norm(),
        },
        "processor": {
            "start_time": processor.start_time,
            "n_events_emitted": processor.n_events_emitted,
            "scheduler_sequence": sequence,
            # Live-ingestion watermark (see ContinuousStreamProcessor.extend);
            # absent in pre-service checkpoints, restored with a fallback.
            "ingest_horizon": processor.ingest_horizon,
        },
        "model": None,
        "extra": extra,
    }
    if model is not None:
        manifest["model"] = _pack_model_state(model.state_dict(), arrays)

    return _atomic_write_directory(path, manifest, arrays)


def sweep_stale_sibling_dirs(path: str | Path) -> list[Path]:
    """Remove stale ``<name>.tmp-*`` / ``<name>.old-*`` siblings of ``path``.

    A process killed inside :func:`_atomic_write_directory` can leave behind
    a half-written ``.tmp-<pid>`` directory, or — in the narrow window
    between retiring the previous checkpoint and renaming the new one in — a
    ``.old-<pid>`` directory holding the last good state while ``path``
    itself is absent.  A long-running service's background checkpoint writer
    makes both routine, so:

    * when ``path`` is missing but a ``.old-*`` sibling is a complete
      checkpoint, that sibling is renamed back to ``path`` (salvage);
    * every remaining ``.tmp-*`` / ``.old-*`` sibling is deleted.

    Returns the paths that were swept (deleted or salvaged).  Called
    automatically before every atomic write; recovery scans call it
    explicitly before probing :func:`is_checkpoint`.
    """
    path = Path(path)
    swept: list[Path] = []
    if not path.parent.is_dir():
        return swept
    stale = sorted(path.parent.glob(f"{path.name}.tmp-*")) + sorted(
        path.parent.glob(f"{path.name}.old-*")
    )
    for sibling in stale:
        if not sibling.is_dir():
            continue
        if (
            not path.exists()
            and sibling.name.startswith(f"{path.name}.old-")
            and (sibling / MANIFEST_FILENAME).is_file()
            and (sibling / ARRAYS_FILENAME).is_file()
        ):
            sibling.rename(path)
            swept.append(sibling)
            continue
        shutil.rmtree(sibling, ignore_errors=True)
        swept.append(sibling)
    return swept


#: Optional test/chaos hook called by :func:`_atomic_write_directory` at
#: each write stage (``begin`` / ``arrays`` / ``manifest`` / ``commit``)
#: with ``(path, stage)``.  The service's fault-injection harness installs
#: one to script mid-write ``OSError`` / ``ENOSPC`` / slow-write faults;
#: anything it raises propagates exactly like a real filesystem error (the
#: temp directory is cleaned up, the previous checkpoint survives).
_write_fault_hook = None


def install_write_fault_hook(hook) -> None:
    """Install (or, with ``None``, remove) the checkpoint write-fault hook."""
    global _write_fault_hook
    _write_fault_hook = hook


def _write_stage(path: Path, stage: str) -> None:
    hook = _write_fault_hook
    if hook is not None:
        hook(path, stage)


def _atomic_write_directory(
    path: Path, manifest: dict[str, Any], arrays: dict[str, np.ndarray]
) -> Path:
    """Write ``manifest.json`` + ``state.npz`` to ``path`` via a tmp-dir swap.

    Crash-safe for the single-writer case: an interrupted write can never
    leave a manifest paired with mismatched arrays (see
    :func:`save_checkpoint` for the full guarantee).  Stale ``.tmp-*`` /
    ``.old-*`` siblings left by a previously killed writer are swept first.
    """
    sweep_stale_sibling_dirs(path)
    _write_stage(path, "begin")
    temp_dir = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    if temp_dir.exists():
        shutil.rmtree(temp_dir)
    temp_dir.mkdir(parents=True)
    try:
        with open(temp_dir / ARRAYS_FILENAME, "wb") as handle:
            np.savez(handle, **arrays)
        _write_stage(path, "arrays")
        (temp_dir / MANIFEST_FILENAME).write_text(
            json.dumps(manifest, indent=2, sort_keys=True)
        )
        _write_stage(path, "manifest")
        if path.exists():
            retired = path.with_name(f"{path.name}.old-{os.getpid()}")
            if retired.exists():
                shutil.rmtree(retired)
            path.rename(retired)
            temp_dir.rename(path)
            shutil.rmtree(retired)
        else:
            temp_dir.rename(path)
        # After the swap: a fault here models "the write landed but the
        # writer saw an error" — the ambiguous success retries must tolerate.
        _write_stage(path, "commit")
    except BaseException:
        shutil.rmtree(temp_dir, ignore_errors=True)
        raise
    return path


def _pack_model_state(
    state: dict[str, Any], arrays: dict[str, np.ndarray]
) -> dict[str, Any]:
    """Split a model ``state_dict`` into manifest scalars and npz arrays."""
    for mode, factor in enumerate(state["factors"]):
        arrays[f"model_factor_{mode}"] = np.asarray(factor, dtype=np.float64)
    for mode, gram in enumerate(state["grams"]):
        arrays[f"model_gram_{mode}"] = np.asarray(gram, dtype=np.float64)
    aux_spec: dict[str, Any] = {}
    for key, value in (state.get("aux") or {}).items():
        if isinstance(value, (list, tuple)):
            aux_spec[key] = {"kind": "list", "length": len(value)}
            for position, item in enumerate(value):
                arrays[f"model_aux_{key}_{position}"] = np.asarray(
                    item, dtype=np.float64
                )
        else:
            aux_spec[key] = {"kind": "array"}
            arrays[f"model_aux_{key}"] = np.asarray(value, dtype=np.float64)
    return {
        "name": state["name"],
        "config": state["config"],
        "n_updates": state["n_updates"],
        "rng_state": state["rng_state"],
        "n_factors": len(state["factors"]),
        "aux_spec": aux_spec,
    }


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------
#: Arrays every checkpoint must carry regardless of whether a model was saved.
_CHECKPOINT_ARRAY_KEYS = (
    "window_indices",
    "window_values",
    "records_indices",
    "records_values",
    "records_times",
    "heap_times",
    "heap_sequences",
    "heap_steps",
    "heap_records",
    "future_records",
)


def _check_complete_directory(path: Path, what: str) -> tuple[Path, Path]:
    """Both files present -> their paths; one present -> CheckpointError."""
    manifest_path = path / MANIFEST_FILENAME
    arrays_path = path / ARRAYS_FILENAME
    has_manifest = manifest_path.is_file()
    has_arrays = arrays_path.is_file()
    if not has_manifest and not has_arrays:
        raise ConfigurationError(f"{path} is not a {what} directory")
    if not (has_manifest and has_arrays):
        missing = ARRAYS_FILENAME if has_manifest else MANIFEST_FILENAME
        raise CheckpointError(
            f"{what} at {path} is incomplete ({missing} is missing) — the "
            "directory was truncated or partially written; delete it or "
            "restore from an intact checkpoint"
        )
    return manifest_path, arrays_path


def _read_manifest(manifest_path: Path, what: str) -> dict[str, Any]:
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise CheckpointError(
            f"cannot read {what} manifest {manifest_path}: {error}"
        ) from error
    if not isinstance(manifest, dict):
        raise CheckpointError(
            f"{what} manifest {manifest_path} does not hold a JSON object"
        )
    return manifest


def _read_arrays(arrays_path: Path, what: str) -> dict[str, np.ndarray]:
    """Load the npz payload, mapping corruption onto :class:`CheckpointError`."""
    try:
        with np.load(arrays_path, allow_pickle=False) as payload:
            return {key: payload[key] for key in payload.files}
    except CheckpointError:
        raise
    except Exception as error:  # zipfile.BadZipFile, OSError, ValueError, ...
        raise CheckpointError(
            f"cannot read {what} arrays {arrays_path}: {error} — the file is "
            "truncated or corrupt"
        ) from error


def _require_arrays(
    arrays: Mapping[str, np.ndarray],
    required: Sequence[str],
    path: Path,
    what: str,
) -> None:
    missing = [key for key in required if key not in arrays]
    if missing:
        raise CheckpointError(
            f"{what} at {path} is missing required arrays {missing} — the "
            "directory was truncated or written by an interrupted save"
        )


def _model_array_keys(model_manifest: Mapping[str, Any]) -> list[str]:
    """Array keys a manifest's model section promises to find in the npz."""
    keys: list[str] = []
    try:
        n_factors = int(model_manifest["n_factors"])
    except (KeyError, TypeError, ValueError) as error:
        raise CheckpointError(
            f"checkpoint model metadata is unreadable: {error}"
        ) from error
    for mode in range(n_factors):
        keys.append(f"model_factor_{mode}")
        keys.append(f"model_gram_{mode}")
    for key, spec in (model_manifest.get("aux_spec") or {}).items():
        if not isinstance(spec, Mapping) or "kind" not in spec:
            raise CheckpointError(
                f"checkpoint model aux spec for {key!r} is unreadable"
            )
        if spec["kind"] == "list":
            for position in range(int(spec.get("length", 0))):
                keys.append(f"model_aux_{key}_{position}")
        else:
            keys.append(f"model_aux_{key}")
    return keys


def load_checkpoint(path: str | Path) -> StreamCheckpoint:
    """Read and validate a checkpoint directory.

    Raises :class:`ConfigurationError` when the directory is not a
    checkpoint at all or the format name / version does not match this
    implementation, and the narrower :class:`CheckpointError` when the
    directory *is* a checkpoint but is truncated or corrupt (one file
    missing, unreadable manifest, damaged npz, missing arrays) — the
    routine failure modes of a background checkpoint writer killed mid-save.
    """
    path = Path(path)
    manifest_path, arrays_path = _check_complete_directory(path, "checkpoint")
    manifest = _read_manifest(manifest_path, "checkpoint")
    if manifest.get("format") != FORMAT_NAME:
        raise ConfigurationError(
            f"{manifest_path} is not a {FORMAT_NAME} manifest "
            f"(format={manifest.get('format')!r})"
        )
    version = manifest.get("version")
    if version != FORMAT_VERSION:
        raise ConfigurationError(
            f"checkpoint format version {version!r} is not supported "
            f"(this implementation reads version {FORMAT_VERSION})"
        )
    for section in ("window", "processor"):
        if not isinstance(manifest.get(section), dict):
            raise CheckpointError(
                f"checkpoint manifest {manifest_path} lacks its {section!r} "
                "section — the manifest was truncated or hand-edited"
            )
    arrays = _read_arrays(arrays_path, "checkpoint")
    required = list(_CHECKPOINT_ARRAY_KEYS)
    model_manifest = manifest.get("model")
    if model_manifest is not None:
        required.extend(_model_array_keys(model_manifest))
    _require_arrays(arrays, required, path, "checkpoint")
    return StreamCheckpoint(path=path, manifest=manifest, arrays=arrays)


def restore_processor(checkpoint: StreamCheckpoint) -> ContinuousStreamProcessor:
    """Rebuild the stream processor saved in ``checkpoint``.

    The window tensor is reconstructed in the saved storage order with its
    mutation counter carried forward, the squared norm is recomputed exactly
    from the entries, and the scheduler heap is adopted verbatim with its
    sequence counter — so continuing the run is exact (see the module
    docstring for the precise guarantee).
    """
    manifest = checkpoint.manifest
    arrays = checkpoint.arrays
    window_manifest = manifest["window"]
    processor_manifest = manifest["processor"]
    config = WindowConfig(
        mode_sizes=tuple(window_manifest["mode_sizes"]),
        window_length=window_manifest["window_length"],
        period=window_manifest["period"],
    )
    tensor = SparseTensor.from_coo(
        config.shape,
        arrays["window_indices"],
        arrays["window_values"],
        version=int(window_manifest.get("tensor_version", 0)),
    )
    window = TensorWindow.from_tensor(
        config, tensor, n_deltas_applied=int(window_manifest["n_deltas_applied"])
    )
    records = _restore_records(checkpoint, len(config.mode_sizes))
    kind_by_step = tuple(
        WindowEvent.kind_for_step(step, config.window_length)
        for step in range(config.window_length + 1)
    )
    heap_entries: list[RawEvent] = []
    for time, sequence, record_id, step in zip(
        arrays["heap_times"].tolist(),
        arrays["heap_sequences"].tolist(),
        arrays["heap_records"].tolist(),
        arrays["heap_steps"].tolist(),
    ):
        heap_entries.append(
            (time, sequence, kind_by_step[step], records[record_id], step)
        )
    scheduler = EventScheduler.from_snapshot(
        heap_entries, int(processor_manifest["scheduler_sequence"])
    )
    future_records = [
        records[record_id] for record_id in arrays["future_records"].tolist()
    ]
    ingest_horizon = processor_manifest.get("ingest_horizon")
    return ContinuousStreamProcessor._restore(
        config=config,
        start_time=float(processor_manifest["start_time"]),
        window=window,
        scheduler=scheduler,
        future_records=future_records,
        n_events_emitted=int(processor_manifest["n_events_emitted"]),
        ingest_horizon=(
            None if ingest_horizon is None else float(ingest_horizon)
        ),
    )


def _restore_records(
    checkpoint: StreamCheckpoint, n_categorical: int
) -> list[StreamRecord]:
    """Materialise the unique-record table (one shared object per row)."""
    arrays = checkpoint.arrays
    indices = np.asarray(arrays["records_indices"], dtype=np.int64)
    if indices.size and indices.shape[1] != n_categorical:
        raise ConfigurationError(
            f"checkpointed records have {indices.shape[1]} categorical "
            f"indices; the window has {n_categorical} categorical modes"
        )
    return [
        StreamRecord(indices=tuple(row), value=value, time=time)
        for row, value, time in zip(
            indices.tolist(),
            arrays["records_values"].tolist(),
            arrays["records_times"].tolist(),
        )
    ]


def restore_model(
    checkpoint: StreamCheckpoint, window: TensorWindow
) -> "ContinuousCPD | None":
    """Rebuild the model saved in ``checkpoint`` against a restored ``window``.

    Returns ``None`` when the checkpoint carries no model state.  The model
    class is resolved through the algorithm registry by its saved name and
    reconstructed with its saved hyper-parameters (through
    :meth:`SNSConfig.from_dict`), then ``load_state``
    restores factors, Grams, counters, aux buffers, and the RNG stream.
    """
    model_manifest = checkpoint.manifest.get("model")
    if model_manifest is None:
        return None
    # Local imports: repro.core imports repro.stream at module load time.
    from repro.core.base import SNSConfig
    from repro.core.registry import create_algorithm

    arrays = checkpoint.arrays
    config = SNSConfig.from_dict(model_manifest["config"])
    model = create_algorithm(model_manifest["name"], config)
    n_factors = int(model_manifest["n_factors"])
    aux: dict[str, Any] = {}
    for key, spec in (model_manifest.get("aux_spec") or {}).items():
        if spec["kind"] == "list":
            aux[key] = [
                arrays[f"model_aux_{key}_{position}"]
                for position in range(int(spec["length"]))
            ]
        else:
            aux[key] = arrays[f"model_aux_{key}"]
    state = {
        "name": model_manifest["name"],
        "config": model_manifest["config"],
        "n_updates": model_manifest["n_updates"],
        "rng_state": model_manifest["rng_state"],
        "factors": [arrays[f"model_factor_{mode}"] for mode in range(n_factors)],
        "grams": [arrays[f"model_gram_{mode}"] for mode in range(n_factors)],
        "aux": aux,
    }
    model.load_state(window, state)
    return model


def restore_run(
    path: str | Path,
) -> tuple[ContinuousStreamProcessor, "ContinuousCPD | None", Any]:
    """One-call restore: ``(processor, model or None, extra payload)``."""
    checkpoint = load_checkpoint(path)
    processor = restore_processor(checkpoint)
    model = restore_model(checkpoint, processor.window)
    return processor, model, checkpoint.extra


# ----------------------------------------------------------------------
# Experiment snapshots (prepared-but-unstarted runs)
# ----------------------------------------------------------------------
@dataclasses.dataclass(slots=True)
class ExperimentSnapshot:
    """A rehydrated prepared experiment: everything a worker needs to replay.

    ``stream`` and ``initial_factors`` are bit-identical to the objects the
    parent snapshotted, so ``run_method(stream, window_config, ...)`` in a
    worker process produces exactly the sequential result.
    """

    stream: MultiAspectStream
    window_config: WindowConfig
    initial_factors: "KruskalTensor"
    extra: Any = None


def is_experiment_snapshot(path: str | Path) -> bool:
    """True if ``path`` holds an experiment snapshot (cheap manifest sniff)."""
    path = Path(path)
    manifest_path = path / MANIFEST_FILENAME
    if not manifest_path.is_file() or not (path / ARRAYS_FILENAME).is_file():
        return False
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError):
        return False
    return manifest.get("format") == SNAPSHOT_FORMAT_NAME


def save_experiment_snapshot(
    path: str | Path,
    stream: MultiAspectStream,
    window_config: WindowConfig,
    initial_factors: "KruskalTensor | Sequence[np.ndarray]",
    extra: Any = None,
) -> Path:
    """Persist a prepared experiment (stream + window config + initial factors).

    The write is atomic in the same sense as :func:`save_checkpoint`.
    ``extra`` must be JSON-serializable; the parallel runner stores the
    dataset spec scalars (rank, θ, η) and the initial fitness there so
    workers never re-derive them.
    """
    from repro.tensor.kruskal import KruskalTensor

    path = Path(path)
    if stream.mode_sizes != window_config.mode_sizes:
        raise ConfigurationError(
            f"stream mode sizes {stream.mode_sizes} do not match window "
            f"config {window_config.mode_sizes}"
        )
    if not isinstance(initial_factors, KruskalTensor):
        initial_factors = KruskalTensor(list(initial_factors))
    n_categorical = len(window_config.mode_sizes)
    records = stream.records
    arrays: dict[str, np.ndarray] = {
        "records_indices": (
            np.array([record.indices for record in records], dtype=np.int64)
            if records
            else np.empty((0, n_categorical), dtype=np.int64)
        ),
        "records_values": np.array(
            [record.value for record in records], dtype=np.float64
        ),
        "records_times": np.array(
            [record.time for record in records], dtype=np.float64
        ),
        "initial_weights": np.asarray(initial_factors.weights, dtype=np.float64),
    }
    for mode, factor in enumerate(initial_factors.factors):
        arrays[f"initial_factor_{mode}"] = np.asarray(factor, dtype=np.float64)
    manifest: dict[str, Any] = {
        "format": SNAPSHOT_FORMAT_NAME,
        "version": SNAPSHOT_FORMAT_VERSION,
        "window": {
            "mode_sizes": list(window_config.mode_sizes),
            "window_length": window_config.window_length,
            "period": window_config.period,
        },
        "mode_names": list(stream.mode_names),
        "n_factors": len(initial_factors.factors),
        "extra": extra,
    }
    return _atomic_write_directory(path, manifest, arrays)


def load_experiment_snapshot(path: str | Path) -> ExperimentSnapshot:
    """Rehydrate a snapshot written by :func:`save_experiment_snapshot`.

    Corruption handling mirrors :func:`load_checkpoint`: a directory that is
    recognisably a snapshot but truncated or damaged raises the narrower
    :class:`CheckpointError` instead of a raw traceback.
    """
    from repro.tensor.kruskal import KruskalTensor

    path = Path(path)
    manifest_path, arrays_path = _check_complete_directory(
        path, "experiment snapshot"
    )
    manifest = _read_manifest(manifest_path, "experiment snapshot")
    if manifest.get("format") != SNAPSHOT_FORMAT_NAME:
        raise ConfigurationError(
            f"{manifest_path} is not a {SNAPSHOT_FORMAT_NAME} manifest "
            f"(format={manifest.get('format')!r})"
        )
    version = manifest.get("version")
    if version != SNAPSHOT_FORMAT_VERSION:
        raise ConfigurationError(
            f"snapshot format version {version!r} is not supported "
            f"(this implementation reads version {SNAPSHOT_FORMAT_VERSION})"
        )
    if not isinstance(manifest.get("window"), dict):
        raise CheckpointError(
            f"snapshot manifest {manifest_path} lacks its 'window' section — "
            "the manifest was truncated or hand-edited"
        )
    arrays = _read_arrays(arrays_path, "experiment snapshot")
    required = [
        "records_indices",
        "records_values",
        "records_times",
        "initial_weights",
    ]
    try:
        n_factors = int(manifest["n_factors"])
    except (KeyError, TypeError, ValueError) as error:
        raise CheckpointError(
            f"snapshot manifest {manifest_path} has an unreadable "
            f"'n_factors' entry: {error}"
        ) from error
    required.extend(f"initial_factor_{mode}" for mode in range(n_factors))
    _require_arrays(arrays, required, path, "experiment snapshot")
    window_manifest = manifest["window"]
    window_config = WindowConfig(
        mode_sizes=tuple(window_manifest["mode_sizes"]),
        window_length=window_manifest["window_length"],
        period=window_manifest["period"],
    )
    records = [
        StreamRecord(indices=tuple(row), value=value, time=time)
        for row, value, time in zip(
            np.asarray(arrays["records_indices"], dtype=np.int64).tolist(),
            arrays["records_values"].tolist(),
            arrays["records_times"].tolist(),
        )
    ]
    stream = MultiAspectStream(
        records,
        mode_sizes=window_config.mode_sizes,
        mode_names=tuple(manifest.get("mode_names") or ()) or None,
    )
    factors = [
        arrays[f"initial_factor_{mode}"]
        for mode in range(int(manifest["n_factors"]))
    ]
    initial = KruskalTensor(factors, arrays["initial_weights"])
    return ExperimentSnapshot(
        stream=stream,
        window_config=window_config,
        initial_factors=initial,
        extra=manifest.get("extra"),
    )
