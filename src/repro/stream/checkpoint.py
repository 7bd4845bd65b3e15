"""Exact checkpoint / restore of streaming runs (versioned npz + JSON manifest).

A checkpoint is a directory holding two files:

* ``manifest.json`` — format name + version, the window configuration, the
  scalar processor state (``start_time``, the event counter, the scheduler's
  sequence counter, the live-ingestion horizon), the model metadata
  (registry name, hyper-parameter config, update counter, numpy
  bit-generator state), and a caller-supplied ``extra`` payload (the
  experiment runner stores its fitness bookkeeping there).
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

Checkpoints are self-contained: restoring does not need the original stream
object (the records still in flight are stored in the checkpoint itself).

One format, read as written
---------------------------
The manifest is read exactly as :func:`save_checkpoint` writes it: every key
it writes is required, and a missing, unknown or mistyped key raises
:class:`~repro.exceptions.CheckpointError` naming the key
(:func:`require_keys`).  A checkpoint of another format version — those
written before version 2 included — raises
:class:`~repro.exceptions.ConfigurationError` naming the version; it is not
migrated.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
from collections.abc import Mapping
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.exceptions import (
    CheckpointError,
    ConfigurationError,
    IndexOutOfBoundsError,
    ShapeError,
)
from repro.stream.events import StreamRecord, WindowEvent
from repro.stream.processor import ContinuousStreamProcessor
from repro.stream.scheduler import EventScheduler, RawEvent
from repro.stream.window import TensorWindow, WindowConfig
from repro.tensor.sparse import SparseTensor
from repro.validation import matches

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.base import ContinuousCPD

#: Format identifier written into every manifest.
FORMAT_NAME = "repro-stream-checkpoint"

#: On-disk format version.  Bump on any incompatible layout change; loading a
#: checkpoint with a different version raises :class:`ConfigurationError`.
FORMAT_VERSION = 2

MANIFEST_FILENAME = "manifest.json"
ARRAYS_FILENAME = "state.npz"

#: The manifest as :func:`save_checkpoint` writes it, one section per table:
#: each key and the type of its value (see :func:`require_keys`).
_MANIFEST_KEYS = {
    "format": str,
    "version": int,
    "window": dict,
    "processor": dict,
    "model": dict | None,
    "extra": object,
}
_WINDOW_KEYS = {
    "mode_sizes": list[int],
    "window_length": int,
    "period": float,
    "n_deltas_applied": int,
    "tensor_version": int,
    "squared_norm": float,
}
_PROCESSOR_KEYS = {
    "start_time": float,
    "n_events_emitted": int,
    "scheduler_sequence": int,
    "ingest_horizon": float,
}
_MODEL_KEYS = {
    "name": str,
    "config": dict,
    "n_updates": int,
    "rng_state": dict,
    "n_factors": int,
    # Aux entry -> None (one array) or the length of its list of arrays.
    "aux_spec": dict,
}


def require_keys(
    payload: Any, keys: Mapping[str, Any], where: str
) -> dict[str, Any]:
    """``payload`` once it holds exactly ``keys``, each with its type.

    ``keys`` maps every key a writer always writes to the type of its JSON
    value: a class (``object`` takes anything), ``list[item]``, or a union
    such as ``float | None``, checked by the rule of :mod:`repro.validation`
    (``float`` takes any JSON number, non-finite ones included, and a bool
    is neither an ``int`` nor a ``float``).  A payload that is not a JSON
    object, or that has a missing, unknown or mistyped key, raises
    :class:`CheckpointError` naming ``where`` and the key — never a
    ``KeyError``, ``TypeError`` or ``ValueError`` — so a reader that
    indexes the keys afterwards cannot crash on a damaged file.
    """
    if not isinstance(payload, dict):
        raise CheckpointError(
            f"{where} is not a JSON object (got {type(payload).__name__})"
        )
    missing = sorted(set(keys) - set(payload))
    if missing:
        raise CheckpointError(f"{where} lacks the required key(s) {missing}")
    unknown = sorted(set(payload) - set(keys))
    if unknown:
        raise CheckpointError(f"{where} has unknown key(s) {unknown}")
    for key, kind in keys.items():
        if not matches(payload[key], kind):
            name = kind.__name__ if isinstance(kind, type) else str(kind)
            raise CheckpointError(
                f"{where} has {key!r} = {payload[key]!r}; expected {name}"
            )
    return payload


@dataclasses.dataclass(slots=True)
class StreamCheckpoint:
    """A loaded checkpoint: the parsed manifest plus the npz arrays."""

    path: Path
    manifest: dict[str, Any]
    arrays: dict[str, np.ndarray]

    @property
    def extra(self) -> Any:
        """The caller-supplied payload stored at save time (or ``None``)."""
        return self.manifest["extra"]


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
    experiment runner stores its fitness series and event count) and check
    its keys themselves when they read it back.

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
            # Live-ingestion watermark (see ContinuousStreamProcessor.extend).
            "ingest_horizon": processor.ingest_horizon,
        },
        "model": None,
        "extra": extra,
    }
    if model is not None:
        manifest["model"] = _pack_model_state(model.state_dict(), arrays)

    return _atomic_write_directory(path, manifest, arrays)


def write_json_atomic(path: Path, payload: dict[str, Any]) -> None:
    """Write JSON via a temp file + rename so readers never see a torn file."""
    temp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    temp.write_text(json.dumps(payload, indent=2, sort_keys=True))
    temp.replace(path)


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
    aux_spec: dict[str, int | None] = {}
    for key, value in state["aux"].items():
        if isinstance(value, (list, tuple)):
            aux_spec[key] = len(value)
            for position, item in enumerate(value):
                arrays[f"model_aux_{key}_{position}"] = np.asarray(
                    item, dtype=np.float64
                )
        else:
            aux_spec[key] = None
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


def _aux_array_keys(
    aux_spec: Mapping[str, int | None]
) -> dict[str, list[str] | str]:
    """Each aux entry's npz key, or the keys of its list of arrays."""
    return {
        key: (
            f"model_aux_{key}"
            if length is None
            else [f"model_aux_{key}_{position}" for position in range(length)]
        )
        for key, length in aux_spec.items()
    }


def load_checkpoint(path: str | Path) -> StreamCheckpoint:
    """Read and validate a checkpoint directory.

    Raises :class:`ConfigurationError` when the directory is not a
    checkpoint at all or the format name / version does not match this
    implementation, and the narrower :class:`CheckpointError` when the
    directory *is* a checkpoint but is truncated or corrupt (one file
    missing, unreadable manifest, a missing, unknown or mistyped manifest
    key, damaged npz, missing arrays) — the routine failure modes of a
    background checkpoint writer killed mid-save.
    """
    path = Path(path)
    manifest_path = path / MANIFEST_FILENAME
    arrays_path = path / ARRAYS_FILENAME
    has_manifest = manifest_path.is_file()
    has_arrays = arrays_path.is_file()
    if not has_manifest and not has_arrays:
        raise ConfigurationError(f"{path} is not a checkpoint directory")
    if not (has_manifest and has_arrays):
        missing = ARRAYS_FILENAME if has_manifest else MANIFEST_FILENAME
        raise CheckpointError(
            f"checkpoint at {path} is incomplete ({missing} is missing) — the "
            "directory was truncated or partially written; delete it or "
            "restore from an intact checkpoint"
        )
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise CheckpointError(
            f"cannot read checkpoint manifest {manifest_path}: {error}"
        ) from error
    if not isinstance(manifest, dict):
        raise CheckpointError(
            f"checkpoint manifest {manifest_path} does not hold a JSON object"
        )
    if manifest.get("format") != FORMAT_NAME:
        raise ConfigurationError(
            f"{manifest_path} is not a {FORMAT_NAME} manifest "
            f"(format={manifest.get('format')!r})"
        )
    version = manifest.get("version")
    if version != FORMAT_VERSION:
        raise ConfigurationError(
            f"checkpoint format version {version!r} at {path} is not supported "
            f"(this implementation reads version {FORMAT_VERSION}); delete the "
            "checkpoint and rerun"
        )
    where = f"checkpoint manifest {manifest_path}"
    require_keys(manifest, _MANIFEST_KEYS, where)
    require_keys(manifest["window"], _WINDOW_KEYS, f"{where}, section 'window'")
    require_keys(
        manifest["processor"], _PROCESSOR_KEYS, f"{where}, section 'processor'"
    )
    required = list(_CHECKPOINT_ARRAY_KEYS)
    model_manifest = manifest["model"]
    if model_manifest is not None:
        require_keys(model_manifest, _MODEL_KEYS, f"{where}, section 'model'")
        aux_spec = model_manifest["aux_spec"]
        require_keys(
            aux_spec,
            dict.fromkeys(aux_spec, int | None),
            f"{where}, model 'aux_spec'",
        )
        for mode in range(model_manifest["n_factors"]):
            required += [f"model_factor_{mode}", f"model_gram_{mode}"]
        for keys in _aux_array_keys(aux_spec).values():
            required += [keys] if isinstance(keys, str) else keys
    try:
        with np.load(arrays_path, allow_pickle=False) as payload:
            arrays = {key: payload[key] for key in payload.files}
    except Exception as error:  # zipfile.BadZipFile, OSError, ValueError, ...
        raise CheckpointError(
            f"cannot read checkpoint arrays {arrays_path}: {error} — the file "
            "is truncated or corrupt"
        ) from error
    missing = [key for key in required if key not in arrays]
    if missing:
        raise CheckpointError(
            f"checkpoint at {path} is missing required arrays {missing} — the "
            "directory was truncated or written by an interrupted save"
        )
    return StreamCheckpoint(path=path, manifest=manifest, arrays=arrays)


def restore_processor(checkpoint: StreamCheckpoint) -> ContinuousStreamProcessor:
    """Rebuild the stream processor saved in ``checkpoint``.

    The window tensor is reconstructed in the saved storage order with its
    mutation counter carried forward, the squared norm is recomputed exactly
    from the entries, and the scheduler heap is adopted verbatim with its
    sequence counter — so continuing the run is exact (see the module
    docstring for the precise guarantee).

    Each array is read as :func:`save_checkpoint` writes it: integer ids,
    indices and steps, float values and times, aligned lengths, window
    coordinates inside the window and unique, record indices inside the mode
    sizes, record ids and steps in range.  Anything else raises
    :class:`CheckpointError` naming the array, so a damaged file never
    restores a window that an event would later leave out of bounds.
    """
    manifest = checkpoint.manifest
    window_manifest = manifest["window"]
    processor_manifest = manifest["processor"]
    config = WindowConfig(
        mode_sizes=window_manifest["mode_sizes"],
        window_length=window_manifest["window_length"],
        period=window_manifest["period"],
    )
    window_indices = _array(checkpoint, "window_indices", "iu", 2)
    window_values = _array(checkpoint, "window_values", "f", 1)
    try:
        tensor = SparseTensor.from_coo(
            config.shape,
            window_indices,
            window_values,
            version=window_manifest["tensor_version"],
        )
    except (ShapeError, IndexOutOfBoundsError) as error:
        raise CheckpointError(
            f"checkpoint at {checkpoint.path} has a damaged window "
            f"('window_indices', 'window_values'): {error}"
        ) from error
    window = TensorWindow.from_tensor(
        config, tensor, n_deltas_applied=window_manifest["n_deltas_applied"]
    )
    records = _restore_records(checkpoint, config.mode_sizes)
    n_heap = len(_array(checkpoint, "heap_times", "f", 1))
    heap_records = _ids(checkpoint, "heap_records", len(records), n_heap)
    steps = _ids(checkpoint, "heap_steps", config.window_length + 1, n_heap, low=1)
    kind_by_step = tuple(
        WindowEvent.kind_for_step(step, config.window_length)
        for step in range(config.window_length + 1)
    )
    heap_entries: list[RawEvent] = [
        (time, sequence, kind_by_step[step], records[record_id], step)
        for time, sequence, record_id, step in zip(
            checkpoint.arrays["heap_times"].tolist(),
            _ids(checkpoint, "heap_sequences", None, n_heap),
            heap_records,
            steps,
        )
    ]
    scheduler = EventScheduler.from_snapshot(
        heap_entries, processor_manifest["scheduler_sequence"]
    )
    future_records = [
        records[record_id]
        for record_id in _ids(checkpoint, "future_records", len(records))
    ]
    return ContinuousStreamProcessor._restore(
        config=config,
        start_time=float(processor_manifest["start_time"]),
        window=window,
        scheduler=scheduler,
        future_records=future_records,
        n_events_emitted=processor_manifest["n_events_emitted"],
        ingest_horizon=float(processor_manifest["ingest_horizon"]),
    )


def _array(
    checkpoint: StreamCheckpoint,
    key: str,
    kinds: str,
    ndim: int,
    length: int | None = None,
) -> np.ndarray:
    """Array ``key`` once it is as written.

    That is ``ndim``-D, of a dtype kind in ``kinds`` (``"iu"`` integers,
    ``"f"`` floats), and ``length`` rows long if ``length`` is given.
    """
    array = checkpoint.arrays[key]
    if (
        array.dtype.kind not in kinds
        or array.ndim != ndim
        or (length is not None and len(array) != length)
    ):
        expected = "integer" if kinds == "iu" else "float"
        rows = "" if length is None else f" of {length} rows"
        raise CheckpointError(
            f"checkpoint at {checkpoint.path} has array {key!r} of dtype "
            f"{array.dtype} and shape {array.shape}; expected a {ndim}-D "
            f"{expected} array{rows}"
        )
    return array


def _ids(
    checkpoint: StreamCheckpoint,
    key: str,
    high: int | None,
    length: int | None = None,
    low: int = 0,
) -> list[int]:
    """The 1-D integer array ``key`` as a list, each entry in ``low..high - 1``."""
    values = _array(checkpoint, key, "iu", 1, length).tolist()
    if high is not None and values and not low <= min(values) <= max(values) < high:
        bad = next(value for value in values if not low <= value < high)
        raise CheckpointError(
            f"checkpoint at {checkpoint.path} has array {key!r} holding {bad}, "
            f"outside {low}..{high - 1}"
        )
    return values


def _restore_records(
    checkpoint: StreamCheckpoint, mode_sizes: tuple[int, ...]
) -> list[StreamRecord]:
    """Materialise the unique-record table (one shared object per row)."""
    indices = _array(checkpoint, "records_indices", "iu", 2)
    n_records = len(indices)
    values = _array(checkpoint, "records_values", "f", 1, n_records)
    times = _array(checkpoint, "records_times", "f", 1, n_records)
    if indices.shape[1] != len(mode_sizes) or (
        n_records and ((indices < 0) | (indices >= np.asarray(mode_sizes))).any()
    ):
        raise CheckpointError(
            f"checkpoint at {checkpoint.path} has array 'records_indices' of "
            f"shape {indices.shape} with entries outside the mode sizes {mode_sizes}"
        )
    return [
        StreamRecord(indices=tuple(row), value=value, time=time)
        for row, value, time in zip(indices.tolist(), values.tolist(), times.tolist())
    ]


def restore_model(
    checkpoint: StreamCheckpoint, window: TensorWindow
) -> "ContinuousCPD | None":
    """Rebuild the model saved in ``checkpoint`` against a restored ``window``.

    Returns ``None`` when the checkpoint carries no model state.  The model
    class is resolved through the algorithm registry by its saved name and
    reconstructed with its saved hyper-parameters (through
    :meth:`SNSConfig.from_dict`), then ``load_state``
    restores factors, Grams, counters, aux buffers, and the RNG stream.  An
    unregistered name, or a factor or Gram array whose shape does not fit
    ``window`` and the saved rank, raises :class:`CheckpointError` naming
    it.
    """
    model_manifest = checkpoint.manifest["model"]
    if model_manifest is None:
        return None
    # Local imports: repro.core imports repro.stream at module load time.
    from repro.core.base import SNSConfig
    from repro.core.registry import ALGORITHMS, create_algorithm

    where = f"checkpoint at {checkpoint.path}"
    name = model_manifest["name"]
    if name not in ALGORITHMS:
        raise CheckpointError(f"{where} holds a model of unknown algorithm {name!r}")
    arrays = checkpoint.arrays
    config = SNSConfig.from_dict(model_manifest["config"])
    n_factors = model_manifest["n_factors"]
    if n_factors != window.order:
        raise CheckpointError(
            f"{where} holds {n_factors} factor matrices for an "
            f"order-{window.order} window"
        )
    rank = config.rank
    for mode, size in enumerate(window.shape):
        for key, expected in (
            (f"model_factor_{mode}", (size, rank)),
            (f"model_gram_{mode}", (rank, rank)),
        ):
            if arrays[key].shape != expected:
                raise CheckpointError(
                    f"{where} has array {key!r} of shape {arrays[key].shape}, "
                    f"expected {expected}"
                )
    model = create_algorithm(name, config)
    aux = {
        key: arrays[keys] if isinstance(keys, str) else [arrays[k] for k in keys]
        for key, keys in _aux_array_keys(model_manifest["aux_spec"]).items()
    }
    state = {
        "name": name,
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
