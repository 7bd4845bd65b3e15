"""The narrow kernel API of the model hot path.

The model hot path — per-event least-squares math of the SliceNStitch
family — reduces to five array kernels.  A backend is a named bundle of
implementations of exactly these five callables; everything else (window
maintenance, sampling draws, Gram bookkeeping, control flow) stays in
plain numpy/Python.

The five kernels
----------------
``mttkrp_coo(indices, values, factors, mode, mode_size) -> (mode_size, R)``
    Full MTTKRP over prebuilt COO arrays (Eq. 4): for each non-zero,
    the value times the Hadamard product of the other modes' factor rows,
    scattered into the ``mode`` rows.

``mttkrp_rows(indices, values, factors, mode) -> (R,)``
    Row MTTKRP over one slice's arrays (the ``Omega(m)_{i_m}`` sum of
    Eqs. 12 and 21): every entry of ``indices`` shares the same ``mode``-th
    coordinate, so the result is a single length-``R`` vector.  Consumes
    :meth:`SparseTensor.mode_slice_arrays` output directly.

``sampled_residual(samples, observed, factors, mode, prev_row,
override_modes, override_indices, override_rows) -> (R,)``
    The fused sampled-residual term of Eqs. 16 and 23:
    ``(x - x̃) @ (Hadamard of other current rows)`` over the θ sampled
    coordinates, where ``x̃`` is the reconstruction from the
    start-of-event rows.  Start-of-event rows that differ from the live
    factors are passed as the flat override triple (see
    :func:`flatten_mode_overrides`).

``reconstruct_coords(coordinates, factors, override_modes,
override_indices, override_rows) -> (n,)``
    Batched reconstruction gather: the CP model value at each coordinate,
    with optional per-(mode, index) row overrides applied to the factor
    gathers.

``solve_regularized(matrix, rhs, ridge_matrix, scratch) -> like rhs``
    ``rhs @ (matrix + ridge)^-1`` for a symmetric PSD ``matrix`` via one
    Cholesky solve (Eq. 16 / Alg. 5 systems).  ``rhs`` may be one row
    ``(R,)`` or a batch of rows ``(B, R)`` — the batched form solves a
    whole entry group against one shared matrix in a single call.
    ``ridge_matrix`` is the precomputed ``reg * I`` term (or ``None``),
    ``scratch`` an optional ``(R, R)`` buffer the solve may clobber.

Contracts
---------
* The **numpy** backend is the only implementation: operation-for-operation
  identical to the historical inline implementations, so every golden
  and bit-exactness suite stays pinned.  A substitute registered through
  :mod:`repro.kernels.registry` (say, timing wrappers) must return what
  the numpy kernels return.
* ``factors`` arrives as a sequence of ``(N_m, R)`` float64 matrices;
  kernels must not mutate any input.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping, Sequence
from typing import Any, Callable

import numpy as np

#: Kernel names every backend must provide, in API order.
KERNEL_NAMES = (
    "mttkrp_coo",
    "mttkrp_rows",
    "sampled_residual",
    "reconstruct_coords",
    "solve_regularized",
)

_EMPTY_INDICES = np.empty(0, dtype=np.int64)


@dataclasses.dataclass(frozen=True, slots=True)
class KernelBackend:
    """A named bundle of the five hot-path kernels."""

    name: str
    mttkrp_coo: Callable[..., np.ndarray]
    mttkrp_rows: Callable[..., np.ndarray]
    sampled_residual: Callable[..., np.ndarray]
    reconstruct_coords: Callable[..., np.ndarray]
    solve_regularized: Callable[..., np.ndarray]
    #: One-line human description.
    description: str = ""


def empty_overrides(rank: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The no-override triple: empty modes/indices and a ``(0, rank)`` rows array."""
    return _EMPTY_INDICES, _EMPTY_INDICES, np.empty((0, rank), dtype=np.float64)


def flatten_mode_overrides(
    overrides_by_mode: Mapping[int, Sequence[tuple[int, np.ndarray]]],
    skip_mode: int,
    rank: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten per-mode ``(index, row)`` override lists into the kernel triple.

    ``overrides_by_mode`` maps a mode to the rows of that mode already
    updated this event, in commit order; ``skip_mode`` entries are dropped
    (a row update never overrides its own mode's gathers).  Kernels apply
    the overrides in the flattened order, which — because dict iteration
    follows insertion — is exactly the order the historical per-mode scan
    visited them, keeping the numpy path bit-identical.
    """
    total = sum(
        len(rows) for mode, rows in overrides_by_mode.items() if mode != skip_mode
    )
    if total == 0:
        return empty_overrides(rank)
    modes = np.empty(total, dtype=np.int64)
    indices = np.empty(total, dtype=np.int64)
    rows_array = np.empty((total, rank), dtype=np.float64)
    position = 0
    for mode, rows in overrides_by_mode.items():
        if mode == skip_mode:
            continue
        for index, row in rows:
            modes[position] = mode
            indices[position] = index
            rows_array[position, :] = row
            position += 1
    return modes, indices, rows_array


def validate_backend(backend: Any) -> "KernelBackend":
    """Check that ``backend`` is a fully populated :class:`KernelBackend`."""
    if not isinstance(backend, KernelBackend):
        raise TypeError(
            f"kernel backends must be KernelBackend instances, got "
            f"{type(backend).__name__}"
        )
    for name in KERNEL_NAMES:
        if not callable(getattr(backend, name, None)):
            raise TypeError(f"backend {backend.name!r} kernel {name!r} is not callable")
    return backend
