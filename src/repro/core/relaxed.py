"""Relaxed batch update: one solve per touched row per batch, Gauss-Seidel order.

The exact ``update_batch`` path replays a batch event by event.  With
``SNSConfig.relaxed`` set, a model hands whole batches to :func:`update_batch`
instead, which solves every row the batch touches once:

1. the whole batch is applied to the window up front, so row updates see
   the batch-final window;
2. every time row the batch touches is updated once, in ascending unit
   order, from the batch's entry changes weighted by the categorical rows,
   which have not changed yet (the Eq. 9 rule, or Eq. 22 on the clipped
   variants), against the live Grams;
3. then, one categorical mode at a time, that mode's touched rows are
   solved against the live factors and Grams with the exact row MTTKRP —
   one stacked regularized solve on the least-squares variants, one
   clipped coordinate-descent sweep per row on the clipped ones — and
   committed, with rank-one Gram updates, before the next mode.

This is block Gauss-Seidel, the order of the paper's per-event rules.  Rows
of one mode never read each other (a row's MTTKRP and Hadamard-of-Grams
exclude its own mode), so solving them together loses nothing.  Nothing
outlives a batch: a checkpoint at a batch boundary needs only the model's
factors and Grams.  The five variants collapse onto two row rules, least
squares (SNS_MAT, SNS_VEC, SNS_RND) and clipped descent (SNS+_VEC, SNS+_RND);
θ is unused, and SNS_MAT absorbs its ``λ`` into the first factor once, at
``initialize``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.rowmath import clipped_coordinate_descent
from repro.stream.deltas import DeltaBatch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.base import ContinuousCPD


def update_batch(model: "ContinuousCPD", batch: DeltaBatch) -> None:
    """Apply ``batch`` to ``model``'s window and update each touched row once."""
    model.window.apply_batch(batch)
    if not batch.nnz:
        return
    coords = np.asarray(batch.coordinates, dtype=np.int64)
    _update_time_rows(model, coords, batch.raw_values)
    for mode in range(model.time_mode):
        # Touched rows in first-touch order: an event's entries all carry
        # its record's categorical indices.
        _update_mode(model, mode, list(dict.fromkeys(coords[:, mode].tolist())))
    model._n_updates += batch.n_events


def _update_time_rows(
    model: "ContinuousCPD", coords: np.ndarray, values: list[float]
) -> None:
    """One update per touched time row, ascending: the Eq. 9 or Eq. 22 rule."""
    time_mode = model.time_mode
    hadamard = model._hadamard_of_grams(time_mode)
    products = np.ones((coords.shape[0], model.rank), dtype=np.float64)
    for mode in range(time_mode):
        products *= model._factors[mode][coords[:, mode], :]
    products *= np.asarray(values, dtype=np.float64)[:, None]
    units = coords[:, time_mode]
    inverse = None if model.relaxed_clipped else model._pinv(hadamard)
    factor = model._factors[time_mode]
    for unit in np.unique(units):
        contribution = products[units == unit].sum(axis=0)
        old_row = factor[unit, :].copy()
        if inverse is None:
            numerator = old_row @ hadamard + contribution
            new_row = _clipped(model, old_row, numerator, hadamard)
        else:
            new_row = old_row + contribution @ inverse
        factor[unit, :] = new_row
        model._update_gram(time_mode, old_row, new_row)


def _update_mode(model: "ContinuousCPD", mode: int, indices: list[int]) -> None:
    """Solve one categorical mode's touched rows on live state, then commit them."""
    factors = model._factors
    tensor = model.window.tensor
    hadamard = model._hadamard_of_grams(mode)
    numerators = np.array(
        [
            model._kernels.mttkrp_rows(
                *tensor.mode_slice_arrays(mode, index), factors, mode
            )
            for index in indices
        ]
    )
    old_rows = factors[mode][indices, :]
    if model.relaxed_clipped:
        new_rows = [
            _clipped(model, old_row, numerator, hadamard)
            for old_row, numerator in zip(old_rows, numerators)
        ]
    else:
        new_rows = model._kernels.solve_regularized(
            hadamard, numerators, model._ridge, np.empty_like(hadamard)
        )
    for index, old_row, new_row in zip(indices, old_rows, new_rows):
        factors[mode][index, :] = new_row
        model._update_gram(mode, old_row, new_row)


def _clipped(
    model: "ContinuousCPD",
    old_row: np.ndarray,
    numerator: np.ndarray,
    hadamard: np.ndarray,
) -> np.ndarray:
    """One clipped coordinate-descent sweep (Algorithm 5) with the model's η."""
    config = model.config
    lower = 0.0 if config.nonnegative else -config.eta
    return clipped_coordinate_descent(
        old_row, numerator, hadamard, config.eta, lower, config.regularization
    )
