"""Relaxed batch update: solve every row of a batch against one snapshot.

The exact ``update_batch`` path replays a batch event by event, and every
row update sees the Gram matrices the previous one left behind.  With
``SNSConfig.staleness`` set, a model hands whole batches to
:class:`RelaxedBatchUpdate` instead, which trades that per-event
refreshing for one solve per touched row per batch:

1. the whole batch is applied to the window up front, so row updates see
   the batch-final window;
2. every ``staleness + 1`` batches the *snapshot* is refreshed: the factors
   are copied, and the live Grams (and the randomized variants'
   prev-Grams) are recomputed exactly from them, so rank-one float drift
   cannot outlive one refresh interval;
3. every categorical row the batch touches is solved against the snapshot
   (Jacobi order): the MTTKRP over the row's slice, or — on the sampled
   variants, for rows whose slice holds more than ``θ`` entries — the
   snapshot row times its Hadamard-of-Grams plus the sampled residual of
   the window against the snapshot (the Eq. 16 / Eq. 23 structure with the
   snapshot as ``A_prev``); then one clipped coordinate-descent sweep per
   row, or one regularized solve per mode;
4. the rows are committed in first-touch order with rank-one Gram updates;
5. every time row the batch touches gets one update, in ascending unit
   order, from the batch's entry changes weighted by the snapshot rows.

``staleness=s`` lets the snapshot be up to ``s`` batches old.  A batch's
samples come from ``np.random.default_rng((seed, batch_counter, 0))``, a
generator that depends only on counters, so a run restored mid-interval
draws what the uninterrupted run draws.  The batch counter and the snapshot
travel in the model's checkpoint ``aux`` under the keys
``shard_batch_counter``, ``shard_snapshot_factors`` and
``shard_snapshot_grams``; those names are part of the checkpoint format.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.rowmath import clipped_coordinate_descent
from repro.core.sampling import SliceSampler
from repro.kernels.api import empty_overrides
from repro.stream.deltas import DeltaBatch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.base import ContinuousCPD


class RelaxedBatchUpdate:
    """``update_batch`` for one model with ``config.staleness`` set.

    Attached by :meth:`repro.core.base.ContinuousCPD._attach_relaxed`; holds
    the batch counter and the snapshot every row solve reads.
    """

    def __init__(self, model: "ContinuousCPD") -> None:
        config = model.config
        self._model = model
        self._staleness = int(config.staleness)
        self._seed = int(config.seed or 0)
        self._sampler = (
            SliceSampler(model.window.shape) if model.relaxed_sampled else None
        )
        self._lower = 0.0 if config.nonnegative else -float(config.eta)
        self._batch_counter = 0
        self._factors: list[np.ndarray] | None = None
        self._grams: list[np.ndarray] = []
        self._hadamards: list[np.ndarray] = []

    @property
    def batch_counter(self) -> int:
        """Number of batches updated so far (lifetime, across restores)."""
        return self._batch_counter

    def update_batch(self, batch: DeltaBatch) -> None:
        """Apply ``batch`` to the window and update the factors once for it."""
        model = self._model
        model.window.apply_batch(batch)
        if self._factors is None or self._batch_counter % (self._staleness + 1) == 0:
            self._refresh_snapshot()
        rows: dict[tuple[int, int], None] = {}
        coords: list[tuple[int, ...]] = []
        values: list[float] = []
        for record, _step, entries in batch.entry_groups():
            for mode, index in enumerate(record.indices):
                rows.setdefault((mode, int(index)), None)
            for coordinate, value in entries:
                coords.append(coordinate)
                values.append(value)
        factors = model._factors
        for (mode, index), new_row in zip(rows, self._solve_rows(list(rows))):
            old_row = factors[mode][index, :].copy()
            factors[mode][index, :] = new_row
            model._update_gram(mode, old_row, new_row)
        self._update_time_rows(coords, values)
        model._n_updates += batch.n_events
        self._batch_counter += 1

    def _refresh_snapshot(self) -> None:
        """Copy the factors and re-pin every Gram to them exactly."""
        model = self._model
        factors = [factor.copy() for factor in model._factors]
        grams = [factor.T @ factor for factor in factors]
        for live, exact in zip(model._grams, grams):
            np.copyto(live, exact)
        prev_grams = getattr(model, "_prev_grams", None)
        if prev_grams is not None:
            for buffer, gram in zip(prev_grams, grams):
                np.copyto(buffer, gram)
        self._set_snapshot(factors, grams)

    def _set_snapshot(self, factors: list[np.ndarray], grams: list[np.ndarray]) -> None:
        self._factors = factors
        self._grams = grams
        self._hadamards = [
            self._model._hadamard_of_grams(mode, grams) for mode in range(len(grams))
        ]

    def _numerator(
        self, mode: int, index: int, rng: np.random.Generator | None
    ) -> np.ndarray:
        """Data term of one row's update against the snapshot.

        The window already holds the whole batch, so a sample landing on one
        of its entries contributes that entry's residual like any other.
        """
        model = self._model
        factors = self._factors
        tensor = model.window.tensor
        theta = model.config.theta
        slice_indices, slice_values = tensor.mode_slice_arrays(mode, index)
        if self._sampler is None or slice_values.shape[0] <= theta:
            return model._kernels.mttkrp_rows(
                slice_indices, slice_values, factors, mode
            )
        samples = self._sampler.sample(mode, index, theta, rng)
        snap_row = factors[mode][index, :]
        if samples.shape[0]:
            residual = model._kernels.sampled_residual(
                samples,
                tensor._get_batch_trusted(samples),
                factors,
                mode,
                snap_row,
                *empty_overrides(model.rank),
            )
        else:
            residual = np.zeros(model.rank, dtype=np.float64)
        return snap_row @ self._hadamards[mode] + residual

    def _solve_rows(self, rows: list[tuple[int, int]]) -> list[np.ndarray]:
        """New values of ``rows`` (in order), each solved against the snapshot."""
        model = self._model
        config = model.config
        rng = (
            None
            if self._sampler is None
            else np.random.default_rng((self._seed, self._batch_counter, 0))
        )
        numerators = [self._numerator(mode, index, rng) for mode, index in rows]
        if model.relaxed_clipped:
            return [
                clipped_coordinate_descent(
                    self._factors[mode][index, :],
                    numerator,
                    self._hadamards[mode],
                    config.eta,
                    self._lower,
                    config.regularization,
                )
                for (mode, index), numerator in zip(rows, numerators)
            ]
        # Least-squares variants: one regularized solve per mode over all
        # of the batch's rows of that mode.
        scratch = np.empty((model.rank, model.rank))
        positions: dict[int, list[int]] = {}
        for position, (mode, _index) in enumerate(rows):
            positions.setdefault(mode, []).append(position)
        solved: list[Any] = [None] * len(rows)
        for mode, members in positions.items():
            rhs = np.array([numerators[position] for position in members])
            new_rows = model._kernels.solve_regularized(
                self._hadamards[mode], rhs, model._ridge, scratch
            )
            for position, new_row in zip(members, new_rows):
                solved[position] = np.asarray(new_row, dtype=np.float64)
        return solved

    def _update_time_rows(
        self, coords: list[tuple[int, ...]], values: list[float]
    ) -> None:
        """One update per touched time row, ascending: Eq. 22 or the Eq. 9 rule."""
        if not coords:
            return
        model = self._model
        config = model.config
        time_mode = model.time_mode
        hadamard = self._hadamards[time_mode]
        coord_array = np.asarray(coords, dtype=np.int64)
        products = np.ones((coord_array.shape[0], model.rank), dtype=np.float64)
        for mode in range(time_mode):
            products *= self._factors[mode][coord_array[:, mode], :]
        weighted = products * np.asarray(values, dtype=np.float64)[:, None]
        units = coord_array[:, time_mode]
        inverse = None if model.relaxed_clipped else model._pinv(hadamard)
        factor = model._factors[time_mode]
        for unit in np.unique(units):
            contribution = weighted[units == unit].sum(axis=0)
            old_row = factor[unit, :].copy()
            if inverse is None:
                new_row = clipped_coordinate_descent(
                    old_row,
                    old_row @ hadamard + contribution,
                    hadamard,
                    config.eta,
                    self._lower,
                    config.regularization,
                )
            else:
                new_row = old_row + contribution @ inverse
            factor[unit, :] = new_row
            model._update_gram(time_mode, old_row, new_row)

    # ------------------------------------------------------------------
    # Checkpoint aux protocol (rides in the model's state_dict aux)
    # ------------------------------------------------------------------
    def aux_state(self) -> dict[str, Any]:
        """The batch counter and snapshot as checkpoint aux entries."""
        aux: dict[str, Any] = {
            "shard_batch_counter": np.array([self._batch_counter], dtype=np.float64)
        }
        if self._factors is not None:
            aux["shard_snapshot_factors"] = [factor.copy() for factor in self._factors]
            aux["shard_snapshot_grams"] = [gram.copy() for gram in self._grams]
        return aux

    def load_aux_state(self, aux: Any) -> None:
        """Restore what :meth:`aux_state` saved (missing keys: fresh start).

        With the counter and the snapshot back, a run restored mid-interval
        refreshes on the same schedule, draws the same samples and reads the
        same snapshot as the uninterrupted run.
        """
        counter = aux.get("shard_batch_counter")
        if counter is not None:
            self._batch_counter = int(np.asarray(counter).reshape(-1)[0])
        factors = aux.get("shard_snapshot_factors")
        grams = aux.get("shard_snapshot_grams")
        if factors is not None and grams is not None:
            self._set_snapshot(
                [np.array(factor, dtype=np.float64, copy=True) for factor in factors],
                [np.array(gram, dtype=np.float64, copy=True) for gram in grams],
            )
