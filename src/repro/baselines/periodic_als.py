"""Batch ALS re-run on the tensor window once per period.

This is the "ALS" baseline of the paper's evaluation and the denominator of
the *relative fitness* metric.  Warm-starting from the previous factors keeps
the per-period cost reasonable while matching the offline algorithm's
accuracy after a few sweeps.
"""

from __future__ import annotations

import numpy as np

from repro.als.mttkrp import MTTKRPSweep
from repro.baselines.base import PeriodicCPD
from repro.tensor.products import hadamard_all


class PeriodicALS(PeriodicCPD):
    """Full ALS sweeps over the window at every period boundary."""

    name = "als"

    def _update_period(self) -> None:
        tensor = self.window.tensor
        # Between two boundaries the window slid by exactly one tensor unit,
        # so rolling the time factor keeps the warm start aligned with the
        # data before re-fitting.
        time_factor = self._factors[self.time_mode]
        time_factor[:-1, :] = time_factor[1:, :]
        grams = [factor.T @ factor for factor in self._factors]
        sweep = MTTKRPSweep(tensor, self._factors)
        for _ in range(self._config.n_iterations):
            for mode in range(self.order):
                hadamard = hadamard_all(
                    [g for other, g in enumerate(grams) if other != mode]
                )
                self._factors[mode] = self._solve(hadamard, sweep.mttkrp(mode))
                grams[mode] = self._factors[mode].T @ self._factors[mode]
                sweep.commit(mode, self._factors[mode])
