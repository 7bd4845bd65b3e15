"""Alternating Least Squares for CP decomposition of sparse tensors (Eq. 4).

The implementation follows the textbook sparse-ALS recipe: in every sweep,
for every mode ``n``,

    A(n)  <-  MTTKRP(X, {A}, n)  @  pinv( *_{m != n} A(m)'A(m) )

with optional Tikhonov regularisation for numerical safety, and a fitness
trace for convergence monitoring.

The MTTKRPs come from a gather-once sweep
(:class:`repro.als.mttkrp.MTTKRPSweep`): each factor's rows at the
non-zeros' coordinates are gathered once, right after that factor is
solved, and the product ``values * A(0)[i_0] * ... * A(n-1)[i_{n-1}]`` is
carried from mode to mode instead of being rebuilt for each one.  A fit
allocates its ``(nnz, R)`` arrays once: ``M`` float buffers plus each
mode's int64 scatter bins, ``2 * M * nnz * R * 8`` bytes in all (3.8 MB for
the nyc_taxi window: nnz 3,915, R 20, M 3).  The per-sweep fitness takes
``<X_hat, X>`` from the same gathered rows.  Every float operation is the
one the per-mode recipe — ``mttkrp(tensor, factors, n)`` for each mode,
then ``KruskalTensor.fitness`` — performs, in the same order, so factors,
fitness history, sweep count and convergence flag are bit-identical to it
(``tests/als/test_sweep.py``).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.als.initialization import initialize_factors
from repro.als.mttkrp import MTTKRPSweep
from repro.exceptions import ConfigurationError, RankError
from repro.tensor.kruskal import KruskalTensor
from repro.tensor.products import gram, hadamard_all
from repro.tensor.sparse import SparseTensor
from repro.validation import check_fields


@dataclasses.dataclass(frozen=True, slots=True)
class ALSConfig:
    """Configuration of a batch ALS run.

    Attributes
    ----------
    rank:
        CP rank ``R``.
    n_iterations:
        Maximum number of ALS sweeps.
    tolerance:
        Stop early when the fitness improvement between sweeps drops below
        this value.  ``0`` disables early stopping.
    regularization:
        Tikhonov term added to the Gram-product diagonal before inversion.
    seed:
        Seed of the random generator that draws the initial factors.
    """

    rank: int
    n_iterations: int = 20
    tolerance: float = 1e-6
    regularization: float = 1e-12
    seed: int | None = 0

    def __post_init__(self) -> None:
        check_fields(self)
        if self.rank <= 0:
            raise RankError(f"rank must be positive, got {self.rank}")
        if self.n_iterations <= 0:
            raise ConfigurationError(
                f"n_iterations must be positive, got {self.n_iterations}"
            )
        if self.tolerance < 0:
            raise ConfigurationError(f"tolerance must be >= 0, got {self.tolerance}")
        if self.regularization < 0:
            raise ConfigurationError(
                f"regularization must be >= 0, got {self.regularization}"
            )


@dataclasses.dataclass(slots=True)
class ALSResult:
    """Output of a batch ALS run."""

    decomposition: KruskalTensor
    fitness_history: list[float]
    n_iterations: int
    converged: bool

    @property
    def fitness(self) -> float:
        """Final fitness value."""
        return self.fitness_history[-1] if self.fitness_history else float("nan")


class ALS:
    """Batch CP decomposition of a sparse tensor by alternating least squares."""

    def __init__(self, config: ALSConfig) -> None:
        self._config = config

    @property
    def config(self) -> ALSConfig:
        """The run configuration."""
        return self._config

    def fit(
        self,
        tensor: SparseTensor,
        initial_factors: list[np.ndarray] | None = None,
    ) -> ALSResult:
        """Decompose ``tensor`` and return the factorization plus diagnostics."""
        config = self._config
        rng = np.random.default_rng(config.seed)
        if initial_factors is None:
            factors = initialize_factors(tensor, config.rank, rng)
        else:
            factors = [np.array(f, dtype=np.float64, copy=True) for f in initial_factors]
            self._check_initial(tensor, factors)
        grams = [gram(factor) for factor in factors]
        sweep = MTTKRPSweep(tensor, factors)
        fitness_history: list[float] = []
        converged = False
        iterations_done = 0
        for iteration in range(config.n_iterations):
            for mode in range(tensor.order):
                hadamard_grams = hadamard_all(
                    [g for other_mode, g in enumerate(grams) if other_mode != mode]
                )
                if config.regularization > 0:
                    hadamard_grams = hadamard_grams + config.regularization * np.eye(
                        config.rank
                    )
                factors[mode] = sweep.mttkrp(mode) @ np.linalg.pinv(hadamard_grams)
                grams[mode] = gram(factors[mode])
                sweep.commit(mode, factors[mode])
            decomposition = KruskalTensor(factors)
            fitness_history.append(decomposition.fitness(tensor, inner=sweep.inner()))
            iterations_done = iteration + 1
            if (
                config.tolerance > 0
                and len(fitness_history) >= 2
                and abs(fitness_history[-1] - fitness_history[-2]) < config.tolerance
            ):
                converged = True
                break
        return ALSResult(
            decomposition=KruskalTensor(factors),
            fitness_history=fitness_history,
            n_iterations=iterations_done,
            converged=converged,
        )

    def _check_initial(
        self, tensor: SparseTensor, factors: list[np.ndarray]
    ) -> None:
        if len(factors) != tensor.order:
            raise ConfigurationError(
                f"{len(factors)} initial factors for an order-{tensor.order} tensor"
            )
        for mode, factor in enumerate(factors):
            expected = (tensor.shape[mode], self._config.rank)
            if factor.shape != expected:
                raise ConfigurationError(
                    f"initial factor {mode} has shape {factor.shape}, expected {expected}"
                )


def decompose(
    tensor: SparseTensor,
    rank: int,
    n_iterations: int = 20,
    tolerance: float = 1e-6,
    seed: int | None = 0,
) -> ALSResult:
    """One-call convenience wrapper around :class:`ALS`."""
    config = ALSConfig(
        rank=rank,
        n_iterations=n_iterations,
        tolerance=tolerance,
        seed=seed,
    )
    return ALS(config).fit(tensor)
