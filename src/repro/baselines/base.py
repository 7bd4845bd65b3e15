"""Shared interface of the once-per-period baseline methods.

A :class:`PeriodicCPD` mirrors :class:`repro.core.base.ContinuousCPD` but its
``update_period(window)`` hook is invoked by the experiment runner only when a
period boundary is crossed, with the window already advanced to the boundary.
Between boundaries its factor matrices are frozen — exactly the behaviour the
paper contrasts SliceNStitch against (Fig. 4 shows baselines as dots once per
period while SliceNStitch is a continuous line).
"""

from __future__ import annotations

import abc
import dataclasses
from collections.abc import Sequence

import numpy as np

from repro.exceptions import ConfigurationError, NotFittedError, RankError, ShapeError
from repro.stream.window import TensorWindow
from repro.tensor.kruskal import KruskalTensor
from repro.tensor.sparse import SparseTensor
from repro.validation import check_fields


@dataclasses.dataclass(frozen=True, slots=True)
class BaselineConfig:
    """Hyper-parameters shared by the baseline methods.

    Attributes
    ----------
    rank:
        CP rank ``R``.
    n_iterations:
        Inner iterations per period (ALS sweeps for :class:`PeriodicALS`,
        SGD passes for :class:`NeCPD`; ignored by the closed-form updates of
        OnlineSCP / CP-stream).
    forgetting:
        Forgetting factor of CP-stream (weight of historical information).
    learning_rate:
        SGD step size of NeCPD.
    momentum:
        Nesterov momentum coefficient of NeCPD.
    regularization:
        Ridge added before inverting ``R x R`` systems.
    seed:
        Seed of the random generator (SGD shuffling).
    """

    rank: int
    n_iterations: int = 1
    forgetting: float = 0.98
    learning_rate: float = 1e-4
    momentum: float = 0.5
    regularization: float = 1e-9
    seed: int | None = 0

    def __post_init__(self) -> None:
        check_fields(self)
        if self.rank <= 0:
            raise RankError(f"rank must be positive, got {self.rank}")
        if self.n_iterations <= 0:
            raise ConfigurationError(
                f"n_iterations must be positive, got {self.n_iterations}"
            )
        if not 0.0 < self.forgetting <= 1.0:
            raise ConfigurationError(
                f"forgetting must lie in (0, 1], got {self.forgetting}"
            )
        if self.learning_rate <= 0:
            raise ConfigurationError(
                f"learning_rate must be positive, got {self.learning_rate}"
            )
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigurationError(
                f"momentum must lie in [0, 1), got {self.momentum}"
            )
        if self.regularization < 0:
            raise ConfigurationError(
                f"regularization must be >= 0, got {self.regularization}"
            )


class PeriodicCPD(abc.ABC):
    """Base class of the once-per-period conventional-CPD baselines."""

    #: Registry name, set by subclasses.
    name: str = "periodic_cpd"

    def __init__(self, config: BaselineConfig) -> None:
        self._config = config
        self._window: TensorWindow | None = None
        self._factors: list[np.ndarray] = []
        self._rng = np.random.default_rng(config.seed)
        self._n_period_updates = 0

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def config(self) -> BaselineConfig:
        """Hyper-parameters of this instance."""
        return self._config

    @property
    def rank(self) -> int:
        """CP rank ``R``."""
        return self._config.rank

    @property
    def window(self) -> TensorWindow:
        """The tensor window this baseline tracks."""
        self._require_initialized()
        return self._window  # type: ignore[return-value]

    @property
    def factors(self) -> list[np.ndarray]:
        """The live factor matrices."""
        self._require_initialized()
        return self._factors

    @property
    def n_period_updates(self) -> int:
        """Number of period updates performed so far."""
        return self._n_period_updates

    @property
    def order(self) -> int:
        """Tensor order ``M``."""
        return self.window.order

    @property
    def time_mode(self) -> int:
        """Index of the time mode (the last mode)."""
        return self.window.order - 1

    @property
    def decomposition(self) -> KruskalTensor:
        """Current factorization as a :class:`KruskalTensor`."""
        self._require_initialized()
        return KruskalTensor([factor.copy() for factor in self._factors])

    @property
    def n_parameters(self) -> int:
        """Number of model parameters (factor-matrix entries)."""
        self._require_initialized()
        return int(sum(factor.size for factor in self._factors))

    def _require_initialized(self) -> None:
        if self._window is None:
            raise NotFittedError(
                f"{type(self).__name__} must be initialized before use"
            )

    # ------------------------------------------------------------------
    # Life cycle
    # ------------------------------------------------------------------
    def initialize(
        self,
        window: TensorWindow,
        factors: Sequence[np.ndarray] | KruskalTensor,
    ) -> None:
        """Adopt the current window and starting factor matrices."""
        if isinstance(factors, KruskalTensor):
            factors = factors.absorb_weights().factors
        factors = [np.array(f, dtype=np.float64, copy=True) for f in factors]
        if len(factors) != window.order:
            raise ShapeError(
                f"{len(factors)} factor matrices for an order-{window.order} window"
            )
        for mode, factor in enumerate(factors):
            expected = (window.shape[mode], self._config.rank)
            if factor.shape != expected:
                raise ShapeError(
                    f"factor {mode} has shape {factor.shape}, expected {expected}"
                )
        self._window = window
        self._factors = factors
        self._n_period_updates = 0
        self._post_initialize()

    def _post_initialize(self) -> None:
        """Hook for subclasses that maintain auxiliary state."""

    def update_period(self) -> None:
        """React to a period boundary: the window has advanced by ``T``."""
        self._require_initialized()
        self._update_period()
        self._n_period_updates += 1

    @abc.abstractmethod
    def _update_period(self) -> None:
        """Algorithm-specific once-per-period update."""

    # ------------------------------------------------------------------
    # Evaluation helpers
    # ------------------------------------------------------------------
    def fitness(self, tensor: SparseTensor | None = None) -> float:
        """Fitness of the current factorization against ``tensor`` (default: the window)."""
        target = self.window.tensor if tensor is None else tensor
        return self.decomposition.fitness(target)

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _solve(self, gram_product: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve ``x @ gram_product = rhs`` rows with a ridge, i.e. ``rhs @ pinv``."""
        ridge = self._config.regularization * np.eye(gram_product.shape[0])
        try:
            return np.linalg.solve((gram_product + ridge).T, rhs.T).T
        except np.linalg.LinAlgError:
            return rhs @ np.linalg.pinv(gram_product + ridge)
