"""Experiment settings and the Table III default hyper-parameters.

The synthetic datasets are scaled down from the paper's real data, so the
experiment sizes (number of replayed events, checkpoints, ALS iterations) are
also scaled; the *hyper-parameters of the methods themselves* (R, W, θ, η)
follow Table III via :class:`repro.data.datasets.DatasetSpec`.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from repro.data.datasets import DATASETS, DatasetSpec, get_dataset_spec
from repro.exceptions import ConfigurationError
from repro.validation import check_fields

#: The methods shown in Figs. 4 and 5 of the paper, in plot order.
DEFAULT_CONTINUOUS_METHODS = (
    "sns_rnd_plus",
    "sns_vec_plus",
    "sns_rnd",
    "sns_vec",
    "sns_mat",
)
DEFAULT_PERIODIC_METHODS = (
    "als",
    "online_scp",
    "cp_stream",
    "necpd(1)",
    "necpd(10)",
)


@dataclasses.dataclass(frozen=True, slots=True)
class ExperimentSettings:
    """Sizing knobs of a streaming experiment run.

    Attributes
    ----------
    dataset:
        Name of the synthetic dataset (see :data:`repro.data.datasets.DATASETS`).
    scale:
        Multiplier on the dataset's record count.
    max_events:
        Number of window events replayed after initialisation.
    n_checkpoints:
        Number of fitness samples taken during the replay (sets the
        :attr:`fitness_every` cadence).
    als_iterations:
        ALS sweeps used to initialise every method.
    seed:
        Seed forwarded to data generation and algorithms.
    checkpoint_dir:
        Directory for *real* on-disk checkpoints
        (:mod:`repro.stream.checkpoint`) and the fan-out work dir; each
        continuous method saves its run state under
        ``<checkpoint_dir>/<method>``, and each sweep point under
        ``<checkpoint_dir>/<point>/<method>``
        (:func:`repro.experiments.runner.run_sweep`).  ``None`` (default)
        disables checkpointing.  Periodic baselines carry no checkpointable
        state and are skipped.
    checkpoint_events:
        Save a checkpoint every this many replayed events (in addition to the
        final save when ``checkpoint_dir`` is set).  ``None`` saves only at
        the end of the run.
    resume:
        Resume each method from its checkpoint under ``checkpoint_dir`` when
        one exists, continuing to ``max_events`` total events; requires
        ``checkpoint_dir``.
    relaxed:
        ``False`` (the default) runs the exact algorithms, each updated once
        per event (``ContinuousStreamProcessor.events``), as in the paper.
        ``True`` selects the relaxed batch update (:mod:`repro.core.relaxed`),
        which solves every row a batch touches once, in block Gauss-Seidel
        order; such runs replay through the batched engine
        (``iter_batches`` / ``update_batch``), the only engine it runs on.
        Forwarded to :class:`repro.core.base.SNSConfig`.  Ignored by the
        periodic baselines, which replay per event to each period boundary.
    n_workers:
        Number of worker processes the experiment fan-out may use
        (:mod:`repro.experiments.parallel`).  ``1`` (the default) runs every
        method replay sequentially in-process.  ``> 1`` prepares once and
        replays the independent method/sweep-point tasks on a process pool
        whose workers inherit (or, under spawn, unpickle) the prepared
        experiment; results are identical to sequential, only wall-clock
        timings differ.  A worker that dies fails the run, and ``resume``
        continues it from ``checkpoint_dir`` as it does a sequential run.
    """

    dataset: str = "nyc_taxi"
    scale: float = 0.3
    max_events: int = 3000
    n_checkpoints: int = 20
    als_iterations: int = 10
    seed: int = 0
    relaxed: bool = False
    checkpoint_dir: str | Path | None = None
    checkpoint_events: int | None = None
    resume: bool = False
    n_workers: int = 1

    def __post_init__(self) -> None:
        check_fields(self)
        if self.dataset not in DATASETS:
            raise ConfigurationError(
                f"unknown dataset {self.dataset!r}; available: {sorted(DATASETS)}"
            )
        if self.scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {self.scale}")
        if self.max_events <= 0:
            raise ConfigurationError(
                f"max_events must be positive, got {self.max_events}"
            )
        if self.n_checkpoints <= 0:
            raise ConfigurationError(
                f"n_checkpoints must be positive, got {self.n_checkpoints}"
            )
        if self.als_iterations <= 0:
            raise ConfigurationError(
                f"als_iterations must be positive, got {self.als_iterations}"
            )
        if self.checkpoint_events is not None and self.checkpoint_events <= 0:
            raise ConfigurationError(
                f"checkpoint_events must be positive, got {self.checkpoint_events}"
            )
        if self.checkpoint_events is not None and self.checkpoint_dir is None:
            raise ConfigurationError(
                "checkpoint_events requires checkpoint_dir — without it no "
                "checkpoint would ever be written"
            )
        if self.resume and self.checkpoint_dir is None:
            raise ConfigurationError(
                "resume=True requires checkpoint_dir to locate the checkpoint"
            )
        if self.n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {self.n_workers}"
            )

    @property
    def spec(self) -> DatasetSpec:
        """The dataset spec (Table III defaults for this dataset)."""
        return get_dataset_spec(self.dataset)

    @property
    def fitness_every(self) -> int:
        """Events between two fitness samples during the replay."""
        return max(self.max_events // self.n_checkpoints, 1)


def default_settings(dataset: str = "nyc_taxi", **overrides: object) -> ExperimentSettings:
    """Settings with the repository defaults for ``dataset``."""
    return dataclasses.replace(ExperimentSettings(dataset=dataset), **overrides)  # type: ignore[arg-type]


def table_iii_rows() -> list[tuple[str, int, int, float, int, float]]:
    """Rows of Table III: (dataset, R, W, T, θ, η) for every dataset."""
    rows = []
    for name in sorted(DATASETS):
        spec = DATASETS[name]
        rows.append(
            (name, spec.rank, spec.window_length, spec.period, spec.theta, spec.eta)
        )
    return rows
