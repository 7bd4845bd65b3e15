"""Synthetic multi-aspect data streams with a genuine low-rank structure.

The generator follows the intuition behind the paper's datasets (taxi trips,
bike rides, crime incidents): events are produced by a small number of latent
"activity patterns".  Each pattern ``r`` has

* a categorical distribution over every categorical mode (where the events of
  that pattern happen), drawn from a Dirichlet distribution, and
* a smoothly varying temporal intensity (a positive sinusoid with a
  pattern-specific phase, mimicking daily periodicity).

A record is generated by sampling a pattern proportional to the intensities
at its timestamp and then sampling one index per categorical mode from that
pattern's distributions.  Aggregated over a tensor unit this yields a tensor
that is approximately low rank — the regime in which CP decomposition (and
therefore the paper's fitness comparisons) is meaningful — while the non-zero
positions remain sparse and bursty like the real streams.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from repro.data.datasets import DatasetSpec, get_dataset_spec
from repro.exceptions import DataGenerationError
from repro.stream.events import StreamRecord
from repro.stream.stream import MultiAspectStream
from repro.validation import check_fields


@dataclasses.dataclass(frozen=True, slots=True)
class SyntheticStreamConfig:
    """Configuration of the synthetic stream generator.

    Attributes
    ----------
    mode_sizes:
        Sizes of the categorical modes.
    rank:
        Number of latent activity patterns (the ground-truth CP rank).
    n_records:
        Number of stream records to generate.
    period:
        Reference period ``T``; together with ``records_per_period`` it sets
        the time span of the stream.
    records_per_period:
        Average number of records falling inside one period.
    value_choices:
        Values a record can carry (sampled uniformly); the paper's traffic and
        crime streams carry counts, so small positive integers are the default.
    concentration:
        Dirichlet concentration of the per-pattern categorical distributions;
        smaller values concentrate each pattern on fewer indices (sparser data).
    background_rate:
        Fraction of records drawn uniformly at random instead of from a
        pattern, adding the noise floor real data has.
    seed:
        Seed of the generator.
    """

    mode_sizes: tuple[int, ...]
    rank: int = 5
    n_records: int = 10_000
    period: float = 360.0
    records_per_period: float = 400.0
    value_choices: tuple[float, ...] = (1.0, 1.0, 1.0, 2.0, 3.0)
    concentration: float = 0.08
    background_rate: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self)
        if any(n <= 0 for n in self.mode_sizes) or not self.mode_sizes:
            raise DataGenerationError(
                f"mode_sizes must be positive and non-empty, got {self.mode_sizes}"
            )
        if self.rank <= 0:
            raise DataGenerationError(f"rank must be positive, got {self.rank}")
        if self.n_records <= 0:
            raise DataGenerationError(
                f"n_records must be positive, got {self.n_records}"
            )
        if self.period <= 0 or self.records_per_period <= 0:
            raise DataGenerationError(
                "period and records_per_period must be positive"
            )
        if not 0.0 <= self.background_rate <= 1.0:
            raise DataGenerationError(
                f"background_rate must lie in [0, 1], got {self.background_rate}"
            )

    @property
    def time_span(self) -> float:
        """Total time covered by the generated stream."""
        return self.period * self.n_records / self.records_per_period


def generate_synthetic_stream(
    mode_sizes: Sequence[int],
    rank: int = 5,
    n_records: int = 10_000,
    period: float = 360.0,
    records_per_period: float = 400.0,
    seed: int = 0,
    mode_names: Sequence[str] | None = None,
    **kwargs: float,
) -> MultiAspectStream:
    """Generate a synthetic stream (convenience wrapper around the config)."""
    config = SyntheticStreamConfig(
        mode_sizes=tuple(mode_sizes),
        rank=rank,
        n_records=n_records,
        period=period,
        records_per_period=records_per_period,
        seed=seed,
        **kwargs,
    )
    return generate_stream(config, mode_names=mode_names)


def generate_stream(
    config: SyntheticStreamConfig, mode_names: Sequence[str] | None = None
) -> MultiAspectStream:
    """Generate a stream according to ``config``."""
    rng = np.random.default_rng(config.seed)
    pattern_distributions = _pattern_distributions(config, rng)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=config.rank)
    base_weights = rng.uniform(0.5, 1.5, size=config.rank)

    times = np.sort(rng.uniform(0.0, config.time_span, size=config.n_records))
    times = np.floor(times)  # integer "ticks", like Unix timestamps
    records: list[StreamRecord] = []
    for time in times:
        if rng.random() < config.background_rate:
            indices = tuple(
                int(rng.integers(0, size)) for size in config.mode_sizes
            )
        else:
            pattern = _sample_pattern(
                time, config, phases, base_weights, rng
            )
            indices = tuple(
                int(rng.choice(size, p=pattern_distributions[mode][pattern]))
                for mode, size in enumerate(config.mode_sizes)
            )
        value = float(rng.choice(config.value_choices))
        records.append(StreamRecord(indices=indices, value=value, time=float(time)))
    return MultiAspectStream(
        records,
        mode_sizes=config.mode_sizes,
        mode_names=mode_names,
        sort=True,
    )


def generate_dataset(
    name: str, scale: float = 1.0, seed: int | None = None
) -> tuple[MultiAspectStream, DatasetSpec]:
    """Generate the synthetic equivalent of one paper dataset.

    Parameters
    ----------
    name:
        One of ``"divvy_bikes"``, ``"chicago_crime"``, ``"nyc_taxi"``,
        ``"ride_austin"``.
    scale:
        Multiplier on the number of records (benchmarks use < 1 to keep the
        pure-Python runs short; scalability experiments use > 1).
    seed:
        Override the spec's seed.
    """
    spec = get_dataset_spec(name)
    if scale <= 0:
        raise DataGenerationError(f"scale must be positive, got {scale}")
    # Scale the record count and the arrival rate together so the time span
    # of the stream (and therefore the number of periods it covers) does not
    # shrink with the scale -- small scales thin the stream out, they do not
    # cut it short.
    config = SyntheticStreamConfig(
        mode_sizes=spec.mode_sizes,
        rank=spec.rank_truth,
        n_records=max(int(round(spec.n_records * scale)), 10),
        period=spec.period,
        records_per_period=max(spec.records_per_period * scale, 1.0),
        seed=spec.seed if seed is None else seed,
    )
    stream = generate_stream(config, mode_names=spec.mode_names)
    return stream, spec


# ----------------------------------------------------------------------
# Internal helpers
# ----------------------------------------------------------------------
def _pattern_distributions(
    config: SyntheticStreamConfig, rng: np.random.Generator
) -> list[np.ndarray]:
    """Per-mode ``(rank, N_mode)`` arrays of categorical distributions."""
    distributions = []
    for size in config.mode_sizes:
        alpha = np.full(size, config.concentration)
        distributions.append(rng.dirichlet(alpha, size=config.rank))
    return distributions


def _sample_pattern(
    time: float,
    config: SyntheticStreamConfig,
    phases: np.ndarray,
    base_weights: np.ndarray,
    rng: np.random.Generator,
) -> int:
    """Sample a latent pattern index with time-varying intensities."""
    # One "day" is eight periods; intensities oscillate smoothly over it.
    angular = 2.0 * np.pi * time / (8.0 * config.period)
    intensities = base_weights * (1.0 + 0.8 * np.sin(angular + phases)) + 0.05
    probabilities = intensities / intensities.sum()
    return int(rng.choice(config.rank, p=probabilities))
