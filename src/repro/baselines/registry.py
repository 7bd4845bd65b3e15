"""Registry mapping baseline names to classes (plus paper-style labels)."""

from __future__ import annotations

from repro.baselines.base import BaselineConfig, PeriodicCPD
from repro.baselines.cp_stream import CPStream
from repro.baselines.necpd import NeCPD
from repro.baselines.online_scp import OnlineSCP
from repro.baselines.periodic_als import PeriodicALS
from repro.exceptions import UnknownAlgorithmError

#: Name -> class for every once-per-period baseline.
BASELINES: dict[str, type[PeriodicCPD]] = {
    PeriodicALS.name: PeriodicALS,
    OnlineSCP.name: OnlineSCP,
    CPStream.name: CPStream,
    NeCPD.name: NeCPD,
}

#: Display labels matching the paper's figures.
DISPLAY_NAMES: dict[str, str] = {
    "als": "ALS",
    "online_scp": "OnlineSCP",
    "cp_stream": "CP-stream",
    "necpd": "NeCPD",
}


def available_baselines() -> list[str]:
    """Names of all registered baselines."""
    return sorted(BASELINES)


def create_baseline(name: str, config: BaselineConfig) -> PeriodicCPD:
    """Instantiate a baseline by name.

    ``"necpd(n)"`` style names (e.g. ``"necpd(10)"``) are accepted and set
    the number of SGD passes, matching the paper's ``NeCPD(1)`` /
    ``NeCPD(10)`` notation.
    """
    if name.startswith("necpd(") and name.endswith(")"):
        n_iterations = int(name[len("necpd(") : -1])
        config = BaselineConfig(
            rank=config.rank,
            n_iterations=n_iterations,
            forgetting=config.forgetting,
            learning_rate=config.learning_rate,
            momentum=config.momentum,
            regularization=config.regularization,
            seed=config.seed,
        )
        name = "necpd"
    try:
        baseline_class = BASELINES[name]
    except KeyError:
        raise UnknownAlgorithmError(
            f"unknown baseline {name!r}; available: {available_baselines()}"
        ) from None
    return baseline_class(config)


def display_name(name: str) -> str:
    """Paper-style label for a baseline name (falls back to the raw name)."""
    if name.startswith("necpd(") and name.endswith(")"):
        return f"NeCPD ({name[len('necpd('):-1]})"
    return DISPLAY_NAMES.get(name, name)
