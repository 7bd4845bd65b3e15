"""Experiment harness: one module per table/figure of the paper's evaluation.

Every experiment is a plain function returning a result dataclass plus a
``format_*`` helper that renders the paper-style rows/series as text.  The
benchmarks under ``benchmarks/`` and the CLI (:mod:`repro.cli`) are thin
wrappers around these functions.

Mapping to the paper:

========================  =====================================================
Module                     Paper content
========================  =====================================================
``granularity``            Fig. 1(c,d,e) — continuous vs. conventional CPD
``fitness_over_time``      Fig. 4 — relative fitness over time
``speed_fitness``          Fig. 5 — runtime per update & average relative fitness
``scalability``            Fig. 6 — total runtime vs. number of events
``theta_sweep``            Fig. 7 — effect of the sampling threshold θ
``eta_sweep``              Fig. 8 — effect of the clipping threshold η
``anomaly_experiment``     Fig. 9 — anomaly detection precision and latency
``config``                 Table III — default hyper-parameters
(``repro.data.datasets``)  Table II — dataset summary
========================  =====================================================
"""

from repro.experiments.config import ExperimentSettings, default_settings
from repro.experiments.parallel import (
    ExperimentSnapshot,
    ExperimentTask,
    method_task,
    run_tasks,
)
from repro.experiments.runner import (
    ExperimentResult,
    MethodResult,
    run_experiment,
    run_method,
    run_sweep,
)

__all__ = [
    "ExperimentSettings",
    "default_settings",
    "ExperimentResult",
    "ExperimentSnapshot",
    "ExperimentTask",
    "MethodResult",
    "method_task",
    "run_experiment",
    "run_method",
    "run_sweep",
    "run_tasks",
]
