"""Fig. 5 — runtime per update (a) and average relative fitness (b).

Expected shape (matching the paper): every SliceNStitch variant updates far
faster than the per-period baselines update (which redo work proportional to
the window), SNS_MAT is the slowest and most accurate SliceNStitch variant,
and the stable variants reach 72-100% of the ALS fitness.
"""

from __future__ import annotations

import numpy as np

from benchmarks._reporting import emit
from benchmarks.conftest import scaled_events
from repro.experiments.config import ExperimentSettings
from repro.experiments.reporting import format_table
from repro.experiments.speed_fitness import format_speed_fitness, run_speed_fitness

DATASETS = ("divvy_bikes", "chicago_crime", "nyc_taxi", "ride_austin")


def test_fig5_speed_and_fitness(benchmark):
    """Regenerate Fig. 5 across all four synthetic datasets."""
    settings = ExperimentSettings(
        scale=0.12,
        max_events=scaled_events(2200),
        n_checkpoints=8,
        als_iterations=8,
    )
    result = benchmark.pedantic(
        run_speed_fitness,
        kwargs={"settings": settings, "datasets": DATASETS},
        rounds=1,
        iterations=1,
    )
    speedups = [
        (
            dataset,
            result.speedup_over_fastest_baseline(dataset, "sns_rnd_plus"),
            result.speedup_over_fastest_baseline(dataset, "sns_mat"),
        )
        for dataset in DATASETS
    ]
    report = format_speed_fitness(result) + "\n\n" + format_table(
        ("dataset", "SNS+_RND speedup vs fastest baseline", "SNS_MAT speedup"),
        speedups,
        title="Per-update speedups (paper reports up to 464x / 3.71x on real data)",
    )
    emit("fig5_speed_fitness", report)

    for dataset in DATASETS:
        experiment = result.experiments[dataset]
        # Shape check 1: stable SliceNStitch variants keep decent fitness.
        assert experiment.average_relative_fitness("sns_rnd_plus") > 0.5
        # Shape check 2: per-event updates are cheaper than per-period re-fits.
        baseline_time = experiment.methods["als"].mean_update_microseconds
        if baseline_time > 0 and np.isfinite(baseline_time):
            assert experiment.methods["sns_vec_plus"].mean_update_microseconds < baseline_time
    # Shape check 3: on the largest window (NY-Taxi-like), SNS_MAT — which
    # sweeps the whole window per event — is the slowest SliceNStitch variant.
    # (On the smallest windows its sweep can cost about the same as a sampled
    # update, so the ordering is only asserted where the window is big enough.)
    taxi = result.experiments["nyc_taxi"]
    sns_times = {
        name: taxi.methods[name].mean_update_microseconds
        for name in ("sns_mat", "sns_vec_plus", "sns_rnd_plus")
    }
    assert sns_times["sns_mat"] >= max(
        sns_times["sns_vec_plus"], sns_times["sns_rnd_plus"]
    ) * 0.8
