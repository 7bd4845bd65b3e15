"""Command-line interface: regenerate any experiment from a terminal.

Examples
--------
::

    python -m repro.cli fig4 --dataset chicago_crime --max-events 2000
    python -m repro.cli fig5 --max-events 1500
    python -m repro.cli table2
    slicenstitch fig9 --dataset nyc_taxi
    slicenstitch serve --port 7342 --checkpoint-root ./state
    slicenstitch lint --format json

``serve`` starts the multi-tenant streaming service
(:mod:`repro.service`); ``lint`` runs the static invariant checkers
(:mod:`repro.analysis`); every other subcommand reproduces one experiment.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.exceptions import ReproError

if TYPE_CHECKING:
    from repro.experiments.config import ExperimentSettings

EXPERIMENTS = (
    "fig1",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "table2",
    "table3",
)

#: Defaults of the replay-sizing flags, by argparse dest.  The parser leaves
#: them ``None`` so that fig9, whose replay length is fixed by its protocol
#: and which reads none of them, can refuse them when they are given.
REPLAY_DEFAULTS = {"max_events": 2000, "n_checkpoints": 20, "workers": 1}


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    from repro.data.datasets import DATASETS

    parser = argparse.ArgumentParser(
        prog="slicenstitch",
        description="Reproduce the SliceNStitch (ICDE 2021) experiments.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS, help="experiment to run")
    parser.add_argument(
        "--dataset",
        default="nyc_taxi",
        choices=sorted(DATASETS),
        help="synthetic dataset to use (single-dataset experiments)",
    )
    parser.add_argument(
        "--max-events",
        type=int,
        default=None,
        help="events replayed after warm-up (default 2000; not taken by fig9)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.3, help="dataset size multiplier"
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--n-checkpoints",
        type=int,
        default=None,
        metavar="N",
        help=(
            "number of fitness samples taken over the replay (the cadence "
            "is max-events / N); keep the implied cadence fixed across an "
            "interrupted run and its --resume continuation to get "
            "identically-placed samples (default 20; not taken by fig9)"
        ),
    )
    parser.add_argument(
        "--relaxed",
        action="store_true",
        help=(
            "run the relaxed batch update instead of the exact algorithm: "
            "every row a batch touches is solved once, in block "
            "Gauss-Seidel order (time rows, then one categorical mode at a "
            "time).  Faster, at a fitness cost gated in "
            "benchmarks/results/BENCH_sharded.json; theta is unused.  "
            "Off (default) keeps the exact path, updated once per event"
        ),
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help=(
            "persist the full run state of every continuous method under "
            "DIR/<method> (window, scheduler, factors, RNG stream); sweep "
            "points go under DIR/<point>/<method>, and fig5 puts each "
            "dataset under DIR/<dataset>/<method>; an interrupted run "
            "restarted with --resume continues exactly where it stopped"
        ),
    )
    parser.add_argument(
        "--checkpoint-events",
        type=int,
        default=None,
        metavar="N",
        help=(
            "with --checkpoint-dir: save a checkpoint every N replayed "
            "events (default: only at the end of the run)"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume each continuous method from its checkpoint under "
            "--checkpoint-dir when one exists, replaying only the remaining "
            "events up to --max-events; the result is exactly what an "
            "uninterrupted run would have produced"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker processes for the experiment fan-out: prepare once, "
            "snapshot the prepared state, and replay independent "
            "method/sweep-point tasks in parallel (results identical to a "
            "sequential run; a killed worker's task resumes from its "
            "crash-recovery checkpoint).  1 (default) runs sequentially "
            "in-process; not taken by fig9"
        ),
    )
    return parser


def _replay_flag(args: argparse.Namespace, dest: str) -> int:
    value = getattr(args, dest)
    return REPLAY_DEFAULTS[dest] if value is None else value


def _settings(args: argparse.Namespace) -> ExperimentSettings:
    from repro.experiments.config import ExperimentSettings

    return ExperimentSettings(
        dataset=args.dataset,
        scale=args.scale,
        max_events=_replay_flag(args, "max_events"),
        n_checkpoints=_replay_flag(args, "n_checkpoints"),
        seed=args.seed,
        relaxed=args.relaxed,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_events=args.checkpoint_events,
        resume=args.resume,
        n_workers=_replay_flag(args, "workers"),
    )


def run(argv: Sequence[str] | None = None) -> str:
    """Run the selected experiment and return its text report.

    The ``serve`` subcommand is special: it starts the streaming service
    (which blocks until shutdown) and returns an empty report.  ``lint``
    is too: it runs the static checkers and exits with their status
    (0 clean, 1 findings) via :class:`SystemExit`.  Both are dispatched
    before anything loads numpy, so ``serve`` can still choose its BLAS
    thread count (:func:`repro.service.cli.main`).
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["serve"]:
        from repro.service.cli import main as serve_main

        serve_main(argv[1:])
        return ""
    if argv[:1] == ["lint"]:
        from repro.analysis.cli import main as lint_main

        raise SystemExit(lint_main(argv[1:]))
    # Imported after the serve / lint dispatch: the experiments load numpy.
    from repro.data.datasets import PAPER_DATASETS
    from repro.experiments.anomaly_experiment import (
        format_anomaly_experiment,
        run_anomaly_experiment,
    )
    from repro.experiments.config import table_iii_rows
    from repro.experiments.eta_sweep import format_eta_sweep, run_eta_sweep
    from repro.experiments.fitness_over_time import (
        format_fitness_over_time,
        run_fitness_over_time,
    )
    from repro.experiments.granularity import format_granularity, run_granularity
    from repro.experiments.reporting import format_table
    from repro.experiments.scalability import format_scalability, run_scalability
    from repro.experiments.speed_fitness import format_speed_fitness, run_speed_fitness
    from repro.experiments.theta_sweep import format_theta_sweep, run_theta_sweep

    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment == "fig9":
        for dest in REPLAY_DEFAULTS:
            if getattr(args, dest) is not None:
                parser.error(
                    f"fig9 does not take --{dest.replace('_', '-')}: it "
                    "replays a fixed number of periods, sequentially"
                )
    if args.experiment == "fig1":
        return format_granularity(run_granularity(_settings(args)))
    if args.experiment == "fig4":
        return format_fitness_over_time(run_fitness_over_time(_settings(args)))
    if args.experiment == "fig5":
        return format_speed_fitness(run_speed_fitness(_settings(args)))
    if args.experiment == "fig6":
        return format_scalability(run_scalability(_settings(args)))
    if args.experiment == "fig7":
        return format_theta_sweep(run_theta_sweep(_settings(args)))
    if args.experiment == "fig8":
        return format_eta_sweep(run_eta_sweep(_settings(args)))
    if args.experiment == "fig9":
        return format_anomaly_experiment(run_anomaly_experiment(_settings(args)))
    if args.experiment == "table2":
        rows = [
            (
                info.name,
                info.description,
                "x".join(str(n) for n in info.shape),
                info.n_nonzeros,
                info.density,
            )
            for info in PAPER_DATASETS.values()
        ]
        return format_table(
            ("name", "description", "size", "# non-zeros", "density"),
            rows,
            title="Table II — real datasets of the paper (metadata only)",
        )
    if args.experiment == "table3":
        return format_table(
            ("dataset", "R", "W", "T (period)", "theta", "eta"),
            table_iii_rows(),
            title="Table III — default hyper-parameters (synthetic equivalents)",
        )
    raise AssertionError(f"unhandled experiment {args.experiment}")


def main(argv: Sequence[str] | None = None) -> int:
    """Console entry point.

    A library error (bad settings, a checkpoint of another run) ends the
    command with a one-line message on stderr and exit status 2.
    """
    try:
        report = run(argv)
    except ReproError as error:
        print(f"slicenstitch: error: {error}", file=sys.stderr)
        return 2
    print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
