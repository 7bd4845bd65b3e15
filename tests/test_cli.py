"""Tests for the command-line interface."""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import EXPERIMENTS, _settings, build_parser, main, run
from repro.exceptions import ConfigurationError
from repro.experiments.anomaly_experiment import (
    format_anomaly_experiment,
    run_anomaly_experiment,
)
from repro.experiments.config import ExperimentSettings
from repro.stream.checkpoint import is_checkpoint


def fitness_columns(report: str, n_columns: int) -> list[list[str]]:
    """The first ``n_columns`` cells of every table row in ``report``."""
    return [
        [cell.strip() for cell in line.split("|")[:n_columns]]
        for line in report.splitlines()
        if "|" in line
    ]


class TestParser:
    def test_all_experiments_are_choices(self):
        parser = build_parser()
        args = parser.parse_args(["table2"])
        assert args.experiment == "table2"
        assert set(EXPERIMENTS) >= {"fig1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"}

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_dataset_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig4", "--dataset", "imagenet"])

    def test_relaxed_selects_the_relaxed_update(self):
        assert not _settings(build_parser().parse_args(["fig4"])).relaxed
        assert _settings(build_parser().parse_args(["fig4", "--relaxed"])).relaxed

    def test_batched_is_a_usage_error(self, capsys):
        # The engine follows from --relaxed; there is no flag to pick it.
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["fig4", "--batched"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --batched" in capsys.readouterr().err


class TestTableCommands:
    def test_table2_lists_paper_datasets(self):
        output = run(["table2"])
        assert "Divvy Bikes" in output
        assert "New York Taxi" in output
        assert "Table II" in output

    def test_table3_lists_hyperparameters(self):
        output = run(["table3"])
        assert "Table III" in output
        assert "theta" in output
        assert "ride_austin" in output

    def test_main_prints_and_returns_zero(self, capsys):
        assert main(["table3"]) == 0
        captured = capsys.readouterr()
        assert "Table III" in captured.out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fig4", "--scale", "-1"], "scale must be positive, got -1.0"),
            (["fig9", "--scale", "0"], "scale must be positive, got 0.0"),
            (["fig1", "--max-events", "0"], "max_events must be positive, got 0"),
            (
                ["fig5", "--n-checkpoints", "0"],
                "n_checkpoints must be positive, got 0",
            ),
            (["fig6", "--workers", "0"], "n_workers must be >= 1, got 0"),
            (
                ["fig7", "--checkpoint-events", "10"],
                "checkpoint_events requires checkpoint_dir — without it no "
                "checkpoint would ever be written",
            ),
            (
                ["fig8", "--resume"],
                "resume=True requires checkpoint_dir to locate the checkpoint",
            ),
            (
                ["fig4", "--checkpoint-dir", "{tmp}", "--checkpoint-events", "0"],
                "checkpoint_events must be positive, got 0",
            ),
        ],
        ids=[
            "negative-scale",
            "zero-scale",
            "zero-max-events",
            "zero-n-checkpoints",
            "zero-workers",
            "checkpoint-events-without-dir",
            "resume-without-dir",
            "zero-checkpoint-events",
        ],
    )
    def test_main_reports_a_library_error_in_one_line(
        self, capsys, tmp_path, argv, message
    ):
        checkpoint_dir = tmp_path / "checkpoints"
        argv = [arg.format(tmp=checkpoint_dir) for arg in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"slicenstitch: error: {message}\n"
        assert not checkpoint_dir.exists()


class TestExperimentCommand:
    def test_fig8_runs_at_tiny_scale(self):
        output = run(
            ["fig8", "--dataset", "chicago_crime", "--scale", "0.08",
             "--max-events", "120", "--seed", "1"]
        )
        assert "Fig. 8" in output


class TestCheckpointResumeEndToEnd:
    def test_resume_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args(
            ["fig4", "--checkpoint-dir", "/tmp/x", "--checkpoint-events",
             "100", "--resume"]
        )
        assert args.checkpoint_dir == "/tmp/x"
        assert args.checkpoint_events == 100
        assert args.resume is True

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(Exception, match="checkpoint_dir"):
            run(["fig4", "--resume", "--max-events", "10"])

    def test_fig4_resume_reproduces_uninterrupted_output(self, tmp_path):
        """Save at N/2, rerun with --resume to N: output equals one full run.

        Continuous methods continue exactly from the checkpoint; periodic
        baselines carry no checkpointable state and simply rerun in full, so
        the complete fig4 report (fitness series, summary table) must be
        identical to the uninterrupted run's.
        """
        base = ["fig4", "--dataset", "chicago_crime", "--scale", "0.08",
                "--seed", "1"]
        # Hold the fitness cadence (max-events / n-checkpoints = 6) fixed
        # across the interrupted run and its continuation so the sample
        # points line up with the uninterrupted run's.
        uninterrupted = run(base + ["--max-events", "120",
                                    "--n-checkpoints", "20"])
        checkpoint_args = ["--checkpoint-dir", str(tmp_path)]
        run(base + ["--max-events", "60", "--n-checkpoints", "10",
                    "--checkpoint-events", "30", *checkpoint_args])
        for method in ("sns_rnd_plus", "sns_mat"):
            assert (tmp_path / method).is_dir()
        resumed = run(
            base + ["--max-events", "120", "--n-checkpoints", "20",
                    "--resume", *checkpoint_args]
        )
        assert resumed == uninterrupted

    @pytest.mark.parametrize(
        ("experiment", "methods", "n_points", "n_fitness_columns"),
        [
            # fig7's fourth column is wall-clock update time.
            ("fig7", ("sns_rnd", "sns_rnd_plus"), 5, 3),
            ("fig8", ("sns_vec_plus", "sns_rnd_plus"), 6, 3),
        ],
    )
    def test_sweep_checkpoints_every_point_and_resumes_exactly(
        self, tmp_path, experiment, methods, n_points, n_fitness_columns
    ):
        base = [experiment, "--dataset", "chicago_crime", "--scale", "0.08",
                "--seed", "1"]
        uninterrupted = run(base + ["--max-events", "60",
                                    "--n-checkpoints", "3"])
        checkpoint_args = ["--checkpoint-dir", str(tmp_path)]
        run(base + ["--max-events", "40", "--n-checkpoints", "2",
                    "--checkpoint-events", "20", *checkpoint_args])
        # One checkpoint per sweep point, at <dir>/<point>/<method>; the ALS
        # reference is periodic and keeps none.
        checkpoints = sorted(
            path.relative_to(tmp_path).parts
            for path in tmp_path.glob("*/*")
            if is_checkpoint(path)
        )
        assert len(checkpoints) == n_points * len(methods)
        assert all(point.startswith(f"{method}@") for point, method in checkpoints)
        assert {method for _, method in checkpoints} == set(methods)
        resumed = run(base + ["--max-events", "60", "--n-checkpoints", "3",
                              "--resume", *checkpoint_args])
        assert fitness_columns(resumed, n_fitness_columns) == fitness_columns(
            uninterrupted, n_fitness_columns
        )

    @pytest.mark.parametrize(
        ("dataset", "scale", "differs"),
        [
            ("chicago_crime", "0.08", "['window_config', 'stream']"),
            # Another scale of the same dataset has the same window shape.
            ("nyc_taxi", "0.1", "['stream']"),
        ],
    )
    def test_resume_refuses_another_runs_checkpoint(
        self, tmp_path, dataset, scale, differs, capsys
    ):
        checkpoint_args = ["--max-events", "60", "--checkpoint-dir", str(tmp_path)]
        run(["fig8", "--dataset", "nyc_taxi", "--scale", "0.08", *checkpoint_args])
        resume = ["fig8", "--dataset", dataset, "--scale", scale,
                  *checkpoint_args, "--resume"]
        with pytest.raises(ConfigurationError, match=re.escape(differs)):
            run(resume)
        # From the console entry point: one line on stderr, exit status 2.
        capsys.readouterr()
        assert main(resume) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("slicenstitch: error: checkpoint at ")
        assert line.endswith("start a fresh checkpoint directory")
        assert f"differs in {differs}" in line

    def test_resume_refuses_a_version_1_checkpoint(self, tmp_path, capsys):
        checkpoint_args = ["--max-events", "60", "--checkpoint-dir", str(tmp_path)]
        fig8 = ["fig8", "--dataset", "nyc_taxi", "--scale", "0.08", *checkpoint_args]
        run(fig8)
        for manifest_path in tmp_path.glob("*/*/manifest.json"):
            manifest = json.loads(manifest_path.read_text())
            manifest["version"] = 1
            manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main([*fig8, "--resume"]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("slicenstitch: error: checkpoint format version 1")
        assert line.endswith("delete the checkpoint and rerun")


class TestFig9ReplayFlags:
    """fig9 replays a fixed number of periods and reads no sizing flag."""

    @pytest.mark.parametrize("flag", ["--max-events", "--n-checkpoints", "--workers"])
    def test_each_unused_flag_is_a_usage_error(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run(["fig9", flag, "10"])
        assert exit_info.value.code == 2
        assert f"fig9 does not take {flag}" in capsys.readouterr().err

    def test_plain_fig9_prints_the_library_report(self):
        report = run(
            ["fig9", "--dataset", "chicago_crime", "--scale", "0.08", "--seed", "1"]
        )
        assert report == format_anomaly_experiment(
            run_anomaly_experiment(
                ExperimentSettings(dataset="chicago_crime", scale=0.08, seed=1)
            )
        )
        assert "Fig. 9" in report

    def test_other_experiments_keep_the_flag_defaults(self):
        settings = _settings(build_parser().parse_args(["fig8"]))
        assert (settings.max_events, settings.n_checkpoints, settings.n_workers) == (
            2000,
            20,
            1,
        )
