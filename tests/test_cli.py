"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import EXPERIMENTS, _settings, build_parser, main, run


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

    def test_relaxed_selects_the_relaxed_batched_path(self):
        exact = _settings(build_parser().parse_args(["fig4"]))
        assert not exact.relaxed and not exact.batched
        relaxed = _settings(build_parser().parse_args(["fig4", "--relaxed"]))
        assert relaxed.relaxed and relaxed.batched


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
