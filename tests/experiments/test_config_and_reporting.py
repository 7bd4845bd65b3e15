"""Unit tests for experiment configuration and text reporting."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.config import (
    DEFAULT_CONTINUOUS_METHODS,
    DEFAULT_PERIODIC_METHODS,
    ExperimentSettings,
    default_settings,
    table_iii_rows,
)
from repro.experiments.reporting import format_series, format_table
from repro.experiments.theta_sweep import ThetaSweepResult, format_theta_sweep


class TestExperimentSettings:
    def test_defaults(self):
        settings = ExperimentSettings()
        assert settings.dataset == "nyc_taxi"
        assert settings.fitness_every >= 1
        assert settings.spec.rank == 20
        assert settings.checkpoint_dir is None
        assert settings.checkpoint_events is None
        assert settings.resume is False

    def test_default_settings_overrides(self):
        settings = default_settings("chicago_crime", max_events=100)
        assert settings.dataset == "chicago_crime"
        assert settings.max_events == 100

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dataset": "imagenet"},
            {"scale": 0.0},
            {"max_events": 0},
            {"n_checkpoints": 0},
            {"als_iterations": 0},
            {"checkpoint_events": 0, "checkpoint_dir": "/tmp/x"},
            {"checkpoint_events": 100},  # requires checkpoint_dir
            {"resume": True},  # requires checkpoint_dir
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ExperimentSettings(**kwargs)

    def test_default_method_lists_are_disjoint(self):
        assert not set(DEFAULT_CONTINUOUS_METHODS) & set(DEFAULT_PERIODIC_METHODS)

    def test_table_iii_rows_cover_all_datasets(self):
        rows = table_iii_rows()
        assert len(rows) == 4
        assert {row[0] for row in rows} == {
            "divvy_bikes",
            "chicago_crime",
            "nyc_taxi",
            "ride_austin",
        }


class TestReporting:
    def test_format_table_alignment_and_title(self):
        text = format_table(
            ("name", "value"), [("abc", 1.5), ("x", 123456.0)], title="My table"
        )
        lines = text.splitlines()
        assert lines[0] == "My table"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5
        assert "abc" in lines[3]

    def test_format_table_nan_and_scientific(self):
        text = format_table(("v",), [(float("nan"),), (1e-6,)])
        assert "nan" in text
        assert "e-06" in text

    def test_format_series(self):
        text = format_series("SNS", [0.0, 10.0], [0.5, 0.75], unit="fitness")
        assert text.startswith("SNS [fitness]:")
        assert "(10, 0.750)" in text

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_update_times_from_a_pool_carry_a_note(self, n_workers):
        result = ThetaSweepResult(
            dataset="nyc_taxi",
            thetas=[5],
            relative_fitness={"sns_rnd": [0.9]},
            update_microseconds={"sns_rnd": [120.0]},
            n_workers=n_workers,
        )
        lines = format_theta_sweep(result).splitlines()
        noted = lines[-1].startswith("note: update times are wall-clock")
        assert noted == (n_workers > 1)
