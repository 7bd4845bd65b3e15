"""Detector state persistence and interrupted-run resume equivalence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.anomaly.detector import SCOREBOARD_SIZE, ZScoreDetector
from repro.exceptions import CheckpointError, ConfigurationError
from repro.experiments.anomaly_experiment import run_anomaly_experiment
from repro.experiments.config import ExperimentSettings
from repro.stream.checkpoint import load_checkpoint


def _observe_many(detector, rng, n, t0=0.0):
    for position in range(n):
        detector.observe(
            coordinate=(position % 3, position % 2),
            error=float(rng.normal()),
            event_time=t0 + position,
            detection_time=t0 + position,
        )


def assert_same_board(clone, detector):
    assert clone.state_dict() == detector.state_dict()
    assert clone.top_k(SCOREBOARD_SIZE) == detector.top_k(SCOREBOARD_SIZE)


class TestDetectorStateRoundTrip:
    def test_round_trip_preserves_statistics_and_scores(self, rng):
        detector = ZScoreDetector(warmup=5)
        _observe_many(detector, rng, 40)
        clone = ZScoreDetector.from_state(detector.state_dict())
        assert clone.count == detector.count
        assert clone.mean == detector.mean
        assert clone.std == detector.std
        assert_same_board(clone, detector)

    def test_round_trip_mid_warmup(self, rng):
        detector = ZScoreDetector(warmup=30)
        _observe_many(detector, rng, 10)
        clone = ZScoreDetector.from_state(detector.state_dict())
        assert clone.count == 10
        assert_same_board(clone, detector)
        assert clone.top_k(SCOREBOARD_SIZE) == []

    def test_continuation_is_identical(self, rng):
        """Observing through a save/restore equals observing straight through."""
        errors = rng.normal(size=60)
        straight = ZScoreDetector(warmup=10)
        resumed = ZScoreDetector(warmup=10)
        for position, error in enumerate(errors[:25]):
            for detector in (straight, resumed):
                detector.observe((0, position), float(error), event_time=float(position))
        resumed = ZScoreDetector.from_state(resumed.state_dict())
        for position, error in enumerate(errors[25:], start=25):
            for detector in (straight, resumed):
                detector.observe((0, position), float(error), event_time=float(position))
        assert_same_board(resumed, straight)
        assert resumed.mean == straight.mean
        assert resumed.std == straight.std

    def test_state_survives_json(self, rng):
        import json

        detector = ZScoreDetector(warmup=5)
        _observe_many(detector, rng, 40)
        state = json.loads(json.dumps(detector.state_dict()))
        clone = ZScoreDetector.from_state(state)
        assert_same_board(clone, detector)
        assert clone.mean == detector.mean

    def test_fresh_detector_round_trips(self):
        clone = ZScoreDetector.from_state(ZScoreDetector(warmup=7).state_dict())
        assert clone.count == 0
        assert clone.top_k(SCOREBOARD_SIZE) == []

    @pytest.mark.parametrize(
        "state",
        [
            {},
            {"warmup": 5, "count": 3, "mean": 0.0},  # m2/scores missing
            {"warmup": 5, "count": "three", "mean": 0.0, "m2": 0.0, "scores": []},
            {"warmup": 5, "count": 3, "mean": 0.0, "m2": 0.0, "scores": [{"bad": 1}]},
            {"warmup": 5, "count": 3, "mean": 0.0, "m2": 0.0, "scores": "nope"},
            {"warmup": 5, "count": 3, "mean": 0.0, "m2": 0.0, "scoreboard": "no"},
            {
                "warmup": 5,
                "count": 3,
                "mean": 0.0,
                "m2": 0.0,
                "scoreboard": [{"index": 0, "coordinate": [0, 0]}],
            },
        ],
    )
    def test_malformed_state_raises_checkpoint_error(self, state):
        with pytest.raises(CheckpointError):
            ZScoreDetector.from_state(state)

    @pytest.mark.parametrize(
        "key", ["warmup", "count", "finite_count", "mean", "m2", "scoreboard"]
    )
    def test_every_key_is_required(self, rng, key):
        detector = ZScoreDetector(warmup=5)
        _observe_many(detector, rng, 40)
        state = detector.state_dict()
        del state[key]
        with pytest.raises(CheckpointError, match=key):
            ZScoreDetector.from_state(state)


SETTINGS = dict(
    dataset="chicago_crime", scale=0.12, n_checkpoints=4, als_iterations=3, seed=1
)
METHOD = "sns_rnd_plus"  # randomized: also exercises the RNG-state restore


class SimulatedCrash(Exception):
    pass


@pytest.mark.parametrize("relaxed", [False, True], ids=["exact", "relaxed"])
class TestInterruptedRunResume:
    """Acceptance: interrupt + resume == uninterrupted, on both update rules."""

    def test_resumed_run_matches_uninterrupted(self, tmp_path, relaxed, monkeypatch):
        from repro.stream.processor import ContinuousStreamProcessor

        def run(checkpoint_dir, resume=False, checkpoint_events=None):
            return run_anomaly_experiment(
                ExperimentSettings(
                    checkpoint_dir=str(checkpoint_dir),
                    checkpoint_events=checkpoint_events,
                    resume=resume,
                    relaxed=relaxed,
                    **SETTINGS,
                ),
                methods=(METHOD,),
                n_anomalies=8,
                replay_periods=3,
            ).methods[METHOD]

        reference = run(tmp_path / "ref")

        # Crash the run right after its second mid-run checkpoint lands, so
        # the resume starts from genuinely mid-stream state.
        original = ContinuousStreamProcessor.save_checkpoint
        saves = []

        def crashing_save(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
            saves.append(result)
            if len(saves) == 2:
                raise SimulatedCrash
            return result

        monkeypatch.setattr(
            ContinuousStreamProcessor, "save_checkpoint", crashing_save
        )
        with pytest.raises(SimulatedCrash):
            run(tmp_path / "res", checkpoint_events=40)
        monkeypatch.undo()

        resumed = run(tmp_path / "res", resume=True)

        assert resumed.precision_at_k == reference.precision_at_k
        assert resumed.n_scored == reference.n_scored
        if np.isnan(reference.mean_detection_delay):
            assert np.isnan(resumed.mean_detection_delay)
        else:
            assert resumed.mean_detection_delay == reference.mean_detection_delay

        # The full persisted score streams are identical, entry for entry.
        ref_extra = load_checkpoint(tmp_path / "ref" / f"anomaly-{METHOD}").extra
        res_extra = load_checkpoint(tmp_path / "res" / f"anomaly-{METHOD}").extra
        assert res_extra["detector"] == ref_extra["detector"]
        assert res_extra["n_events"] == ref_extra["n_events"]


def test_resume_at_another_scale_is_refused(tmp_path):
    # Two scales of one dataset share the window shape and the model's
    # hyper-parameters; only the stream fingerprint the checkpoint records
    # tells the runs apart.
    def run(scale, resume=False):
        return run_anomaly_experiment(
            ExperimentSettings(
                checkpoint_dir=str(tmp_path),
                resume=resume,
                **{**SETTINGS, "scale": scale},
            ),
            methods=(METHOD,),
            n_anomalies=8,
            replay_periods=3,
        )

    run(0.12)
    with pytest.raises(ConfigurationError, match=r"differs in \['stream'\]"):
        run(0.16, resume=True)
