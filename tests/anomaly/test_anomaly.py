"""Unit tests for anomaly injection and the Z-score detector."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.anomaly.detector import SCOREBOARD_SIZE, ZScoreDetector
from repro.anomaly.injection import inject_anomalies
from repro.data.generators import generate_synthetic_stream
from repro.exceptions import DataGenerationError


@pytest.fixture
def clean_stream():
    return generate_synthetic_stream((6, 6), n_records=300, period=10.0, seed=4)


class TestInjection:
    def test_injects_requested_number(self, clean_stream, rng):
        corrupted, anomalies = inject_anomalies(clean_stream, n_anomalies=7, rng=rng)
        assert len(anomalies) == 7
        assert len(corrupted) == len(clean_stream) + 7

    def test_magnitude_is_multiple_of_max_value(self, clean_stream, rng):
        corrupted, anomalies = inject_anomalies(
            clean_stream, n_anomalies=3, magnitude_factor=5.0, rng=rng
        )
        expected = 5.0 * clean_stream.max_abs_value()
        assert all(a.value == pytest.approx(expected) for a in anomalies)

    def test_times_respect_interval(self, clean_stream, rng):
        _, anomalies = inject_anomalies(
            clean_stream, n_anomalies=10, start_time=50.0, end_time=60.0, rng=rng
        )
        assert all(50.0 <= a.time <= 60.0 for a in anomalies)

    def test_corrupted_stream_stays_chronological(self, clean_stream, rng):
        corrupted, _ = inject_anomalies(clean_stream, n_anomalies=5, rng=rng)
        times = [record.time for record in corrupted]
        assert times == sorted(times)

    def test_indices_within_mode_sizes(self, clean_stream, rng):
        _, anomalies = inject_anomalies(clean_stream, n_anomalies=20, rng=rng)
        for anomaly in anomalies:
            assert 0 <= anomaly.indices[0] < 6
            assert 0 <= anomaly.indices[1] < 6

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_anomalies": 0},
            {"n_anomalies": 3, "magnitude_factor": 0.0},
            {"n_anomalies": 3, "start_time": 10.0, "end_time": 5.0},
        ],
    )
    def test_invalid_arguments_rejected(self, clean_stream, rng, kwargs):
        with pytest.raises(DataGenerationError):
            inject_anomalies(clean_stream, rng=rng, **kwargs)

    def test_reproducible_with_seed(self, clean_stream):
        _, a = inject_anomalies(clean_stream, 5, rng=np.random.default_rng(1))
        _, b = inject_anomalies(clean_stream, 5, rng=np.random.default_rng(1))
        assert a == b


class TestZScoreDetector:
    def test_statistics_match_numpy(self, rng):
        detector = ZScoreDetector(warmup=1)
        errors = rng.normal(size=50)
        for position, error in enumerate(errors):
            detector.observe((0, position), error, event_time=float(position))
        assert detector.count == 50
        assert detector.mean == pytest.approx(np.mean(np.abs(errors)))
        assert detector.std == pytest.approx(np.std(np.abs(errors), ddof=1))

    def test_no_scores_during_warmup(self):
        detector = ZScoreDetector(warmup=10)
        scores = [
            detector.observe((0, 0), 5.0, event_time=i).z_score for i in range(5)
        ]
        assert scores == [0.0] * 5

    def test_outlier_gets_high_score(self, rng):
        detector = ZScoreDetector(warmup=5)
        for i in range(100):
            detector.observe((0, i), float(rng.normal(1.0, 0.1)), event_time=i)
        outlier = detector.observe((9, 9), 50.0, event_time=101.0)
        assert outlier.z_score > 10.0

    def test_top_k_and_precision(self, rng):
        detector = ZScoreDetector(warmup=5)
        for i in range(60):
            detector.observe((0, i), float(rng.normal(1.0, 0.1)), event_time=i)
        detector.observe((7, 7), 30.0, event_time=100.0)
        detector.observe((8, 8), 40.0, event_time=101.0)
        top = detector.top_k(2)
        assert {score.coordinate for score in top} == {(7, 7), (8, 8)}
        assert detector.precision_at_k(2, {(7, 7), (8, 8)}) == 1.0
        assert detector.precision_at_k(2, {(7, 7)}) == 0.5

    def test_detection_delay(self):
        detector = ZScoreDetector(warmup=1)
        for i in range(40):
            # Alternate two values so the running std is positive and the
            # outlier below receives a real (non-placeholder) Z-score.
            detector.observe((0, i), 1.0 + 0.1 * (i % 2), event_time=float(i))
        detector.observe((5, 5), 100.0, event_time=50.0, detection_time=62.5)
        assert detector.mean_detection_delay(1, {(5, 5)}) == pytest.approx(12.5)
        assert math.isnan(detector.mean_detection_delay(1, {(1, 1)}))

    def test_precision_divides_by_k_not_scoreboard_size(self, rng):
        detector = ZScoreDetector(warmup=5)
        for i in range(30):
            detector.observe((0, i), float(rng.normal(1.0, 0.1)), event_time=i)
        detector.observe((7, 7), 50.0, event_time=40.0)
        # Only one real hit exists; asking for the top-20 must not let the
        # short scoreboard inflate precision to 1/len(top).
        assert detector.precision_at_k(20, {(7, 7)}) == pytest.approx(1 / 20)
        assert detector.precision_at_k(0, {(7, 7)}) == 0.0

    def test_warmup_placeholders_never_reach_the_scoreboard(self):
        detector = ZScoreDetector(warmup=10)
        scores = [
            detector.observe((0, i), 5.0, event_time=float(i)) for i in range(5)
        ]
        # All observations so far are z == 0.0 warm-up placeholders.
        assert all(score.is_warmup for score in scores)
        assert detector.state_dict()["scoreboard"] == []
        assert detector.top_k(SCOREBOARD_SIZE) == []
        assert detector.top_k(5) == []
        assert detector.precision_at_k(5, {(0, 0)}) == 0.0

    def test_genuine_zero_score_stays_eligible(self):
        # An error exactly equal to the running mean yields z == 0.0 after
        # warm-up; it is a real score, not a placeholder, and must keep its
        # scoreboard eligibility.
        detector = ZScoreDetector(warmup=2)
        detector.observe((0, 0), 1.0, event_time=0.0)
        detector.observe((0, 1), 3.0, event_time=1.0)  # mean is now exactly 2.0
        score = detector.observe((9, 9), 2.0, event_time=2.0)
        assert score.z_score == 0.0
        assert not score.is_warmup
        assert score in detector.top_k(10)

    def test_empty_detector_edge_cases(self):
        detector = ZScoreDetector()
        assert detector.top_k(5) == []
        assert detector.precision_at_k(5, {(0, 0)}) == 0.0
        assert detector.std == 0.0
