"""The detector's fixed-size scoreboard against a full-history reference.

``FullHistoryDetector`` below is the detector as it was before the board
existed: it kept every score in observation order and answered ``top_k``
with a stable descending sort of all of them.  The bounded board must give
the same answer for every ``k`` up to ``SCOREBOARD_SIZE``, through
checkpoint round trips and from the older payload format too.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anomaly.detector import (
    SCOREBOARD_SIZE,
    AnomalyScore,
    ZScoreDetector,
    scoreboard_k,
)
from repro.exceptions import ConfigurationError


class FullHistoryDetector:
    """Every score kept, ranked by a full stable sort on each query."""

    def __init__(self, warmup: int) -> None:
        self.warmup = max(int(warmup), 1)
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.scores: list[AnomalyScore] = []

    @property
    def std(self) -> float:
        if self.count < 2:
            return 0.0
        return math.sqrt(self.m2 / (self.count - 1))

    def observe(self, coordinate, error, event_time, detection_time=None):
        error = abs(float(error))
        is_warmup = not (self.count >= self.warmup and self.std > 0.0)
        z_score = 0.0 if is_warmup else (error - self.mean) / self.std
        score = AnomalyScore(
            coordinate=tuple(int(i) for i in coordinate),
            z_score=z_score,
            error=error,
            event_time=float(event_time),
            detection_time=float(
                event_time if detection_time is None else detection_time
            ),
            is_warmup=is_warmup,
        )
        self.scores.append(score)
        self.count += 1
        delta = error - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (error - self.mean)
        return score

    def top_k(self, k: int) -> list[AnomalyScore]:
        scored = [s for s in self.scores if not s.is_warmup]
        return sorted(scored, key=lambda s: (s.z_score, s.error), reverse=True)[
            : int(k)
        ]

    def state_dict(self) -> dict:
        """The payload format that listed every score."""
        return {
            "warmup": self.warmup,
            "count": self.count,
            "mean": self.mean,
            "m2": self.m2,
            "scores": [
                {
                    "coordinate": list(score.coordinate),
                    "z_score": score.z_score,
                    "error": score.error,
                    "event_time": score.event_time,
                    "detection_time": score.detection_time,
                    "is_warmup": score.is_warmup,
                }
                for score in self.scores
            ],
        }


def json_round_trip(detector: ZScoreDetector) -> ZScoreDetector:
    state = json.loads(json.dumps(detector.state_dict()))
    return ZScoreDetector.from_state(state)


def assert_same_ranking(detector, reference):
    for k in range(SCOREBOARD_SIZE + 1):
        assert detector.top_k(k) == reference.top_k(k)


#: An observation is either an error value or ``"mean"``: an error equal to
#: the running mean, which scores exactly 0.0 after warm-up.  Runs of
#: ``"mean"`` leave the mean unchanged, so they tie on the full key
#: ``(z_score, error)``; a small value set makes more ties.
#: Lengths are drawn first so that many streams outgrow the board.
observations = st.integers(0, 260).flatmap(
    lambda n: st.lists(
        st.one_of(
            st.just("mean"),
            st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0]),
            st.floats(-10.0, 10.0, allow_nan=False),
        ),
        min_size=n,
        max_size=n,
    )
)


@given(
    warmup=st.integers(1, 40),
    errors=observations,
    cut=st.floats(0.0, 1.0),
)
@settings(max_examples=100, deadline=None)
def test_board_matches_the_full_history_sort(warmup, errors, cut):
    detector = ZScoreDetector(warmup=warmup)
    reference = FullHistoryDetector(warmup=warmup)
    restore_at = int(cut * len(errors))
    for position, error in enumerate(errors):
        if position == restore_at:
            detector = json_round_trip(detector)
        if error == "mean":
            error = reference.mean
        coordinate = (position % 5, position % 3)
        score = detector.observe(coordinate, error, event_time=float(position))
        assert score == reference.observe(
            coordinate, error, event_time=float(position)
        )
    assert detector.count == reference.count
    assert detector.mean == reference.mean
    assert detector.std == reference.std
    assert_same_ranking(detector, reference)
    assert_same_ranking(json_round_trip(detector), reference)


def test_ties_rank_the_earliest_observation_first():
    detector = ZScoreDetector(warmup=2)
    detector.observe((0, 0), 1.0, event_time=0.0)
    detector.observe((0, 1), 3.0, event_time=1.0)  # the mean is now 2.0
    # 150 errors equal to the unchanged mean: identical (0.0, 2.0) keys.
    for position in range(150):
        detector.observe((1, position), 2.0, event_time=2.0 + position)
    top = detector.top_k(SCOREBOARD_SIZE)
    assert [score.coordinate for score in top] == [
        (1, position) for position in range(SCOREBOARD_SIZE)
    ]
    board = detector.state_dict()["scoreboard"]
    assert [entry["index"] for entry in board] == list(
        range(2, 2 + SCOREBOARD_SIZE)
    )


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_errors_keep_the_board_sorted(rng, bad):
    detector = ZScoreDetector(warmup=5)
    for position in range(150):
        detector.observe((0, position), float(rng.normal()), event_time=position)
    detector.observe((9, 9), bad, event_time=150.0)
    # The bad error stays out of the statistics, so these are scored.
    for position in range(151, 171):
        detector.observe((0, position), float(rng.normal()), event_time=position)
    assert detector.count == 171
    for board in (detector, json_round_trip(detector)):
        top = board.top_k(SCOREBOARD_SIZE)
        assert len(top) == SCOREBOARD_SIZE
        keys = [(score.z_score, score.error) for score in top]
        assert not any(math.isnan(z) for z, _ in keys)
        assert keys == sorted(keys, reverse=True)
        if bad == math.inf:
            assert top[0].coordinate == (9, 9) and top[0].z_score == math.inf
        else:
            assert (9, 9) not in {score.coordinate for score in top}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
def test_scoring_continues_after_a_non_finite_error(rng, bad):
    detector = ZScoreDetector(warmup=5)
    for position in range(150):
        detector.observe((0, position), float(rng.normal()), event_time=position)
    mean, std = detector.mean, detector.std
    detector.observe((9, 9), bad, event_time=150.0)
    assert detector.count == 151
    assert (detector.mean, detector.std) == (mean, std)
    restored = json_round_trip(detector)
    for position in range(151, 171):
        error = float(rng.normal())
        score = detector.observe((0, position), error, event_time=position)
        assert not score.is_warmup and math.isfinite(score.z_score)
        assert restored.observe((0, position), error, event_time=position) == score
    assert restored.state_dict() == detector.state_dict()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
def test_non_finite_errors_alone_never_end_the_warmup(bad):
    detector = ZScoreDetector(warmup=5)
    for position in range(40):
        score = detector.observe((0, position), bad, event_time=position)
        assert score.is_warmup and score.z_score == 0.0
    assert detector.count == 40
    assert (detector.mean, detector.std) == (0.0, 0.0)
    assert detector.top_k(SCOREBOARD_SIZE) == []


finite_or_not = st.lists(
    st.one_of(
        st.floats(-10.0, 10.0, allow_nan=False),
        st.sampled_from([0.0, 1.0, math.nan, math.inf, -math.inf]),
    ),
    max_size=150,
)


@given(warmup=st.integers(1, 20), errors=finite_or_not, cut=st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_statistics_are_those_of_the_finite_errors(warmup, errors, cut):
    # Warm-up counts every observation; the mean and deviation a score is
    # measured against are those of the finite errors before it.
    detector = ZScoreDetector(warmup=warmup)
    finite = FullHistoryDetector(warmup=1)
    restore_at = int(cut * len(errors))
    scores = []
    for position, error in enumerate(errors):
        if position == restore_at:
            detector = json_round_trip(detector)
        mean, std = finite.mean, finite.std
        score = detector.observe((0, position), error, event_time=float(position))
        assert score.is_warmup == (position < warmup or std == 0.0)
        if not score.is_warmup:
            expected = (abs(error) - mean) / std
            assert score.z_score == expected or (
                math.isnan(score.z_score) and math.isnan(expected)
            )
        if math.isfinite(error):
            finite.observe((0, position), error, event_time=float(position))
        scores.append(score)
    assert detector.count == len(errors)
    assert (detector.mean, detector.std) == (finite.mean, finite.std)
    ranked = sorted(
        (s for s in scores if not s.is_warmup and not math.isnan(s.z_score)),
        key=lambda s: (s.z_score, s.error),
        reverse=True,
    )
    for board in (detector, json_round_trip(detector)):
        assert board.top_k(SCOREBOARD_SIZE) == ranked[:SCOREBOARD_SIZE]


def test_payload_without_finite_count_continues_exactly(rng):
    errors = [float(error) for error in rng.normal(size=80)]
    detector = ZScoreDetector(warmup=5)
    for position, error in enumerate(errors[:40]):
        detector.observe((0, position), error, event_time=position)
    state = json.loads(json.dumps(detector.state_dict()))
    del state["finite_count"]
    restored = ZScoreDetector.from_state(state)
    for position, error in enumerate(errors[40:], start=40):
        assert restored.observe((0, position), error, event_time=position) == (
            detector.observe((0, position), error, event_time=position)
        )
    assert restored.state_dict() == detector.state_dict()


def test_a_nan_score_in_an_old_payload_is_dropped(rng):
    reference = FullHistoryDetector(warmup=5)
    for position in range(40):
        reference.observe((0, position), float(rng.normal()), event_time=position)
    state = json.loads(json.dumps(reference.state_dict()))
    state["scores"][20]["z_score"] = math.nan
    detector = ZScoreDetector.from_state(state)
    top = detector.top_k(SCOREBOARD_SIZE)
    assert len(top) == 34  # 35 post-warm-up scores, one of them NaN
    assert not any(math.isnan(score.z_score) for score in top)


@pytest.mark.parametrize("n_observations", [60, 1_000])
def test_old_payload_restores_the_same_ranking(rng, n_observations):
    reference = FullHistoryDetector(warmup=10)
    errors = rng.normal(size=n_observations + 200)
    for position, error in enumerate(errors[:n_observations]):
        reference.observe((position % 4, 0), float(error), event_time=position)
    state = json.loads(json.dumps(reference.state_dict()))
    detector = ZScoreDetector.from_state(state)
    assert detector.count == reference.count
    assert detector.mean == reference.mean
    assert_same_ranking(detector, reference)
    # ... and continues exactly like the run that wrote the payload.
    for position, error in enumerate(errors[n_observations:], n_observations):
        assert detector.observe(
            (position % 4, 0), float(error), event_time=position
        ) == reference.observe((position % 4, 0), float(error), event_time=position)
    assert_same_ranking(detector, reference)


def test_checkpoint_payload_stays_bounded(rng):
    detector = ZScoreDetector(warmup=30)
    for position in range(10_000):
        detector.observe(
            (position % 50, position % 7),
            float(rng.lognormal()),
            event_time=float(position),
        )
    state = detector.state_dict()
    assert detector.count == 10_000
    assert len(state["scoreboard"]) == SCOREBOARD_SIZE
    assert len(json.dumps(state)) < 24_000


BAD_K = [True, False, 2.7, 5.0, "5", "abc", None, [3], -1, SCOREBOARD_SIZE + 1]


@pytest.mark.parametrize("k", BAD_K, ids=repr)
def test_top_k_refuses_what_is_not_a_board_depth(k):
    detector = ZScoreDetector(warmup=1)
    for position in range(10):
        detector.observe((0, position), float(position), event_time=position)
    with pytest.raises(ConfigurationError, match=f"0..{SCOREBOARD_SIZE}"):
        detector.top_k(k)
    with pytest.raises(ConfigurationError):
        scoreboard_k(k)


def test_board_depth_bounds_are_accepted():
    detector = ZScoreDetector(warmup=1)
    for position in range(10):
        detector.observe((0, position), float(position), event_time=position)
    assert detector.top_k(0) == []
    assert len(detector.top_k(SCOREBOARD_SIZE)) == 8
    assert detector.precision_at_k(-3, {(0, 9)}) == 0.0
    assert detector.precision_at_k(0, {(0, 9)}) == 0.0
