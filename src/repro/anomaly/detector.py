"""Z-score anomaly detector over reconstruction errors (Section VI-G).

The detector keeps running statistics (mean and variance, via Welford's
algorithm) of the reconstruction errors it observes, and converts each new
error into a Z-score.  The recorded detection times support the "time gap
between occurrence and detection" metric.

Only a fixed-size scoreboard of scores is kept: a min-heap of the
:data:`SCOREBOARD_SIZE` best post-warm-up scores, so a detector's memory,
its checkpoint payload and a :meth:`ZScoreDetector.top_k` query do not grow
with the number of observations.  Scores rank by ``(z_score, error)``,
highest first; equal keys rank earliest observation first, so ``top_k(k)``
for any ``k <= SCOREBOARD_SIZE`` equals a stable descending sort of every
score ever emitted.  Warm-up placeholders and NaN scores (which cannot be
ranked) never enter the board; ``count`` still includes them.

A non-finite error (NaN or ±inf, as a diverging model produces) is scored
and counted in ``count``, but kept out of the mean and variance: folded in,
it would make them non-finite, and every later observation would be an
unranked placeholder.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
from collections.abc import Mapping
from typing import Any

from repro.exceptions import ConfigurationError
from repro.stream.checkpoint import require_keys
from repro.validation import matches

Coordinate = tuple[int, ...]

#: How many scores the board keeps: five times the paper's top-20, and the
#: largest ``k`` that :meth:`ZScoreDetector.top_k` (and the service's
#: ``anomalies`` op) answers.
SCOREBOARD_SIZE = 100


def scoreboard_k(k: object) -> int:
    """``k`` as a scoreboard depth: an integer in ``0..SCOREBOARD_SIZE``.

    Anything else, a bool or a float included, raises
    :class:`~repro.exceptions.ConfigurationError` instead of being truncated
    or slicing the board from its end.
    """
    if not (matches(k, int) and 0 <= k <= SCOREBOARD_SIZE):
        raise ConfigurationError(
            f"k must be an integer in 0..{SCOREBOARD_SIZE}, got {k!r}"
        )
    return int(k)


@dataclasses.dataclass(frozen=True, slots=True)
class AnomalyScore:
    """One scored observation."""

    coordinate: Coordinate
    z_score: float
    error: float
    event_time: float
    detection_time: float
    #: True for warm-up placeholders emitted before the error statistics
    #: existed; their ``z_score`` of 0.0 carries no evidence.  Recorded
    #: explicitly so a genuine post-warm-up score of exactly 0.0 (an error
    #: equal to the running mean) is not mistaken for a placeholder.
    is_warmup: bool = False

    @property
    def detection_delay(self) -> float:
        """Seconds between the observation's event time and its detection."""
        return self.detection_time - self.event_time


#: A board entry: ``(z_score, error, -observation_index, score)``.  Indices
#: are unique, so comparing two entries never reaches the score itself.
_Entry = tuple[float, float, int, AnomalyScore]


def _offer(board: list[_Entry], score: AnomalyScore, index: int) -> None:
    """Put observation ``index``'s ``score`` on the min-heap if it ranks."""
    if score.is_warmup or math.isnan(score.z_score):
        return
    entry = (score.z_score, score.error, -index, score)
    if len(board) < SCOREBOARD_SIZE:
        heapq.heappush(board, entry)
    elif entry > board[0]:
        heapq.heapreplace(board, entry)


#: :meth:`ZScoreDetector.state_dict` as it is written, for :func:`require_keys`.
_STATE_KEYS = {
    "warmup": int,
    "count": int,
    "finite_count": int,
    "mean": float,
    "m2": float,
    "scoreboard": list[dict],
}
_SCORE_KEYS = {
    "index": int,
    "coordinate": list[int],
    "z_score": float,
    "error": float,
    "event_time": float,
    "detection_time": float,
}


class ZScoreDetector:
    """Online Z-score scoring of reconstruction errors.

    Parameters
    ----------
    warmup:
        Number of observations used purely to establish the error statistics
        before any score is emitted (scores during warm-up are 0.0).
    """

    def __init__(self, warmup: int = 30) -> None:
        if not matches(warmup, int):
            raise ConfigurationError(f"warmup must be an integer, got {warmup!r}")
        self._warmup = max(int(warmup), 1)
        self._count = 0
        # Observations in the mean and M2: the finite ones.
        self._finite_count = 0
        self._mean = 0.0
        self._m2 = 0.0
        # Min-heap of the SCOREBOARD_SIZE best entries; the root is the
        # weakest, the one a better score replaces.
        self._board: list[_Entry] = []

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of observations seen so far."""
        return self._count

    @property
    def mean(self) -> float:
        """Running mean of observed errors."""
        return self._mean

    @property
    def std(self) -> float:
        """Running standard deviation of observed errors."""
        if self._finite_count < 2:
            return 0.0
        return math.sqrt(self._m2 / (self._finite_count - 1))

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def observe(
        self,
        coordinate: Coordinate,
        error: float,
        event_time: float,
        detection_time: float | None = None,
    ) -> AnomalyScore:
        """Score one reconstruction error and fold it into the statistics.

        The Z-score is computed against the statistics *before* the new
        observation is added, so a huge anomaly does not dilute its own score.
        """
        error = abs(float(error))
        is_warmup = not (self._count >= self._warmup and self.std > 0.0)
        z_score = 0.0 if is_warmup else (error - self._mean) / self.std
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
        _offer(self._board, score, self._count)
        self._update_statistics(error)
        return score

    def _update_statistics(self, error: float) -> None:
        self._count += 1
        if not math.isfinite(error):
            return
        self._finite_count += 1
        delta = error - self._mean
        self._mean += delta / self._finite_count
        self._m2 += delta * (error - self._mean)

    # ------------------------------------------------------------------
    # Checkpoint state protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """Full running state as a JSON-serializable dict.

        Covers everything :meth:`observe` mutates — the observation count,
        the count of finite observations and the Welford mean/M2
        accumulators over them (float repr round-trips exactly through
        JSON), the warm-up threshold, and the scoreboard, best
        first, each entry with its observation index — so a detector
        restored with :meth:`from_state` continues on the exact same score
        stream and scoreboard as an uninterrupted one.  Its size is bounded
        by :data:`SCOREBOARD_SIZE`, not by the number of observations.
        Streaming-run checkpoints store this in their ``extra`` payload.
        """
        return {
            "warmup": self._warmup,
            "count": self._count,
            "finite_count": self._finite_count,
            "mean": self._mean,
            "m2": self._m2,
            "scoreboard": [
                {
                    "index": -negated_index,
                    "coordinate": list(score.coordinate),
                    "z_score": score.z_score,
                    "error": score.error,
                    "event_time": score.event_time,
                    "detection_time": score.detection_time,
                }
                for _, _, negated_index, score in sorted(
                    self._board, reverse=True
                )
            ],
        }

    def load_state(self, state: Mapping[str, Any]) -> None:
        """Restore the running state saved by :meth:`state_dict`.

        The payload is read as written (:func:`require_keys`): a missing,
        unknown or mistyped key, in the state or in a scoreboard entry,
        raises :class:`~repro.exceptions.CheckpointError` naming it.
        """
        require_keys(state, _STATE_KEYS, "detector state")
        board: list[_Entry] = []
        for position, entry in enumerate(state["scoreboard"]):
            require_keys(entry, _SCORE_KEYS, f"detector scoreboard entry {position}")
            score = AnomalyScore(
                coordinate=tuple(entry["coordinate"]),
                z_score=float(entry["z_score"]),
                error=float(entry["error"]),
                event_time=float(entry["event_time"]),
                detection_time=float(entry["detection_time"]),
            )
            _offer(board, score, entry["index"])
        self._warmup = max(state["warmup"], 1)
        self._count = state["count"]
        self._finite_count = state["finite_count"]
        self._mean, self._m2 = float(state["mean"]), float(state["m2"])
        self._board = board

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "ZScoreDetector":
        """Build a detector whose state continues the saved run exactly."""
        detector = cls()
        detector.load_state(state)
        return detector

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def top_k(self, k: int) -> list[AnomalyScore]:
        """The ``k`` highest-scoring observations, best first.

        Ranked by ``(z_score, error)``; equal keys put the earlier
        observation first.  Warm-up placeholders (emitted before the error
        statistics exist) are excluded: they carry no evidence and must not
        occupy scoreboard slots on short runs.  A genuine post-warm-up score
        of 0.0 stays eligible.  ``k`` must be an integer in
        ``0..SCOREBOARD_SIZE`` (:func:`scoreboard_k`).
        """
        ranked = heapq.nlargest(scoreboard_k(k), self._board)
        return [score for _, _, _, score in ranked]

    def precision_at_k(
        self, k: int, true_coordinates: set[Coordinate]
    ) -> float:
        """Fraction of the top-``k`` scoreboard whose coordinate is a true anomaly.

        The denominator is ``k`` itself, not the number of scores available:
        with fewer than ``k`` scored observations the missing slots count as
        misses, so short runs cannot silently inflate the metric.  ``k <= 0``
        gives 0.0.
        """
        if k <= 0:
            return 0.0
        top = self.top_k(k)
        hits = sum(1 for score in top if score.coordinate in true_coordinates)
        return hits / k

    def mean_detection_delay(
        self, k: int, true_coordinates: set[Coordinate]
    ) -> float:
        """Mean detection delay of the true anomalies inside the top-``k``."""
        delays = [
            score.detection_delay
            for score in self.top_k(k)
            if score.coordinate in true_coordinates
        ]
        if not delays:
            return float("nan")
        return float(sum(delays) / len(delays))
