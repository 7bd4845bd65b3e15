"""Fig. 9 — anomaly detection with SNS+_RND versus per-period baselines.

Protocol (Section VI-G of the paper): inject 20 abnormally large values into
the stream, score every observation in the newest tensor unit by the Z-score
of its reconstruction error, and report

* precision at top-20 (which equals recall here since 20 anomalies exist), and
* the average time gap between an anomaly's occurrence and its detection.

The continuous method scores each arrival the instant it happens (before
updating its factors), so its detection delay is essentially zero; the
per-period baselines can only score a completed unit at the next period
boundary, so their delay averages around half a period — the qualitative
result of Fig. 9.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from repro.anomaly.detector import SCOREBOARD_SIZE, ZScoreDetector
from repro.anomaly.injection import InjectedAnomaly, inject_anomalies
from repro.anomaly.scoring import score_batch
from repro.baselines.base import BaselineConfig
from repro.baselines.registry import create_baseline
from repro.core.base import SNSConfig
from repro.core.registry import ALGORITHMS, create_algorithm
from repro.als.als import decompose
from repro.experiments.config import ExperimentSettings
from repro.experiments.reporting import format_table
from repro.experiments.runner import method_kind, method_label
from repro.data.generators import generate_dataset
from repro.exceptions import ConfigurationError, DataGenerationError
from repro.stream.checkpoint import is_checkpoint, restore_run
from repro.stream.events import EventKind
from repro.stream.processor import ContinuousStreamProcessor
from repro.stream.window import WindowConfig


@dataclasses.dataclass(slots=True)
class AnomalyMethodResult:
    """Detection quality of one method."""

    name: str
    label: str
    kind: str
    precision_at_k: float
    mean_detection_delay: float
    n_scored: int


@dataclasses.dataclass(slots=True)
class AnomalyExperimentResult:
    """Fig. 9 outcome across methods."""

    dataset: str
    n_anomalies: int
    methods: dict[str, AnomalyMethodResult]


def run_anomaly_experiment(
    settings: ExperimentSettings | None = None,
    methods: Sequence[str] = ("sns_rnd_plus", "online_scp", "cp_stream"),
    n_anomalies: int = 20,
    magnitude_factor: float = 5.0,
    top_k: int | None = None,
    replay_periods: int = 4,
) -> AnomalyExperimentResult:
    """Run the Fig. 9 experiment on one dataset.

    The stream is replayed for ``replay_periods`` periods after the initial
    window, and the anomalies are injected into the first
    ``replay_periods - 1`` of them, so every anomaly arrives while the
    methods are streaming and at least one period boundary follows it (the
    per-period baselines can only detect at boundaries).

    ``top_k`` (default ``n_anomalies``) may not exceed the detector's
    :data:`~repro.anomaly.detector.SCOREBOARD_SIZE`.

    Checkpointing (continuous methods only — the per-period baselines carry
    no checkpointable state): with ``settings.checkpoint_dir`` set, each
    continuous method's run state *including the detector's running
    statistics and scoreboard* is saved under
    ``<checkpoint_dir>/anomaly-<method>`` every ``settings.checkpoint_events``
    events and at the end of the run.  With ``settings.resume=True`` an
    existing checkpoint there is restored and the replay continues — the
    resumed run emits the identical score stream (and hence identical
    precision@k / detection delays) as an uninterrupted one, on both the
    per-event and the batched engine.

    With ``settings.batched=True`` continuous methods are replayed through
    the batched engine (:func:`repro.anomaly.score_batch`): observed values
    stay exact per event, predictions use batch-start factors, and the
    model adapts once per batch.
    """
    settings = settings or ExperimentSettings(dataset="nyc_taxi")
    if settings.checkpoint_events is not None and settings.checkpoint_events <= 0:
        raise ConfigurationError(
            f"checkpoint_events must be positive, got {settings.checkpoint_events}"
        )
    if settings.checkpoint_dir is None and (
        settings.checkpoint_events is not None or settings.resume
    ):
        raise ConfigurationError(
            "checkpoint_events/resume require checkpoint_dir — without it "
            "no checkpoint is ever written or read"
        )
    top_k = n_anomalies if top_k is None else top_k
    if top_k > SCOREBOARD_SIZE:
        raise ConfigurationError(
            f"top_k must be at most the detector's scoreboard size "
            f"{SCOREBOARD_SIZE}, got {top_k}"
        )
    clean_stream, spec = generate_dataset(settings.dataset, scale=settings.scale)
    window_config = WindowConfig(
        mode_sizes=spec.mode_sizes,
        window_length=spec.window_length,
        period=spec.period,
    )
    # Anomalies land inside the replayed portion of the stream.
    start_time = clean_stream.start_time + window_config.span
    replay_end = start_time + replay_periods * window_config.period
    injection_end = replay_end - window_config.period
    if (
        injection_end <= start_time
        or clean_stream.end_time < replay_end
    ):
        raise DataGenerationError(
            "the stream is too short to stream past its initial window; "
            "increase the dataset scale or lower the window length"
        )
    stream, anomalies = inject_anomalies(
        clean_stream,
        n_anomalies=n_anomalies,
        magnitude_factor=magnitude_factor,
        start_time=start_time,
        end_time=injection_end,
        rng=np.random.default_rng(settings.seed),
    )
    processor = ContinuousStreamProcessor(stream, window_config, start_time=start_time)
    initial = decompose(
        processor.window.tensor,
        rank=spec.rank,
        n_iterations=settings.als_iterations,
        seed=settings.seed,
    ).decomposition

    results: dict[str, AnomalyMethodResult] = {}
    for method in methods:
        kind = method_kind(method)
        if kind == "continuous":
            detector = _run_continuous(
                stream, window_config, method, initial, spec, settings, replay_end
            )
        else:
            detector = _run_periodic(
                stream, window_config, method, initial, spec, settings, replay_end
            )
        precision, delay = _evaluate(
            detector, anomalies, top_k, window_config.period, kind
        )
        results[method] = AnomalyMethodResult(
            name=method,
            label=method_label(method),
            kind=kind,
            precision_at_k=precision,
            mean_detection_delay=delay,
            n_scored=detector.count,
        )
    return AnomalyExperimentResult(
        dataset=settings.dataset, n_anomalies=n_anomalies, methods=results
    )


def format_anomaly_experiment(result: AnomalyExperimentResult) -> str:
    """Render the Fig. 9(b) table as text."""
    rows = [
        (
            outcome.label,
            outcome.kind,
            outcome.precision_at_k,
            outcome.mean_detection_delay,
        )
        for outcome in result.methods.values()
    ]
    return format_table(
        ("method", "kind", f"precision @ top-{result.n_anomalies}", "detection delay [s]"),
        rows,
        title=f"Fig. 9 — anomaly detection on {result.dataset}",
    )


# ----------------------------------------------------------------------
# Per-family scoring loops
# ----------------------------------------------------------------------
def _run_continuous(
    stream,
    window_config: WindowConfig,
    method: str,
    initial,
    spec,
    settings: ExperimentSettings,
    replay_end: float,
) -> ZScoreDetector:
    config = SNSConfig(
        rank=spec.rank,
        theta=spec.theta,
        eta=spec.eta,
        seed=settings.seed,
        relaxed=settings.relaxed,
    )
    checkpoint_path: Path | None = None
    if settings.checkpoint_dir is not None:
        # Prefixed so an anomaly run can share a checkpoint directory with a
        # fitness run of the same method without clobbering it.
        checkpoint_path = Path(settings.checkpoint_dir) / f"anomaly-{method}"

    detector = ZScoreDetector()
    model = None
    n_events = 0
    if (
        checkpoint_path is not None
        and settings.resume
        and is_checkpoint(checkpoint_path)
    ):
        processor, model, saved = restore_run(checkpoint_path)
        if model is None or model.name != method:
            raise ConfigurationError(
                f"checkpoint at {checkpoint_path} does not hold a "
                f"{method!r} model"
            )
        if dataclasses.asdict(config) != dataclasses.asdict(model.config):
            raise ConfigurationError(
                f"checkpoint at {checkpoint_path} was taken with different "
                "hyper-parameters; rerun with the original settings or start "
                "a fresh checkpoint directory"
            )
        saved = saved or {}
        n_events = int(saved.get("n_events", 0))
        if "detector" in saved:
            detector = ZScoreDetector.from_state(saved["detector"])
    else:
        processor = ContinuousStreamProcessor(
            stream, window_config, start_time=stream.start_time + window_config.span
        )
    if model is None:
        model = create_algorithm(method, config)
        model.initialize(processor.window, initial)

    def save_state() -> None:
        # The detector's running statistics and its bounded scoreboard ride
        # in the checkpoint's extra payload, so a resumed run continues the
        # exact score stream and ranking of an uninterrupted one.
        processor.save_checkpoint(
            checkpoint_path,
            model=model,
            extra={"n_events": n_events, "detector": detector.state_dict()},
        )

    checkpoint_events = settings.checkpoint_events
    next_save = None
    if checkpoint_path is not None and checkpoint_events is not None:
        next_save = (n_events // checkpoint_events + 1) * checkpoint_events

    if settings.batched:
        for batch in processor.iter_batches(end_time=replay_end):
            score_batch(model, batch, detector)
            n_events += batch.n_events
            if next_save is not None and n_events >= next_save:
                save_state()
                next_save = (
                    n_events // checkpoint_events + 1
                ) * checkpoint_events
    else:
        for event, delta in processor.events(end_time=replay_end):
            n_events += 1
            if event.kind is EventKind.ARRIVAL:
                coordinate = delta.entries[0][0]
                observed = processor.window.tensor.get(coordinate)
                predicted = model.reconstruction_at(coordinate)
                # Score before adapting, so the anomaly cannot hide itself.
                detector.observe(
                    coordinate=coordinate,
                    error=observed - predicted,
                    event_time=event.record.time,
                    detection_time=event.time,
                )
            model.update(delta)
            if next_save is not None and n_events >= next_save:
                save_state()
                next_save = (
                    n_events // checkpoint_events + 1
                ) * checkpoint_events
    if checkpoint_path is not None:
        save_state()
    return detector


def _run_periodic(
    stream,
    window_config: WindowConfig,
    method: str,
    initial,
    spec,
    settings: ExperimentSettings,
    replay_end: float,
) -> ZScoreDetector:
    processor = ContinuousStreamProcessor(
        stream, window_config, start_time=stream.start_time + window_config.span
    )
    model = create_baseline(method, BaselineConfig(rank=spec.rank, seed=settings.seed))
    model.initialize(processor.window, initial)
    detector = ZScoreDetector()
    period = window_config.period
    next_boundary = processor.start_time + period
    newest = window_config.window_length - 1
    for event, _ in processor.events(end_time=replay_end):
        while event.time >= next_boundary:
            # Score the just-completed unit with the factors from the previous
            # boundary, then let the baseline update.
            decomposition = model.decomposition
            entries = list(processor.window.unit_entries(newest))
            if entries:
                coordinates = [coordinate for coordinate, _ in entries]
                observed = np.array([value for _, value in entries])
                predicted = decomposition.values_at(np.array(coordinates))
                for coordinate, error in zip(coordinates, observed - predicted):
                    detector.observe(
                        coordinate=coordinate,
                        error=float(error),
                        event_time=next_boundary - period / 2.0,
                        detection_time=next_boundary,
                    )
            model.update_period()
            next_boundary += period
    return detector


def _evaluate(
    detector: ZScoreDetector,
    anomalies: list[InjectedAnomaly],
    top_k: int,
    period: float,
    kind: str,
) -> tuple[float, float]:
    """Precision at top-k and mean detection delay over matched anomalies."""
    if top_k <= 0:
        return 0.0, float("nan")
    top = detector.top_k(top_k)
    if not top:
        return 0.0, float("nan")
    hits = 0
    delays: list[float] = []
    matched: set[int] = set()
    for score in top:
        categorical = score.coordinate[:-1]
        for position, anomaly in enumerate(anomalies):
            if position in matched or anomaly.indices != categorical:
                continue
            if kind == "continuous":
                is_match = abs(score.event_time - anomaly.time) < 1e-6
            else:
                gap = score.detection_time - anomaly.time
                is_match = 0.0 <= gap <= period + 1e-6
            if is_match:
                hits += 1
                matched.add(position)
                delays.append(max(score.detection_time - anomaly.time, 0.0))
                break
    # Divide by k itself (like ZScoreDetector.precision_at_k): when the
    # scoreboard holds fewer than k real scores, the empty slots count as
    # misses instead of silently inflating the metric.
    precision = hits / top_k
    delay = float(np.mean(delays)) if delays else float("nan")
    return precision, delay
