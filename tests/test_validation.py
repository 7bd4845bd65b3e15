"""One type rule for every config and every stream record (``repro.validation``).

Each config is built from valid keyword arguments with one field replaced.
An integer field refuses a float and a bool, a float field refuses NaN, ±inf
and a bool, and every refusal is a ``ConfigurationError`` naming the field.
A numpy integer is accepted and stored as a plain ``int``.  The tensor API's
checked way in for caller-built coordinates and sizes, ``MultiAspectStream``
and ``ZScoreDetector`` (and its saved state) follow the same rule.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest

from repro.als.als import ALSConfig
from repro.anomaly.detector import ZScoreDetector
from repro.baselines.base import BaselineConfig
from repro.core.base import SNSConfig
from repro.data.generators import SyntheticStreamConfig
from repro.exceptions import CheckpointError, ConfigurationError, ShapeError
from repro.experiments.config import ExperimentSettings
from repro.service.config import ServiceConfig, StreamConfig
from repro.service.faults import FaultPlan, FaultRule
from repro.stream.deltas import Delta
from repro.stream.events import EventKind, StreamRecord
from repro.stream.window import TensorWindow, WindowConfig
from repro.tensor.sparse import SparseTensor
from repro.validation import matches

#: Per config: valid keyword arguments, then its integer fields, its fields
#: of integer lists and its float fields, each with a valid value.
CONFIGS = {
    WindowConfig: (
        dict(mode_sizes=(4, 3), window_length=2, period=10.0),
        {"window_length": 2},
        {"mode_sizes": (4, 3)},
        {"period": 10.0},
    ),
    SNSConfig: (
        dict(rank=3),
        {"rank": 3, "theta": 5, "seed": 1},
        {},
        {"eta": 50.0, "regularization": 1e-9},
    ),
    ALSConfig: (
        dict(rank=3),
        {"rank": 3, "n_iterations": 2, "seed": 1},
        {},
        {"tolerance": 1e-4, "regularization": 1e-9},
    ),
    BaselineConfig: (
        dict(rank=3),
        {"rank": 3, "n_iterations": 2, "seed": 1},
        {},
        {
            "forgetting": 0.9,
            "learning_rate": 1e-3,
            "momentum": 0.2,
            "regularization": 1e-9,
        },
    ),
    SyntheticStreamConfig: (
        dict(mode_sizes=(4, 3)),
        {"rank": 2, "n_records": 50, "seed": 1},
        {"mode_sizes": (4, 3)},
        {
            "period": 10.0,
            "records_per_period": 5.0,
            "concentration": 0.5,
            "background_rate": 0.1,
        },
    ),
    ExperimentSettings: (
        dict(checkpoint_dir="unused"),
        {
            "max_events": 10,
            "n_checkpoints": 2,
            "als_iterations": 2,
            "seed": 1,
            "checkpoint_events": 5,
            "n_workers": 2,
        },
        {},
        {"scale": 0.5},
    ),
    StreamConfig: (
        dict(mode_sizes=(4, 3), window_length=2, period=10.0, rank=2),
        {
            "window_length": 2,
            "rank": 2,
            "theta": 5,
            "seed": 1,
            "als_iterations": 2,
            "detector_warmup": 5,
        },
        {"mode_sizes": (4, 3)},
        {"period": 10.0, "eta": 50.0, "regularization": 1e-9, "batch_window": 1.0},
    ),
    ServiceConfig: (
        dict(),
        {
            "max_streams": 2,
            "queue_limit": 2,
            "checkpoint_events": 5,
            "dedup_window": 8,
        },
        {},
        {
            "checkpoint_interval": 1.0,
            "checkpoint_retry_backoff": 0.5,
            "checkpoint_retry_max": 2.0,
            "watchdog_stall_seconds": 1.0,
        },
    ),
    FaultRule: (
        dict(site="apply", hits=(1,)),
        {"limit": 2},
        {"hits": (1, 3)},
        {"probability": 0.5, "delay": 0.1},
    ),
    FaultPlan: (dict(), {"seed": 3}, {}, {}),
    StreamRecord: (
        dict(indices=(1, 2), value=1.0, time=5.0),
        {},
        {"indices": (1, 2)},
        {"value": 2.0, "time": 7.0},
    ),
}


def cases(section: int, bad_values) -> list:
    return [
        pytest.param(cls, field, bad, id=f"{cls.__name__}.{field}={bad!r}")
        for cls, tables in CONFIGS.items()
        for field, valid in tables[section].items()
        for bad in bad_values(valid)
    ]


def build(cls, **fields):
    return cls(**{**CONFIGS[cls][0], **fields})


@pytest.mark.parametrize(
    "cls, field, bad",
    cases(1, lambda valid: [valid + 0.5, True])
    + cases(2, lambda valid: [(valid[0] + 0.5, *valid[1:]), (True, *valid[1:])])
    + cases(3, lambda valid: [math.nan, math.inf, -math.inf, True]),
)
def test_a_mistyped_field_is_refused_by_name(cls, field, bad):
    with pytest.raises(ConfigurationError, match=rf"^{field} must be "):
        build(cls, **{field: bad})


@pytest.mark.parametrize("cls, field, valid", cases(1, lambda valid: [valid]))
def test_a_numpy_integer_is_stored_as_int(cls, field, valid):
    value = getattr(build(cls, **{field: np.int64(valid)}), field)
    assert type(value) is int and value == valid


@pytest.mark.parametrize("cls, field, valid", cases(2, lambda valid: [valid]))
def test_an_integer_list_is_stored_as_a_tuple_of_ints(cls, field, valid):
    value = getattr(build(cls, **{field: [np.int64(n) for n in valid]}), field)
    assert value == valid and all(type(n) is int for n in value)


@pytest.mark.parametrize("cls, field, valid", cases(3, lambda valid: [valid]))
def test_a_float_field_stores_a_float(cls, field, valid):
    value = getattr(build(cls, **{field: np.float32(valid)}), field)
    assert type(value) is float and value == float(np.float32(valid))


@pytest.mark.parametrize("bad", [math.nan, math.inf, True])
def test_a_float_list_refuses_a_mistyped_item(bad):
    # A tuple of floats is never taken as it is: each item is checked finite.
    with pytest.raises(ConfigurationError, match=r"^value_choices must be "):
        SyntheticStreamConfig(mode_sizes=(4, 3), value_choices=(1.0, bad))


def test_a_float_field_takes_an_integer():
    config = WindowConfig(mode_sizes=(4, 3), window_length=2, period=np.int64(10))
    assert type(config.period) is float and config.period == 10.0


def test_a_window_is_refused_not_truncated():
    with pytest.raises(ConfigurationError, match="mode_sizes must be"):
        WindowConfig(mode_sizes=(8.9, 6), window_length=2.7, period=10.0)
    with pytest.raises(ConfigurationError, match="window_length must be"):
        WindowConfig(mode_sizes=(8, 6), window_length=2.7, period=10.0)


def test_a_fractional_rank_is_refused_at_construction():
    with pytest.raises(ConfigurationError, match="rank must be an integer, got 2.5"):
        SNSConfig(rank=2.5)


def test_a_config_with_numpy_integers_serialises():
    config = StreamConfig(
        mode_sizes=[8, 6], window_length=np.int64(4), period=10.0, rank=4
    )
    payload = json.loads(json.dumps(config.to_dict()))
    assert StreamConfig.from_dict(payload) == config


@pytest.mark.parametrize(
    "fields",
    [
        dict(indices=(2.7, 1), value=1.0, time=5.0),
        dict(indices=(True, 0), value=True, time=5.0),
        dict(indices=("3", 0), value="1.5", time="5"),
    ],
)
def test_a_record_is_refused_not_truncated(fields):
    with pytest.raises(ConfigurationError, match="must be"):
        StreamRecord(**fields)


def test_a_stream_from_float_index_arrays_is_refused():
    from repro.stream.stream import MultiAspectStream

    with pytest.raises(ConfigurationError, match="indices must be"):
        MultiAspectStream.from_arrays(
            np.array([[2.7, 1.0]]), np.array([1.0]), np.array([5.0])
        )


@pytest.mark.parametrize(
    "value, kind, expected",
    [
        (-math.inf, float, True),  # a saved fitness series may hold -inf
        (math.nan, float | None, True),
        ([1, -math.inf], list[float], True),
        (True, int, False),
        ((1, 2), list[int], False),  # JSON arrays are lists
        ([1, 2], tuple[int, ...], True),
        (np.int64(3), int, True),
    ],
)
def test_saved_json_admits_non_finite_numbers(value, kind, expected):
    assert matches(value, kind) is expected


def _added(coordinate):
    tensor = SparseTensor((3, 3))
    tensor.add(coordinate, 1.0)
    return tensor


def _set(coordinate):
    tensor = SparseTensor((3, 3))
    tensor.set(coordinate, 2.0)
    return tensor


def _read(coordinate):
    tensor = SparseTensor((3, 3), entries={(1, 1): 4.0})
    assert tensor.get(coordinate) == 4.0
    return tensor


def _window():
    return TensorWindow(WindowConfig(mode_sizes=(3, 3), window_length=2, period=1.0))


def _entry_added(categorical):
    window = _window()
    window.add_entry(categorical, 1, 1.0)
    return window.tensor


def _delta_applied(coordinate):
    window = _window()
    record = StreamRecord(indices=(0, 1), value=1.0, time=0.0)
    window.apply_delta(Delta(((coordinate, 1.0),), record, 0, EventKind.ARRIVAL))
    return window.tensor


@pytest.mark.parametrize(
    "call, bad, good",
    [
        pytest.param(_added, (0.7, 1), (np.int64(0), 1), id="add"),
        pytest.param(_set, (True, 1), (np.int64(1), 1), id="set"),
        pytest.param(_read, (1.9, 1), (np.int64(1), np.int32(1)), id="get"),
        pytest.param(SparseTensor, (2.9, 3), (np.int64(2), 3), id="shape"),
        pytest.param(SparseTensor, ("2", 3), (2, np.uint8(3)), id="shape-str"),
        pytest.param(_entry_added, (0.7, 1), (np.int64(0), 1), id="add_entry"),
        pytest.param(
            _delta_applied, (0, 1.0, 1), (0, np.int64(1), 1), id="apply_delta"
        ),
    ],
)
def test_a_coordinate_is_refused_not_truncated(call, bad, good):
    offending = next(i for i in bad if type(i) is not int)
    with pytest.raises(ShapeError, match=re.escape(repr(offending))):
        call(bad)
    tensor = call(good)
    assert all(type(n) is int for n in tensor.shape)
    assert all(type(i) is int for key in tensor.coordinates() for i in key)


@pytest.mark.parametrize("warmup", [2.7, True, "5"])
def test_a_detector_warmup_is_refused_not_truncated(warmup):
    with pytest.raises(ConfigurationError, match="warmup must be an integer"):
        ZScoreDetector(warmup=warmup)


@pytest.mark.parametrize(
    "key, value",
    [("count", 2.5), ("warmup", True), ("mean", "0.5"), ("bogus", 1)],
)
def test_a_detector_state_is_read_as_written(key, value):
    state = {**ZScoreDetector(warmup=3).state_dict(), key: value}
    with pytest.raises(CheckpointError, match=key):
        ZScoreDetector.from_state(state)


def test_a_scoreboard_entry_is_read_as_written():
    detector = ZScoreDetector(warmup=1)
    for error in (1.0, 2.0, 9.0):
        detector.observe((0, 1), error, 0.0)
    state = detector.state_dict()
    state["scoreboard"][0]["coordinate"] = [0.5, 1]
    with pytest.raises(CheckpointError, match="coordinate"):
        ZScoreDetector.from_state(state)


def test_a_stream_is_refused_not_truncated():
    from repro.stream.stream import MultiAspectStream

    records = [StreamRecord(indices=(1, 2), value=1.0, time=float(t)) for t in range(3)]
    with pytest.raises(ShapeError, match="8.9"):
        MultiAspectStream(records, mode_sizes=(8.9, 6))
    stream = MultiAspectStream(records, mode_sizes=(np.int64(8), 6))
    assert stream.mode_sizes == (8, 6) and type(stream.mode_sizes[0]) is int
    with pytest.raises(ShapeError, match="1.7"):
        stream.head(1.7)
    assert len(stream.head(np.int64(1))) == 1
