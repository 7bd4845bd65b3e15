"""Performance regression gate over the committed ``BENCH_*.json`` baselines.

Compares a freshly generated results directory against the committed
baseline files and fails (exit code 1) when a watched metric regresses
beyond its tolerance.  Usage (what CI does)::

    cp -r benchmarks/results /tmp/bench-baseline   # committed numbers
    ... run the benchmarks, overwriting benchmarks/results ...
    python benchmarks/regression_gate.py \
        --baseline /tmp/bench-baseline --current benchmarks/results \
        --slack 2.5

Metric semantics
----------------
Each watched metric has a direction and a relative tolerance:

* ``higher``: fail when ``current < baseline * (1 - tolerance)``;
* ``lower``:  fail when ``current > baseline * (1 + tolerance)``.

``--slack`` multiplies every tolerance, absorbing machine-to-machine and
quick-mode (``REPRO_BENCH_SCALE < 1``) variance: committed baselines come
from one box, CI runners are another.  The gate is meant to catch *large*
regressions (an accidentally quadratic path, a dropped fast path), not to
police single-digit percentages across different hardware.

Files absent from either side are reported and skipped — a benchmark that
did not run must not turn the gate green or red by accident — unless
``--require`` names them, in which case absence fails the gate.

``--min-ratio FILE:dotted.path:VALUE`` (repeatable) additionally enforces an
*absolute* floor on a current-side metric, independent of the baseline and
of ``--slack``.  This is how CI pins acceptance bars that are relative by
construction (speedup ratios measured on the same box within one run), e.g.
the compiled-kernel leg requiring a >= 10x engine-vs-seed speedup::

    python benchmarks/regression_gate.py --current benchmarks/results \
        --min-ratio \
        BENCH_update_micro.json:randomized.sns_rnd.speedup_engine_vs_seed_per_event:10

A ``--min-ratio`` target that is missing (file or metric) fails the gate:
an explicitly demanded bar cannot be skipped.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Any


@dataclasses.dataclass(frozen=True)
class Metric:
    """One watched number inside a benchmark JSON."""

    path: str  # dotted path into the JSON payload
    direction: str  # "higher" | "lower" is better
    tolerance: float  # base relative tolerance before --slack


#: Watched metrics per committed benchmark file.  Throughput numbers get a
#: wide base tolerance (hardware-bound); wall-clock latencies wider still.
WATCHED: dict[str, tuple[Metric, ...]] = {
    # engine_replay: "sequential" is the reference per-event loop
    # (benchmarks/reference_drain.py, the loop run() ran when the older
    # baselines were recorded) and "speedup" is batched over it;
    # "per_event" is the events() engine.
    "BENCH_update_micro.json": (
        Metric("engine_replay.batched_events_per_second", "higher", 0.30),
        Metric("engine_replay.per_event_events_per_second", "higher", 0.30),
        Metric("engine_replay.speedup", "higher", 0.25),
        Metric("variants.sns_vec.batched_events_per_second", "higher", 0.30),
        Metric(
            "randomized.sns_rnd_plus.vectorized_batched_events_per_second",
            "higher",
            0.30,
        ),
    ),
    "BENCH_checkpoint.json": (
        Metric("replay_events_per_second", "higher", 0.30),
        Metric("save_seconds", "lower", 0.50),
        Metric("load_seconds", "lower", 0.50),
    ),
    "BENCH_service.json": (
        Metric("ingest.events_per_second", "higher", 0.30),
        Metric("ingest.records_per_second", "higher", 0.30),
        Metric("durability.checkpoint_all_seconds", "lower", 0.50),
        Metric("durability.recover_all_seconds", "lower", 0.50),
    ),
    # Goodput under injected faults includes retry/backoff sleeps, so it is
    # noisier than clean-path throughput: widest base tolerance.
    "BENCH_chaos.json": (
        Metric("soak.goodput_records_per_second", "higher", 0.50),
    ),
    # The relaxed-sweep throughput *ratios* are same-box by construction, so
    # only the exact-path throughput is speed-gated; the accuracy, sign and
    # speedup bars live in REQUIRED_FLAGS below.
    "BENCH_sharded.json": (
        Metric("exact.sns_vec.events_per_second", "higher", 0.30),
    ),
    # BENCH_parallel.json is intentionally not speed-gated: its speedup is
    # a function of the runner's CPU count (the committed baseline ran on a
    # 1-CPU container).  Only its correctness flag is enforced.
    # BENCH_als_sweep.json records ALS fit timings and page faults, ungated;
    # it is listed so --require can demand it, and its bit-identity flag is
    # enforced below.
    "BENCH_als_sweep.json": (),
}

#: Boolean flags that must be true on the current side whenever present.
REQUIRED_FLAGS: dict[str, tuple[str, ...]] = {
    "BENCH_parallel.json": ("results_identical",),
    "BENCH_sharded.json": (
        "deviation_within_bound",
        "no_negative_fitness",
        "meets_speedup_floor",
    ),
    "BENCH_service.json": (
        "concurrent_equals_sequential",
        "one_blas_thread",
        "checkpoint_bytes_flat",
    ),
    "BENCH_chaos.json": ("converged_to_fault_free_state",),
    "BENCH_als_sweep.json": ("bit_identical",),
}


def _lookup(payload: Any, dotted: str) -> Any:
    value = payload
    for key in dotted.split("."):
        if not isinstance(value, dict) or key not in value:
            raise KeyError(dotted)
        value = value[key]
    return value


def _load(path: Path) -> dict[str, Any] | None:
    if not path.is_file():
        return None
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise SystemExit(f"unreadable benchmark file {path}: {error}")
    if not isinstance(payload, dict):
        raise SystemExit(f"benchmark file {path} does not hold a JSON object")
    return payload


@dataclasses.dataclass(frozen=True)
class MinRatio:
    """An absolute current-side floor demanded on the command line."""

    filename: str
    path: str  # dotted path into the JSON payload
    floor: float


def parse_min_ratio(spec: str) -> MinRatio:
    """Parse one ``FILE:dotted.path:VALUE`` occurrence of ``--min-ratio``."""
    parts = spec.rsplit(":", 1)
    if len(parts) != 2 or ":" not in parts[0]:
        raise ValueError(f"expected FILE:dotted.path:VALUE, got {spec!r}")
    target, raw_floor = parts
    filename, path = target.split(":", 1)
    if not filename or not path:
        raise ValueError(f"expected FILE:dotted.path:VALUE, got {spec!r}")
    try:
        floor = float(raw_floor)
    except ValueError:
        raise ValueError(f"non-numeric floor {raw_floor!r} in {spec!r}")
    return MinRatio(filename=filename, path=path, floor=floor)


def check_min_ratios(
    current_dir: Path, min_ratios: list[MinRatio]
) -> list[str]:
    """Enforce the absolute floors; missing targets are failures."""
    failures: list[str] = []
    for demand in min_ratios:
        current = _load(current_dir / demand.filename)
        if current is None:
            failures.append(
                f"{demand.filename}: missing on the current side but a "
                f"--min-ratio demands {demand.path} >= {demand.floor:g}"
            )
            continue
        try:
            value = float(_lookup(current, demand.path))
        except KeyError:
            failures.append(
                f"{demand.filename}: no metric {demand.path!r} but a "
                f"--min-ratio demands it >= {demand.floor:g}"
            )
            continue
        ok = value >= demand.floor
        verdict = "ok  " if ok else "FAIL"
        print(
            f"  [{verdict}] {demand.filename}:{demand.path} "
            f"current={value:.6g} (absolute floor >= {demand.floor:g})"
        )
        if not ok:
            failures.append(
                f"{demand.filename}:{demand.path} below the absolute floor: "
                f"{value:.6g} < {demand.floor:g}"
            )
    return failures


def check(
    baseline_dir: Path, current_dir: Path, slack: float, required: set[str]
) -> list[str]:
    """Return a list of failure messages (empty = gate passes)."""
    failures: list[str] = []
    for filename, metrics in WATCHED.items():
        baseline = _load(baseline_dir / filename)
        current = _load(current_dir / filename)
        if baseline is None or current is None:
            side = "baseline" if baseline is None else "current"
            message = f"{filename}: missing on the {side} side; skipped"
            if filename in required:
                failures.append(message.replace("skipped", "REQUIRED"))
            else:
                print(f"  [skip] {message}")
            continue
        for metric in metrics:
            # The two sides are deliberately looked up separately: a metric
            # the baseline never had is skipped (old baseline, new metric),
            # but a metric the baseline has and the fresh run dropped is a
            # failure — a silently vanished number must not turn the gate
            # green.
            try:
                base_value = float(_lookup(baseline, metric.path))
            except KeyError:
                print(
                    f"  [skip] {filename}: baseline has no metric "
                    f"{metric.path!r}; skipped"
                )
                continue
            try:
                curr_value = float(_lookup(current, metric.path))
            except KeyError:
                message = (
                    f"{filename}: current run is missing metric "
                    f"{metric.path!r} (baseline has {base_value:.6g})"
                )
                print(f"  [FAIL] {message}")
                failures.append(message)
                continue
            tolerance = metric.tolerance * slack
            if metric.direction == "higher":
                floor = base_value * (1.0 - tolerance)
                ok = curr_value >= floor
                bound = f">= {floor:.6g}"
            else:
                ceiling = base_value * (1.0 + tolerance)
                ok = curr_value <= ceiling
                bound = f"<= {ceiling:.6g}"
            verdict = "ok  " if ok else "FAIL"
            print(
                f"  [{verdict}] {filename}:{metric.path} "
                f"current={curr_value:.6g} baseline={base_value:.6g} ({bound})"
            )
            if not ok:
                failures.append(
                    f"{filename}:{metric.path} regressed: {curr_value:.6g} "
                    f"vs baseline {base_value:.6g} (allowed {bound})"
                )
    for filename, flags in REQUIRED_FLAGS.items():
        current = _load(current_dir / filename)
        if current is None:
            continue
        for flag in flags:
            try:
                value = _lookup(current, flag)
            except KeyError:
                continue
            if value is not True:
                failures.append(f"{filename}:{flag} is {value!r}, expected true")
            else:
                print(f"  [ok  ] {filename}:{flag} is true")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path(__file__).parent / "results",
        help="directory holding the baseline BENCH_*.json files",
    )
    parser.add_argument(
        "--current",
        type=Path,
        required=True,
        help="directory holding the freshly generated BENCH_*.json files",
    )
    parser.add_argument(
        "--slack",
        type=float,
        default=1.0,
        help=(
            "multiplier on every metric tolerance (use > 1 on hardware that "
            "differs from the baseline box, or under REPRO_BENCH_SCALE quick "
            "mode)"
        ),
    )
    parser.add_argument(
        "--require",
        action="append",
        default=[],
        metavar="FILE",
        help="benchmark file that must exist on both sides (repeatable)",
    )
    parser.add_argument(
        "--min-ratio",
        action="append",
        default=[],
        metavar="FILE:dotted.path:VALUE",
        help=(
            "absolute floor on a current-side metric, checked without "
            "baseline or slack; a missing file/metric fails the gate "
            "(repeatable)"
        ),
    )
    args = parser.parse_args(argv)
    if args.slack <= 0:
        parser.error("--slack must be positive")
    try:
        min_ratios = [parse_min_ratio(spec) for spec in args.min_ratio]
    except ValueError as error:
        parser.error(f"--min-ratio: {error}")
    print(
        f"regression gate: baseline={args.baseline} current={args.current} "
        f"slack={args.slack}"
    )
    failures = check(args.baseline, args.current, args.slack, set(args.require))
    failures += check_min_ratios(args.current, min_ratios)
    if failures:
        print(f"\ngate FAILED ({len(failures)} regression(s)):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\ngate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
