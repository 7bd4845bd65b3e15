"""Fast tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest perfbench/selftest.py -q

Each workload runs at a smoke size and must emit every metric that
``BENCHMARK.json`` names, with its unit; each output check must reject a
deliberately corrupted result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from common import OUT, ROOT, SRC, CheckFailed

sys.path.insert(0, str(SRC))

import service_load  # noqa: E402
import taxi  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def small_taxi(name: str) -> taxi.TaxiWorkload:
    workload = taxi.WORKLOADS[name]
    # Its own name, so no reference recorded for the full size applies.
    return dataclasses.replace(
        workload, name=f"{name}_smoke", n_events=600, scale=0.2,
        window_ops=max(workload.window_ops // 10, 2),
    )


#: End-to-end metrics every workload prints without a bound (see METRICS.md).
UNGATED = {"setup_wall_s", "events_per_cpu_s", "events_per_s", "op_ms_p50", "op_ms_tail",
           "read_ms_p50", "read_ms_tail", "drain_s"}


def assert_metrics(metrics, section: str) -> None:
    expected = {entry["name"]: entry["unit"] for entry in BENCHMARK[section]}
    emitted = {name: entry["unit"] for name, entry in metrics.values.items()}
    assert emitted == expected
    assert all(np.isfinite(entry["value"]) for entry in metrics.values.values())
    if section == "end_to_end":
        assert UNGATED <= set(metrics.ungated)
        assert all(entry["value"] > 0 for entry in metrics.ungated.values())


@pytest.mark.parametrize("name", list(taxi.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_taxi_workload_emits_every_metric(name, trace, monkeypatch):
    monkeypatch.setattr(taxi, "READ_EVERY", 40)  # several reads in a smoke-size pass
    metrics, result, _ = taxi.run(name, 3, 0.5, trace, workload=small_taxi(name))
    assert result["correct"] and result["attempted"] > 0 and result["failed"] == 0
    assert_metrics(metrics, "per_layer" if trace else "end_to_end")
    if not trace:
        assert all(entry["value"] > 0 for entry in metrics.values.values())


@pytest.mark.parametrize("trace", [False, True])
def test_service_workload_emits_every_metric(trace):
    plan = service_load.make_plan(3, 2.0, tenants=2)
    metrics, result, _ = service_load.run("service_tcp", 3, 2.0, trace, plan=plan)
    assert result["correct"] and result["attempted"] > 0 and result["failed"] == 0
    assert_metrics(metrics, "per_layer" if trace else "end_to_end")
    if not trace:
        assert all(entry["value"] > 0 for entry in metrics.values.values())


@pytest.mark.parametrize("name", list(taxi.WORKLOADS))
def test_taxi_check_rejects_corrupted_results(name, tmp_path):
    workload = small_taxi(name)
    inputs = taxi.make_inputs(5, workload)
    model, _, arrivals = taxi.reference_replay(inputs, workload)
    reference = (model.factors, float(model.fitness()), arrivals, workload)

    def fresh():
        return taxi.run_pass(inputs, workload, None, tmp_path / "checkpoint")

    taxi.check_passes([fresh()], *reference)
    corrupt_fitness = fresh()
    corrupt_fitness.fitness = np.nextafter(corrupt_fitness.fitness, 1.0)
    corrupt_factors = fresh()
    corrupt_factors.factors[0][0, 0] += 1e-12
    short = fresh()
    short.n_events -= 1
    for result in (corrupt_fitness, corrupt_factors, short):
        with pytest.raises(CheckFailed):
            taxi.check_passes([result], *reference)
    if workload.engine == "batched":
        missed = fresh()
        missed.n_scores -= 1
        with pytest.raises(CheckFailed):
            taxi.check_passes([missed], *reference)


@pytest.mark.parametrize("name", list(taxi.WORKLOADS))
def test_reference_check_rejects_a_changed_result(name):
    workload = small_taxi(name)
    model, _, _ = taxi.reference_replay(taxi.make_inputs(5, workload), workload)
    fitness, factors = float(model.fitness()), model.factors
    recorded = taxi.reference_record(fitness, factors)
    assert taxi.check_reference(recorded, fitness, factors) == "bit-identical"
    assert taxi.check_reference(None, fitness, factors).startswith("no recorded")
    rounded = [f.copy() for f in factors]
    rounded[0][0, 0] = np.nextafter(rounded[0][0, 0], np.inf)
    assert taxi.check_reference(recorded, fitness, rounded).startswith("within")
    changed = [f.copy() for f in factors]
    changed[0][0, 0] += 1e-3
    with pytest.raises(CheckFailed):
        taxi.check_reference(recorded, fitness, changed)
    with pytest.raises(CheckFailed):
        taxi.check_reference(recorded, fitness * (1 + 1e-5), factors)


@pytest.mark.parametrize("name", list(taxi.WORKLOADS))
def test_recorded_reference_matches_a_fresh_replay(name):
    workload = taxi.WORKLOADS[name]
    recorded = taxi.recorded_reference(name, 0)
    assert recorded is not None, "references.json has no entry for seed 0"
    model, _, _ = taxi.reference_replay(taxi.make_inputs(0, workload), workload)
    assert taxi.check_reference(recorded, float(model.fitness()), model.factors) == (
        "bit-identical"
    )


def test_service_check_rejects_corrupted_results():
    plan = service_load.make_plan(4, 2.0, tenants=2)
    tenant = plan.tenants[0]
    reference = service_load.reference_factors(plan, tenant)
    applied = {t: service_load.offline_fitness(plan, t)[1] for t in plan.tenants}
    fitness = {t: 0.5 for t in plan.tenants}

    def counters(**changes):
        return dict({"failed": 0, "deferred": 0, "errors": []}, **changes)

    served = [f.tolist() for f in reference]
    service_load.check_service(plan, served, applied, fitness, counters(), reference)
    changed = [f.copy() for f in reference]
    changed[1][0, 0] = np.nextafter(changed[1][0, 0], np.inf)
    cases = [
        ([f.tolist() for f in changed], applied, fitness, counters()),
        (served, dict(applied, **{tenant: applied[tenant] + 1}), fitness, counters()),
        (served, applied, dict(fitness, **{tenant: float("nan")}), counters()),
        (served, applied, fitness, counters(deferred=1)),
        (served, applied, fitness, counters(failed=1, errors=["ingest: overloaded"])),
    ]
    for case_served, case_applied, case_fitness, case_counters in cases:
        with pytest.raises(CheckFailed):
            service_load.check_service(
                plan, case_served, case_applied, case_fitness, case_counters, reference
            )


def test_read_loop_counts_wire_errors_as_failed():
    class BrokenClient:
        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            pass

        def request(self, op, **fields):
            raise ConnectionResetError("reset by peer")

    class BrokenServer:
        def connect(self):
            return BrokenClient()

    schedule = [(0.0, "fitness", "tenant-0", 0), (0.0, "factors", "tenant-1", 0)]
    results, counters = [], {"failed": 0, "errors": []}
    service_load.read_loop(BrokenServer(), schedule, results, counters)
    assert len(results) == len(schedule)
    assert counters["failed"] == len(schedule)


def test_expected_events_match_a_window_replay():
    plan = service_load.make_plan(6, 2.0, tenants=2)
    for tenant in plan.tenants:
        records = plan.warm[tenant] + [r for c in plan.chunks[tenant] for r in c]
        expected = service_load.expected_events(
            records, service_load.STREAM["window_length"], service_load.STREAM["period"]
        )
        assert expected == service_load.offline_fitness(plan, tenant)[1]


def test_run_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "taxi_vec_events",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


def teardown_module():
    shutil.rmtree(OUT, ignore_errors=True)
