"""Batch ALS: the gather-once sweep against the per-mode MTTKRP loop.

``ALS.fit`` takes its MTTKRPs from :class:`repro.als.mttkrp.MTTKRPSweep`,
which gathers each factor's rows once per solve into buffers allocated once
per fit.  The reference here is the per-mode recipe it replaced: a full
:func:`repro.als.mttkrp.mttkrp` per mode (fresh ``(nnz, R)`` temporaries
every call) and the fitness through ``KruskalTensor.fitness``.  Both run on

* the nyc_taxi window at scale 1.0 (rank 20, 10 sweeps): the initial fit of
  the repo benchmark's taxi workloads;
* the service tenant shape (8 x 6 categorical modes, window 4, rank 4,
  4 sweeps), one window per tenant of an 8-tenant server.

Every fit of the sweep must equal the reference's exactly (factors, fitness
history, sweep count, convergence flag), checked in this process.  The
timed fits run in child processes, one method per child, because the page
faults of a fit depend on what the process allocated before: glibc trims
the heap and raises its mmap threshold according to earlier frees, so two
methods sharing one heap would measure each other.  The children alternate
between the methods for ``ROUNDS`` rounds, so drift in the shared host's
speed hits both alike, and each records thread CPU time and minor page
faults (``ru_minflt``) per fit after one warm-up fit per window.  About
``nnz * R * 8 / 4096`` faults per ``(nnz, R)`` array means the array's
pages were fresh.  Timings and faults are reported, not gated; the
regression gate checks only the ``bit_identical`` flag.  Results land in
``results/BENCH_als_sweep.json`` / ``.txt``.

Run a child by hand with ``python -m benchmarks.bench_als_sweep WORKLOAD
METHOD FITS`` (``PYTHONPATH=src:.``); it prints the samples as JSON.
"""

from __future__ import annotations

import json
import math
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from benchmarks._reporting import emit, emit_json
from benchmarks.conftest import bench_scale, thread_settings

from repro.als.als import ALSConfig, ALSResult, decompose
from repro.als.initialization import initialize_factors
from repro.als.mttkrp import mttkrp
from repro.data.generators import (
    SyntheticStreamConfig,
    generate_dataset,
    generate_stream,
)
from repro.kernels import resolve_backend
from repro.stream.processor import ContinuousStreamProcessor
from repro.stream.window import WindowConfig
from repro.tensor.kruskal import KruskalTensor
from repro.tensor.products import gram, hadamard_all

REPO_ROOT = Path(__file__).resolve().parent.parent
#: Fits per method and workload at REPRO_BENCH_SCALE=1; never below 15.
BENCH_FITS = 40
MIN_FITS = 15
#: Child processes per method and workload, alternating between methods.
ROUNDS = 3
TAXI_SWEEPS = 10
#: The service tenant stream (perfbench's service_tcp workload).
TENANTS = 8
TENANT_STREAM = {
    "mode_sizes": (8, 6),
    "window_length": 4,
    "period": 10.0,
    "records_per_period": 50.0,
    "rank": 4,
    "sweeps": 4,
}


def per_mode_fit(tensor, config: ALSConfig) -> ALSResult:
    """``ALS.fit`` as the per-mode loop: a full ``mttkrp`` for every mode."""
    rng = np.random.default_rng(config.seed)
    factors = initialize_factors(tensor, config.rank, rng)
    grams = [gram(factor) for factor in factors]
    history: list[float] = []
    converged = False
    done = 0
    for iteration in range(config.n_iterations):
        for mode in range(tensor.order):
            numerator = mttkrp(tensor, factors, mode)
            hadamard_grams = hadamard_all(
                [g for other, g in enumerate(grams) if other != mode]
            )
            if config.regularization > 0:
                hadamard_grams = hadamard_grams + config.regularization * np.eye(
                    config.rank
                )
            factors[mode] = numerator @ np.linalg.pinv(hadamard_grams)
            grams[mode] = gram(factors[mode])
        history.append(KruskalTensor(factors).fitness(tensor))
        done = iteration + 1
        if (
            config.tolerance > 0
            and len(history) >= 2
            and abs(history[-1] - history[-2]) < config.tolerance
        ):
            converged = True
            break
    return ALSResult(KruskalTensor(factors), history, done, converged)


def same_result(left: ALSResult, right: ALSResult) -> bool:
    return (
        all(
            np.array_equal(a, b)
            for a, b in zip(left.decomposition.factors, right.decomposition.factors)
        )
        and left.fitness_history == right.fitness_history
        and left.n_iterations == right.n_iterations
        and left.converged == right.converged
    )


def taxi_windows():
    stream, spec = generate_dataset("nyc_taxi", scale=1.0)
    config = WindowConfig(
        mode_sizes=spec.mode_sizes,
        window_length=spec.window_length,
        period=spec.period,
    )
    window = ContinuousStreamProcessor(stream, config).window.tensor
    return [window], spec.rank, TAXI_SWEEPS


def tenant_windows():
    shape = TENANT_STREAM
    config = WindowConfig(
        mode_sizes=shape["mode_sizes"],
        window_length=shape["window_length"],
        period=shape["period"],
    )
    n_records = int(shape["window_length"] * shape["records_per_period"] * 1.5)
    windows = []
    for tenant in range(TENANTS):
        stream = generate_stream(
            SyntheticStreamConfig(
                mode_sizes=shape["mode_sizes"],
                rank=3,
                n_records=n_records,
                period=shape["period"],
                records_per_period=shape["records_per_period"],
                seed=100 + tenant,
            )
        )
        windows.append(ContinuousStreamProcessor(stream, config).window.tensor)
    return windows, shape["rank"], shape["sweeps"]


WORKLOADS = {"nyc_taxi": taxi_windows, "service_tenant": tenant_windows}
METHODS = {
    "sweep": lambda tensor, rank, sweeps: decompose(
        tensor, rank=rank, n_iterations=sweeps, seed=0
    ),
    "per_mode": lambda tensor, rank, sweeps: per_mode_fit(
        tensor, ALSConfig(rank=rank, n_iterations=sweeps, seed=0)
    ),
}


def fit_samples(workload: str, method: str, n_fits: int) -> dict[str, list]:
    """CPU ms and minor faults of ``n_fits`` fits, in this process."""
    windows, rank, sweeps = WORKLOADS[workload]()
    fit = METHODS[method]
    for tensor in windows:
        fit(tensor, rank, sweeps)
    samples: dict[str, list] = {"cpu_ms": [], "minflt": []}
    for position in range(n_fits):
        tensor = windows[position % len(windows)]
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        started = time.thread_time()
        fit(tensor, rank, sweeps)
        samples["cpu_ms"].append((time.thread_time() - started) * 1e3)
        samples["minflt"].append(
            resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        )
    return samples


def child_samples(workload: str, method: str, n_fits: int) -> dict[str, list]:
    command = [sys.executable, "-m", "benchmarks.bench_als_sweep"]
    completed = subprocess.run(
        command + [workload, method, str(n_fits)],
        cwd=REPO_ROOT,
        check=True,
        capture_output=True,
        text=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def quartiles(samples) -> dict[str, float]:
    p25, p50, p75 = np.percentile(samples, [25, 50, 75])
    return {"p25": float(p25), "median": float(p50), "p75": float(p75)}


def summarize(label, windows, rank, sweeps, samples, lines):
    entry = {
        "shape": list(windows[0].shape),
        "nnz": [window.nnz for window in windows],
        "rank": rank,
        "sweeps": sweeps,
        "fits": len(samples["sweep"]["cpu_ms"]),
        "rounds": ROUNDS,
    }
    lines.append(
        f"{label}: shape {windows[0].shape}, nnz {entry['nnz']}, rank {rank}, "
        f"{sweeps} sweeps, {entry['fits']} fits per method in {ROUNDS} rounds"
    )
    for name, columns in samples.items():
        cpu = quartiles(columns["cpu_ms"])
        faults = quartiles(columns["minflt"])
        entry[name] = {
            "cpu_ms": cpu,
            "cpu_spread": (cpu["p75"] - cpu["p25"]) / cpu["median"],
            "minflt": faults,
        }
        lines.append(
            f"  {name:9s} CPU ms/fit {cpu['median']:8.3f} "
            f"[{cpu['p25']:.3f}, {cpu['p75']:.3f}]   minor faults/fit "
            f"{faults['median']:7.0f} [{faults['p25']:.0f}, {faults['p75']:.0f}]"
        )
    entry["per_mode_over_sweep_cpu"] = (
        entry["per_mode"]["cpu_ms"]["median"] / entry["sweep"]["cpu_ms"]["median"]
    )
    lines.append(
        f"  per-mode / sweep median CPU: {entry['per_mode_over_sweep_cpu']:.2f}x"
    )
    return entry


def test_als_sweep_against_per_mode_loop():
    n_fits = max(MIN_FITS, int(BENCH_FITS * bench_scale()))
    per_round = math.ceil(n_fits / ROUNDS)
    lines = ["ALS fit: gather-once sweep vs per-mode MTTKRP loop", ""]
    payload = {
        "thread_context": thread_settings(),
        "kernel_backend": resolve_backend().name,
        "als_backend": "numpy",
        "gated": False,
        "workloads": {},
    }
    identical = True
    for label, build in WORKLOADS.items():
        windows, rank, sweeps = build()
        same = all(
            same_result(
                METHODS["sweep"](tensor, rank, sweeps),
                METHODS["per_mode"](tensor, rank, sweeps),
            )
            for tensor in windows
        )
        identical &= same
        samples = {name: {"cpu_ms": [], "minflt": []} for name in METHODS}
        for _ in range(ROUNDS):
            for name in METHODS:
                for column, values in child_samples(label, name, per_round).items():
                    samples[name][column] += values
        payload["workloads"][label] = summarize(
            label, windows, rank, sweeps, samples, lines
        )
        lines += [f"  bit-identical: {same}", ""]
    payload["bit_identical"] = bool(identical)
    lines.append(
        f"cpu_count {payload['thread_context']['cpu_count']}, kernel backend "
        f"{payload['kernel_backend']} (ALS always runs the numpy reference)"
    )
    emit_json("BENCH_als_sweep", payload)
    emit("BENCH_als_sweep", "\n".join(lines))
    assert identical, "the sweep's fits differ from the per-mode loop's"


if __name__ == "__main__":
    if len(sys.argv) == 4:
        print(json.dumps(fit_samples(sys.argv[1], sys.argv[2], int(sys.argv[3]))))
    else:
        test_als_sweep_against_per_mode_loop()
