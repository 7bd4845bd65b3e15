"""Shared pieces of the benchmark: statistics, spans, the run record.

Nothing here imports :mod:`repro` at module level, so ``run.py`` can detect a
checkout without the package and fail before doing any work.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

#: Root of the checkout the benchmark runs in (``perfbench/..``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for checkpoints, span dumps and run records (git-ignored).
OUT = ROOT / ".perfbench_out"

#: Thread-count variables of the BLAS / OpenMP runtimes numpy may link.
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class CheckFailed(Exception):
    """An output check rejected the program's result."""


def require(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` unless ``condition`` holds."""
    if not condition:
        raise CheckFailed(message)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def pct(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation); 0.0 for no samples."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return pct(values, 50)


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size of a process in MB (``VmHWM``)."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def process_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of a process, finished threads included.

    The kernel leaves out time the hypervisor gave to other machines, so on
    a shared host this is steadier than wall time.
    """
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def cpu_ticks() -> list[int]:
    """The machine's CPU time counters (``/proc/stat``, all CPUs)."""
    with open("/proc/stat") as handle:
        return [int(field) for field in handle.readline().split()[1:]]


def steal_pct(before: list[int], after: list[int]) -> float:
    """Share of busy CPU time the hypervisor gave to other machines."""
    delta = [b - a for a, b in zip(before, after)]
    # user nice system idle iowait irq softirq steal ...
    busy = sum(delta[:3]) + sum(delta[5:8])
    return 100.0 * delta[7] / busy if len(delta) > 7 and busy else 0.0


def directory_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def relabel(records, mode_sizes, seed: int) -> list:
    """``records`` with every categorical mode's labels permuted by ``seed``.

    The benchmark's inputs come from its seed this way rather than from the
    generator's seed: a relabelled stream has the same slice sizes, so the
    same work per event, while its concrete inputs differ from seed to seed.
    Generator seeds change how concentrated the synthetic activity patterns
    are, which moved the per-event cost by up to 2x.
    """
    from repro.stream.events import StreamRecord

    rng = np.random.default_rng(seed)
    permutations = [rng.permutation(size).tolist() for size in mode_sizes]
    return [
        StreamRecord(
            indices=tuple(p[i] for p, i in zip(permutations, record.indices)),
            value=record.value,
            time=record.time,
        )
        for record in records
    ]


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory span recorder.

    A span is ``(name, start, end, parent)``; ``parent`` is the name of the
    enclosing span on the same thread, so a layer's self time is its span
    minus its children.  Spans stay in memory until :meth:`dump`.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, str | None]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._local = threading.local()

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, function):
        """``function`` with every call recorded as a ``name`` span."""
        stack_of = self._stack
        spans = self.spans
        clock = time.perf_counter

        def timed(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            stack.append(name)
            started = clock()
            try:
                return function(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                spans.append((name, started, ended, parent))

        timed.__wrapped__ = function
        return timed

    def record(self, name: str, started: float, ended: float) -> None:
        stack = self._stack()
        self.spans.append((name, started, ended, stack[-1] if stack else None))

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def durations(self, name: str, parent: str | None = "*") -> list[float]:
        """Durations (s) of the ``name`` spans, optionally under ``parent``."""
        return [
            end - start
            for span_name, start, end, span_parent in self.spans
            if span_name == name and (parent == "*" or span_parent == parent)
        ]

    def total(self, name: str, parent: str | None = "*") -> float:
        return float(sum(self.durations(name, parent)))

    def dump(self, path: Path | str, extra: dict | None = None) -> None:
        """Write the spans and counts, plus the keys of ``extra``, as JSON."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "spans": [list(span) for span in self.spans],
                    "counts": dict(self.counts),
                    **(extra or {}),
                }
            )
        )

    @classmethod
    def from_log(cls, log: dict) -> "Tracer":
        """A tracer holding the spans and counts that :meth:`dump` wrote."""
        tracer = cls()
        tracer.spans = [tuple(span) for span in log["spans"]]
        tracer.counts.update(log["counts"])
        return tracer


# ----------------------------------------------------------------------
# Run record
# ----------------------------------------------------------------------
def git_commit() -> str:
    """Commit of the checkout, or ``"unknown"`` outside a git repository."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            # Never look for a repository above the checkout.
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    """The facts a reader needs to compare two results."""
    from repro.kernels.registry import resolve_backend

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "kernel_backend": resolve_backend().name,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_ENV},
        "seed": seed,
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


class Metrics:
    """Named metric values with units, plus a note per metric for humans.

    ``values`` go into the JSON result; ``ungated`` ones are only printed and
    recorded, because their run-to-run spread on the reference machine is
    wider than any bound ``BENCHMARK.json`` may set (see METRICS.md).
    """

    def __init__(self) -> None:
        self.values: dict[str, dict] = {}
        self.ungated: dict[str, dict] = {}
        self.notes: dict[str, str] = {}

    def add(self, name: str, value: float, unit: str, note: str = "",
            gated: bool = True) -> None:
        target = self.values if gated else self.ungated
        target[name] = {"value": float(value), "unit": unit}
        if note:
            self.notes[name] = note

    def lines(self) -> list[str]:
        rows = [(name, entry, "") for name, entry in self.values.items()]
        rows += [(name, entry, "[not gated] ") for name, entry in self.ungated.items()]
        return [
            f"  {name:<36} {entry['value']:>14.6g} {entry['unit']:<6} "
            f"{tag}{self.notes.get(name, '')}".rstrip()
            for name, entry, tag in rows
        ]


def emit(workload: str, seed: int, trace: bool, metrics: Metrics, result: dict,
         details: dict) -> None:
    """Print the human-readable report, save the record, print the JSON line."""
    env = environment(seed)
    print(f"workload {workload}  seed {seed}  trace {int(trace)}")
    print("environment " + json.dumps(env, sort_keys=True))
    for key, value in details.items():
        print(f"  {key}: {value}")
    for line in metrics.lines():
        print(line)
    record = dict(result, environment=env, details=details, notes=metrics.notes,
                  ungated=metrics.ungated)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True, default=str)
    )
    sys.stdout.flush()
    print(json.dumps(result), flush=True)
