"""A serving process runs BLAS on one thread unless its operator says otherwise.

``python -m repro.service`` defaults ``OPENBLAS_NUM_THREADS`` and its OpenMP
and MKL equivalents to 1 before numpy loads.  Without that, numpy's OpenBLAS
starts a helper thread per extra CPU, and it splits a dot product over more
than 10,000 elements across them, so a served fitness depended on the host's
CPU count.  Every test here compares real servers started with and without
the variables, which needs a host where the default pool has a helper.
"""

from __future__ import annotations

import os

import pytest

from repro.data import generate_synthetic_stream
from repro.service.cli import BLAS_THREAD_VARIABLES

from helpers import wire_records

pytestmark = [
    pytest.mark.skipif(
        (os.cpu_count() or 1) < 2,
        reason="BLAS starts no helper thread on a single CPU",
    ),
    pytest.mark.skipif(
        not os.path.exists("/proc/self/status"),
        reason="reads thread counts from /proc",
    ),
]

WIDE_CONFIG = dict(
    mode_sizes=[300, 200],
    window_length=4,
    period=10.0,
    rank=4,
    method="sns_vec",
    seed=0,
)


def environment(**blas: str) -> dict[str, str]:
    """This process's environment without BLAS thread variables, plus ``blas``."""
    env = {
        name: value
        for name, value in os.environ.items()
        if name not in BLAS_THREAD_VARIABLES
    }
    env.update(blas)
    return env


def os_threads(server) -> int:
    """The server process's OS thread count."""
    with open(f"/proc/{server.process.pid}/status") as status:
        for line in status:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    raise AssertionError("no Threads line in /proc/<pid>/status")


def test_a_default_server_runs_one_blas_thread_unless_exported(launch):
    # Read right after "listening": main thread, numeric worker (started by
    # recovery), and whatever helper threads BLAS started when it loaded.
    default = os_threads(launch(env=environment()))
    one = os_threads(launch(env=environment(OPENBLAS_NUM_THREADS="1")))
    two = os_threads(launch(env=environment(OPENBLAS_NUM_THREADS="2")))
    assert default == one
    assert two > one


def test_served_fitness_does_not_depend_on_the_host_cpu_count(launch):
    # A low-rank stream whose initial window (all 22,000 records, t < 40)
    # holds 11,711 non-zeros, above OpenBLAS's 10,000-element threshold for
    # splitting a dot product.  The fit has to be good for the inner
    # product's last bits to reach the fitness: on uniform random records
    # both pools read the same.
    records = wire_records(
        generate_synthetic_stream(
            mode_sizes=WIDE_CONFIG["mode_sizes"],
            rank=4,
            n_records=22_000,
            period=WIDE_CONFIG["period"],
            records_per_period=5_500.0,
            seed=1,
        )
    )
    answers = []
    for env in (environment(), environment(OPENBLAS_NUM_THREADS="1")):
        server = launch(env=env)
        with server.client() as client:
            client.create_stream("wide", **WIDE_CONFIG)
            client.ingest("wide", records)
            client.start_stream("wide")
            assert client.stats("wide")["window_nnz"] > 10_000
            answers.append(client.fitness("wide")["fitness"])
    assert answers[0] == answers[1]
