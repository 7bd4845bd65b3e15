"""``repro serve`` / ``python -m repro.service`` — run the streaming service.

Prints ``listening on <host>:<port>`` once the socket is bound (with the
resolved port, so ``--port 0`` is scriptable), then serves until SIGINT /
SIGTERM or a client ``shutdown`` op.  Shutdown is graceful: queues drain and
every stream is checkpointed before the process exits.

A serving process runs BLAS on one thread: :func:`main` defaults
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1
before numpy loads, and an explicitly exported value wins.  The per-event
solves are R x R, far below the sizes a BLAS pool parallelises, while an
idle OpenBLAS pool spins a helper thread through every server start.  This
module therefore imports nothing that loads numpy until :func:`main` has
set the variables.
"""

from __future__ import annotations

import contextlib
import os
import signal
import sys
from collections.abc import Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import argparse

#: Thread-count variables of the BLAS builds numpy may load (OpenBLAS,
#: OpenMP-threaded builds, MKL); :func:`main` defaults each to 1.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def build_parser() -> argparse.ArgumentParser:
    """Build the ``serve`` argument parser."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="slicenstitch serve",
        description=(
            "Serve many independent tensor streams with live SliceNStitch "
            "factor maintenance over a line-delimited JSON TCP protocol."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=7342, help="TCP port (0 = pick a free one)"
    )
    parser.add_argument(
        "--max-streams",
        type=int,
        default=64,
        help="admission cap on concurrently registered streams",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help=(
            "per-stream ingest queue bound; a full queue rejects further "
            "ingests with an 'overloaded' response (backpressure)"
        ),
    )
    parser.add_argument(
        "--checkpoint-root",
        default=None,
        metavar="DIR",
        help=(
            "directory of durable per-stream state; streams found there are "
            "recovered on startup, and all streams are checkpointed there "
            "on shutdown"
        ),
    )
    parser.add_argument(
        "--checkpoint-events",
        type=int,
        default=None,
        metavar="N",
        help=(
            "with --checkpoint-root: checkpoint a stream whenever N events "
            "have been applied since its last checkpoint"
        ),
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help=(
            "with --checkpoint-root: background sweep checkpointing every "
            "stream this often (0 disables)"
        ),
    )
    parser.add_argument(
        "--checkpoint-retry-backoff",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help=(
            "base delay before a failed background checkpoint is retried; "
            "doubles per consecutive failure"
        ),
    )
    parser.add_argument(
        "--checkpoint-retry-max",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="cap on the checkpoint retry backoff",
    )
    parser.add_argument(
        "--dedup-window",
        type=int,
        default=1024,
        metavar="N",
        help=(
            "recent ingest seq numbers remembered per stream for "
            "idempotent-retry dedup"
        ),
    )
    parser.add_argument(
        "--watchdog-stall",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help=(
            "flag a stream as stalled when one chunk application exceeds "
            "this long (0 disables the watchdog)"
        ),
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="FILE",
        help=(
            "JSON fault-injection plan for chaos testing; scripted faults "
            "(checkpoint write errors, apply exceptions, connection resets, "
            "stalls, overloads) fire deterministically from the plan's seed"
        ),
    )
    return parser


def _serve(argv: Sequence[str] | None) -> None:
    # These load numpy, so they are imported after main() has set the BLAS
    # variables.  argparse and asyncio come after them: without a bytecode
    # cache every import compiles its module, which needs memory for a
    # moment (about 2 MB for server.py), and compiling the service on top
    # of those two modules raised the server's peak RSS.
    from repro.service.config import ServiceConfig
    from repro.service.faults import FaultPlan
    from repro.service.manager import ServiceManager
    from repro.service.server import StreamingServer

    import asyncio

    args = build_parser().parse_args(argv)
    fault_plan = None
    if args.fault_plan is not None:
        fault_plan = FaultPlan.from_file(args.fault_plan)
    manager = ServiceManager(
        ServiceConfig(
            max_streams=args.max_streams,
            queue_limit=args.queue_limit,
            checkpoint_root=args.checkpoint_root,
            checkpoint_events=args.checkpoint_events,
            checkpoint_interval=args.checkpoint_interval,
            checkpoint_retry_backoff=args.checkpoint_retry_backoff,
            checkpoint_retry_max=args.checkpoint_retry_max,
            dedup_window=args.dedup_window,
            watchdog_stall_seconds=args.watchdog_stall,
            fault_plan=fault_plan,
        )
    )

    async def serve() -> None:
        server = StreamingServer(manager, host=args.host, port=args.port)
        host, port = await server.start()
        if fault_plan is not None:
            print(
                f"fault injection active: {len(fault_plan.rules)} rule(s), "
                f"seed {fault_plan.seed}",
                flush=True,
            )
        recovered = manager.stream_ids
        if recovered:
            print(f"recovered {len(recovered)} stream(s): {', '.join(recovered)}")
        print(f"listening on {host}:{port}", flush=True)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(signum, server.request_shutdown)
        await server.serve_until_shutdown()
        print("server stopped", flush=True)

    asyncio.run(serve())


def main(argv: Sequence[str] | None = None) -> int:
    """Console entry point for the service; runs BLAS on one thread.

    BLAS reads its thread count once, when numpy loads it, so call this
    before anything in the process has imported numpy.
    """
    for variable in BLAS_THREAD_VARIABLES:
        os.environ.setdefault(variable, "1")
    try:
        _serve(argv)
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
