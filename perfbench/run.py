"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload taxi_vec_events --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are the same numbers for humans, with sample counts and the environment.
A full record is written to ``.perfbench_out/``.  Workloads and metrics are
described in ``perfbench/METRICS.md``.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import SRC, CheckFailed, emit

WORKLOADS = ("taxi_vec_events", "taxi_rndplus_batched", "service_tcp")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "service_tcp":
        import service_load as module
    else:
        import taxi as module
    try:
        metrics, result, details = module.run(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except CheckFailed as error:
        print(f"output check failed: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    emit(args.workload, args.seed, bool(args.trace), metrics,
         dict(result, metrics=metrics.values), details)
    return 0


if __name__ == "__main__":
    sys.exit(main())
