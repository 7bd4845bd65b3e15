"""Record the reference result of each library workload for a range of seeds.

Usage, from the root of a checkout::

    python3 perfbench/record_references.py FIRST LAST

Replays ``taxi_vec_events`` and ``taxi_rndplus_batched`` on every seed from
FIRST to LAST (inclusive) and writes their final fitness and factor
fingerprints to ``perfbench/references.json``.  Every benchmark run checks
its result against that file, so record again only for a change that is
meant to alter the numbers.
"""

from __future__ import annotations

import json
import sys

from common import SRC

sys.path.insert(0, str(SRC))

import taxi  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    first, last = int(argv[0]), int(argv[1])
    references: dict = {}
    for name, workload in taxi.WORKLOADS.items():
        references[name] = {}
        for seed in range(first, last + 1):
            inputs = taxi.make_inputs(seed, workload)
            model, _, _ = taxi.reference_replay(inputs, workload)
            references[name][str(seed)] = taxi.reference_record(model.fitness(), model.factors)
    taxi.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
