"""Run ``python -m repro.service`` with timing wrappers around its layers.

Usage::

    python3 perfbench/serve_traced.py --spans OUT.json [repro.service flags...]

Behaves exactly like ``python -m repro.service``; when the server stops, the
recorded spans, counts and join logs are written to ``OUT.json``.
"""

from __future__ import annotations

import sys

from common import SRC, Tracer

sys.path.insert(0, str(SRC))

from hooks import install_service_hooks  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, service_args = argv[1], argv[2:]
    tracer = Tracer()
    log: dict = {}
    install_service_hooks(tracer, log)
    from repro.service.cli import main as serve

    try:
        return serve(service_args)
    finally:
        tracer.dump(spans_path, extra=log)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
