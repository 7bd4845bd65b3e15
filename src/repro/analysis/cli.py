"""``repro lint`` — run the invariant checkers over the source tree.

Exit status is 0 when no *new* findings remain after inline suppressions
and the baseline, 1 otherwise, 2 on usage/configuration errors.  The JSON
format is stable and machine-consumed by CI (uploaded as an artifact).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.baseline import (
    load_baseline,
    split_by_baseline,
    write_baseline,
)
from repro.analysis.checkers import ALL_CHECKERS
from repro.analysis.framework import all_rules, run_checkers
from repro.analysis.source import Project
from repro.exceptions import ConfigurationError


def _default_root() -> Path:
    """The installed ``repro`` package directory (lint's default target)."""
    import repro

    return Path(repro.__file__).resolve().parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "Statically check the determinism, async-safety, lock, and "
            "exception-discipline invariants of the codebase."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help=(
            "package directories to scan (default: the installed repro "
            "package)"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        metavar="FILE",
        help=(
            "baseline file of accepted findings; only findings not in the "
            "baseline fail the run (a missing file is an empty baseline)"
        ),
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite --baseline FILE from the current findings and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also report findings waived by inline allow-comments",
    )
    return parser


def _print_rules() -> None:
    for checker in ALL_CHECKERS:
        print(f"{checker.name}:")
        for rule in checker.rules:
            print(f"  {rule.id} ({rule.severity}): {rule.summary}")
            print(f"      {rule.rationale}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)

    if options.list_rules:
        _print_rules()
        return 0
    if options.update_baseline and options.baseline is None:
        parser.error("--update-baseline requires --baseline FILE")

    roots = options.paths or [_default_root()]
    files: dict = {}
    errors: list = []
    for root in roots:
        if not root.is_dir():
            print(f"repro lint: not a directory: {root}", file=sys.stderr)
            return 2
        project = Project.load(root)
        files.update(project.files)
        errors.extend(project.errors)
    project = Project(files=files, errors=errors)

    result = run_checkers(project, ALL_CHECKERS)

    try:
        baseline = (
            load_baseline(options.baseline)
            if options.baseline is not None
            else set()
        )
    except ConfigurationError as error:
        print(f"repro lint: {error}", file=sys.stderr)
        return 2
    new, baselined = split_by_baseline(result.findings, baseline)

    if options.update_baseline:
        write_baseline(options.baseline, result.findings)
        print(
            f"wrote {len(result.findings)} finding(s) to {options.baseline}"
        )
        return 0

    if options.format == "json":
        payload = {
            "files_checked": result.files_checked,
            "rules": [rule.id for rule in all_rules(ALL_CHECKERS)],
            "findings": [finding.to_dict() for finding in new],
            "baselined": [finding.to_dict() for finding in baselined],
            "suppressed": [
                finding.to_dict() for finding in result.suppressed
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        for finding in new:
            print(finding.format_text())
        if options.show_suppressed:
            for finding in result.suppressed:
                print(f"{finding.format_text()} (suppressed)")
        summary = (
            f"{result.files_checked} file(s) checked, "
            f"{len(new)} finding(s)"
        )
        if baselined:
            summary += f", {len(baselined)} baselined"
        if result.suppressed:
            summary += f", {len(result.suppressed)} suppressed"
        print(summary)

    return 0 if not new else 1


if __name__ == "__main__":
    sys.exit(main())
