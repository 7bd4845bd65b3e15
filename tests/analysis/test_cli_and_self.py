"""The ``repro lint`` CLI, and the self-check that the tree is clean."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.analysis.checkers import ALL_CHECKERS
from repro.analysis.cli import main as lint_main
from repro.analysis.framework import run_checkers
from repro.analysis.source import Project

PACKAGE_ROOT = Path(repro.__file__).resolve().parent

FLAWED = """
import random

def f():
    return random.random()
"""


def write_package(tmp_path: Path, source: str = FLAWED) -> Path:
    package = tmp_path / "repro_fixture" / "core"
    package.mkdir(parents=True)
    (package / "flawed.py").write_text(source)
    return package.parent


class TestSelfCheck:
    def test_shipped_tree_is_lint_clean(self):
        """The gate the CI job enforces: zero findings on our own code."""
        result = run_checkers(Project.load(PACKAGE_ROOT), list(ALL_CHECKERS))
        assert result.clean, "\n" + "\n".join(
            finding.format_text() for finding in result.findings
        )

    def test_cli_is_clean_on_shipped_tree(self, capsys):
        assert lint_main([str(PACKAGE_ROOT)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out


class TestCli:
    def test_findings_fail_with_exit_one(self, tmp_path, capsys):
        root = write_package(tmp_path)
        # The fixture module is named repro_fixture.core.flawed, which is
        # not inside the repro.* scopes — but global-random applies
        # everywhere, so the run still fails.
        assert lint_main([str(root)]) == 1
        out = capsys.readouterr().out
        assert "global-random" in out

    def test_json_format_is_machine_readable(self, tmp_path, capsys):
        root = write_package(tmp_path)
        assert lint_main([str(root), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"files_checked", "rules", "findings", "suppressed"}
        assert payload["files_checked"] == 1
        [finding] = payload["findings"]
        assert finding["rule"] == "global-random"
        assert finding["module"] == "repro_fixture.core.flawed"
        assert finding["line"] == 5

    def test_there_is_no_baseline_to_accept_findings(self, tmp_path, capsys):
        # Every accepted deviation is an inline allow-comment; any other
        # finding fails the run.
        root = write_package(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            lint_main([str(root), "--baseline", str(tmp_path / "baseline.json")])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --baseline" in capsys.readouterr().err

    def test_update_baseline_is_a_usage_error(self, tmp_path, capsys):
        root = write_package(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            lint_main([str(root), "--update-baseline"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --update-baseline" in capsys.readouterr().err

    def test_help_names_no_baseline(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            lint_main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert "--show-suppressed" in out
        assert "baseline" not in out

    def test_json_reports_an_allowed_finding_as_suppressed(self, tmp_path, capsys):
        root = write_package(
            tmp_path,
            source=(
                "import random\n"
                "value = random.random()  # repro: allow[global-random] demo\n"
            ),
        )
        assert lint_main([str(root), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"files_checked", "rules", "findings", "suppressed"}
        assert payload["findings"] == []
        [waived] = payload["suppressed"]
        assert waived["rule"] == "global-random"
        assert waived["line"] == 2

    def test_missing_directory_is_usage_error(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "nowhere")]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_list_rules_prints_the_catalog(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "global-random",
            "wall-clock",
            "set-iteration",
            "blocking-call",
            "sleep-under-lock",
            "lock-discipline",
            "broad-except",
        ):
            assert rule_id in out
        assert "kernel-" not in out

    def test_show_suppressed_reports_waived_findings(self, tmp_path, capsys):
        root = write_package(
            tmp_path,
            source=(
                "import random\n"
                "# repro: allow[global-random] demo\n"
                "value = random.random()\n"
            ),
        )
        assert lint_main([str(root), "--show-suppressed"]) == 0
        out = capsys.readouterr().out
        assert "(suppressed)" in out
        assert "1 suppressed" in out
