"""Framework behaviour: suppressions, loading, ordering."""

from __future__ import annotations

import pytest

from analysis_helpers import lint, rule_ids
from repro.analysis.checkers import ALL_CHECKERS
from repro.analysis.checkers.determinism import DeterminismChecker
from repro.analysis.framework import all_rules, run_checkers
from repro.analysis.source import Project, SourceFile
from repro.exceptions import ConfigurationError


class TestSuppressions:
    def test_trailing_allow_comment_suppresses(self):
        result = lint(
            {
                "repro.core.x": """
                import random
                value = random.random()  # repro: allow[global-random] demo
                """
            },
            DeterminismChecker(),
        )
        assert result.clean
        assert [f.rule for f in result.suppressed] == ["global-random"]

    def test_allow_comment_on_preceding_line_suppresses(self):
        result = lint(
            {
                "repro.core.x": """
                import random
                # repro: allow[global-random] demo
                value = random.random()
                """
            },
            DeterminismChecker(),
        )
        assert result.clean

    def test_allow_comment_for_other_rule_does_not_suppress(self):
        result = lint(
            {
                "repro.core.x": """
                import random
                value = random.random()  # repro: allow[wall-clock]
                """
            },
            DeterminismChecker(),
        )
        assert rule_ids(result) == ["global-random"]

    def test_allow_comment_far_away_does_not_suppress(self):
        result = lint(
            {
                "repro.core.x": """
                import random
                # repro: allow[global-random]

                value = random.random()
                """
            },
            DeterminismChecker(),
        )
        assert rule_ids(result) == ["global-random"]

    def test_one_comment_may_allow_several_rules(self):
        result = lint(
            {
                "repro.core.x": """
                import random
                # repro: allow[wall-clock, global-random]
                value = random.random()
                """
            },
            DeterminismChecker(),
        )
        assert result.clean


class TestProjectLoading:
    def test_load_maps_paths_to_dotted_modules(self, tmp_path):
        package = tmp_path / "pkg"
        (package / "sub").mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "sub" / "mod.py").write_text("x = 1\n")
        project = Project.load(package)
        assert "pkg" in project.files
        assert "pkg.sub.mod" in project.files

    def test_unparsable_file_becomes_syntax_error_finding(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "bad.py").write_text("def broken(:\n")
        project = Project.load(package)
        result = run_checkers(project, list(ALL_CHECKERS))
        assert rule_ids(result) == ["syntax-error"]

    def test_findings_sorted_by_module_then_line(self):
        result = lint(
            {
                "repro.core.b": """
                import random
                x = random.random()
                y = random.random()
                """,
                "repro.core.a": """
                import random
                z = random.random()
                """,
            },
            DeterminismChecker(),
        )
        coordinates = [(f.module, f.line) for f in result.findings]
        assert coordinates == sorted(coordinates)


class TestRuleCatalog:
    def test_every_rule_id_is_unique(self):
        ids = [rule.id for rule in all_rules(list(ALL_CHECKERS))]
        assert len(ids) == len(set(ids))

    def test_unknown_rule_id_is_a_configuration_error(self):
        checker = DeterminismChecker()
        source = SourceFile.from_source("x = 1\n", module="repro.core.x")
        with pytest.raises(ConfigurationError):
            checker.finding("no-such-rule", source, 1, 0, "message")
