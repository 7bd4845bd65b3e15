"""Checker base class and the lint driver.

A :class:`Checker` owns a set of :class:`~repro.analysis.findings.Rule`\\ s
and yields :class:`~repro.analysis.findings.Finding`\\ s for each file of a
:class:`~repro.analysis.source.Project` (override :meth:`Checker.check_file`).

:func:`run_checkers` is the driver: it runs every checker, routes each
finding through its file's inline ``# repro: allow[rule]`` suppressions,
and returns the partitioned result.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Sequence

from repro.analysis.findings import Finding, Rule
from repro.analysis.source import Project, SourceFile
from repro.exceptions import ConfigurationError


class Checker:
    """One family of enforced invariants."""

    #: Short machine name of the checker (CLI filtering, reports).
    name: str = ""
    #: The rules this checker can emit, keyed for --list-rules.
    rules: tuple[Rule, ...] = ()

    def rule(self, rule_id: str) -> Rule:
        for rule in self.rules:
            if rule.id == rule_id:
                return rule
        raise ConfigurationError(
            f"checker {self.name!r} has no rule {rule_id!r}"
        )

    def finding(
        self,
        rule_id: str,
        source: SourceFile,
        line: int,
        col: int,
        message: str,
    ) -> Finding:
        """Build a finding for one of this checker's rules."""
        rule = self.rule(rule_id)
        return Finding(
            rule=rule.id,
            severity=rule.severity,
            module=source.module,
            path=source.path,
            line=line,
            col=col,
            message=message,
        )

    def check_file(self, source: SourceFile) -> Iterable[Finding]:
        return ()


@dataclasses.dataclass(slots=True)
class LintResult:
    """Outcome of one lint run, suppressions already applied."""

    #: Findings that count against the run, sorted most-severe first.
    findings: list[Finding]
    #: Findings waived by an inline ``# repro: allow[...]`` comment.
    suppressed: list[Finding]
    files_checked: int

    @property
    def clean(self) -> bool:
        return not self.findings


def run_checkers(
    project: Project, checkers: Sequence[Checker]
) -> LintResult:
    """Run every checker over the project and apply inline suppressions."""
    active: list[Finding] = list(project.errors)
    suppressed: list[Finding] = []
    for checker in checkers:
        for source in project:
            for finding in checker.check_file(source):
                if source.is_suppressed(finding):
                    suppressed.append(finding)
                else:
                    active.append(finding)
    active.sort(key=Finding.sort_key)
    suppressed.sort(key=Finding.sort_key)
    return LintResult(
        findings=active, suppressed=suppressed, files_checked=len(project)
    )


def all_rules(checkers: Sequence[Checker]) -> list[Rule]:
    """Every rule of ``checkers``, in checker order."""
    rules: list[Rule] = []
    for checker in checkers:
        rules.extend(checker.rules)
    return rules
