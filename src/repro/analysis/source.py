"""Source loading: files, modules, parse trees, parents, suppressions.

A :class:`SourceFile` bundles everything a checker needs about one module:
its dotted name, raw text, parsed AST, a child->parent node map (for the
lexical-scope questions the checkers ask — "is this call inside an ``async
with ... lock`` block?"), and the inline suppressions.

Suppressions
------------
A finding on line ``N`` is suppressed when line ``N`` (trailing) or line
``N - 1`` (its own line) carries::

    # repro: allow[rule-id] optional one-line justification
    # repro: allow[rule-a, rule-b] several rules at once

The justification text after the bracket is free-form and encouraged — the
comment is the audit trail for why the invariant is deliberately waived.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from pathlib import Path
from typing import Iterator

from repro.analysis.findings import SEVERITY_ERROR, Finding

_ALLOW_PATTERN = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_\-, ]+)\]")


def _extract_suppressions(text: str) -> dict[int, frozenset[str]]:
    """Map 1-based line numbers to the rule ids allowed on that line."""
    suppressions: dict[int, frozenset[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = _ALLOW_PATTERN.search(line)
        if match is None:
            continue
        rules = frozenset(
            rule.strip() for rule in match.group(1).split(",") if rule.strip()
        )
        if rules:
            suppressions[lineno] = rules
    return suppressions


def _parent_map(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    parents: dict[ast.AST, ast.AST] = {}
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent
    return parents


@dataclasses.dataclass(slots=True)
class SourceFile:
    """One parsed module plus the lexical context checkers rely on."""

    module: str
    path: str
    text: str
    tree: ast.Module
    parents: dict[ast.AST, ast.AST]
    suppressions: dict[int, frozenset[str]]

    @classmethod
    def from_source(
        cls, text: str, module: str, path: str = "<memory>"
    ) -> "SourceFile":
        """Build from an in-memory snippet (the test-fixture entry point)."""
        tree = ast.parse(text, filename=path)
        return cls(
            module=module,
            path=path,
            text=text,
            tree=tree,
            parents=_parent_map(tree),
            suppressions=_extract_suppressions(text),
        )

    @classmethod
    def from_path(cls, path: Path, root: Path) -> "SourceFile":
        """Load one file under ``root``; the module name comes from the
        path relative to ``root``'s parent (so ``<root>/service/server.py``
        with root ``.../repro`` becomes ``repro.service.server``)."""
        text = path.read_text(encoding="utf-8")
        relative = path.relative_to(root.parent)
        parts = list(relative.with_suffix("").parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        return cls.from_source(text, module=".".join(parts), path=str(path))

    def is_suppressed(self, finding: Finding) -> bool:
        """True when an allow-comment on the finding's line (or the line
        directly above it) names the finding's rule."""
        for lineno in (finding.line, finding.line - 1):
            if finding.rule in self.suppressions.get(lineno, frozenset()):
                return True
        return False

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """The node's enclosing nodes, innermost first."""
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)


@dataclasses.dataclass(slots=True)
class Project:
    """Every loaded module of one lint run, keyed by dotted module name."""

    files: dict[str, SourceFile]
    #: Files that failed to parse, reported as ``syntax-error`` findings.
    errors: list[Finding]

    def __iter__(self) -> Iterator[SourceFile]:
        return iter(self.files.values())

    def __len__(self) -> int:
        return len(self.files)

    @classmethod
    def from_sources(cls, sources: dict[str, str]) -> "Project":
        """Build from ``{module: source}`` snippets (fixture entry point)."""
        files = {
            module: SourceFile.from_source(text, module=module)
            for module, text in sources.items()
        }
        return cls(files=files, errors=[])

    @classmethod
    def load(cls, root: Path) -> "Project":
        """Load every ``*.py`` file under the package directory ``root``."""
        root = root.resolve()
        files: dict[str, SourceFile] = {}
        errors: list[Finding] = []
        for path in sorted(root.rglob("*.py")):
            try:
                source = SourceFile.from_path(path, root)
            except (SyntaxError, ValueError, OSError) as error:
                module = str(path.relative_to(root.parent).with_suffix(""))
                errors.append(
                    Finding(
                        rule="syntax-error",
                        severity=SEVERITY_ERROR,
                        module=module.replace("/", "."),
                        path=str(path),
                        line=getattr(error, "lineno", None) or 1,
                        col=0,
                        message=f"cannot parse file: {error}",
                    )
                )
                continue
            files[source.module] = source
        return cls(files=files, errors=errors)
