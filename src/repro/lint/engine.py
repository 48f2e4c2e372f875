"""File discovery, the shared AST walk, and finding collection.

One :class:`LintEngine` run:

1. discovers ``*.py`` files under the given paths (default:
   ``src/repro`` + ``benchmarks``),
2. parses each file once into a :class:`~repro.lint.context.ModuleContext`,
3. walks each AST once, dispatching nodes to the rules subscribed to
   that node type,
4. runs per-module and then cross-module finish hooks,
5. filters ``# lint: disable`` suppressions and returns a
   :class:`LintReport`.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

from .context import ModuleContext, ProjectIndex
from .findings import Finding, Severity
from .registry import Rule, make_rules

__all__ = ["LintEngine", "LintReport", "lint_paths", "lint_sources"]

#: Directory names never descended into.
_SKIP_DIRS = {
    "__pycache__",
    ".git",
    ".venv",
    "venv",
    "build",
    "dist",
    ".mypy_cache",
    ".ruff_cache",
}


@dataclass(frozen=True)
class LintReport:
    """The outcome of one lint run."""

    findings: tuple[Finding, ...]
    files_checked: int
    suppressed: int = 0
    #: Files that failed to parse, as ``(path, error)`` pairs.
    parse_errors: tuple[tuple[str, str], ...] = ()

    @property
    def errors(self) -> tuple[Finding, ...]:
        return tuple(
            f for f in self.findings if f.severity is Severity.ERROR
        )

    @property
    def warnings(self) -> tuple[Finding, ...]:
        return tuple(
            f for f in self.findings if f.severity is Severity.WARNING
        )

    def exit_code(self, strict: bool = False) -> int:
        """1 when the run should fail: any error, or (strict) anything."""
        if self.parse_errors:
            return 1
        if strict:
            return 1 if self.findings else 0
        return 1 if self.errors else 0


class LintEngine:
    """Runs a rule set over a file tree (see module docstring)."""

    def __init__(self, rules: Sequence[Rule] | None = None) -> None:
        self.rules: list[Rule] = (
            list(rules) if rules is not None else make_rules()
        )

    # -- discovery --------------------------------------------------------------

    @staticmethod
    def discover(paths: Iterable[str]) -> list[str]:
        """Every ``*.py`` file under ``paths``, sorted, deduplicated."""
        found: set[str] = set()
        for path in paths:
            if os.path.isfile(path):
                if path.endswith(".py"):
                    found.add(os.path.normpath(path))
                continue
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in _SKIP_DIRS
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        found.add(
                            os.path.normpath(os.path.join(dirpath, name))
                        )
        return sorted(found)

    # -- running ----------------------------------------------------------------

    def run(self, paths: Iterable[str]) -> LintReport:
        """Lint every python file under ``paths``."""
        files = self.discover(paths)
        sources: list[tuple[str, str]] = []
        parse_errors: list[tuple[str, str]] = []
        for path in files:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    sources.append((path, handle.read()))
            except OSError as error:
                parse_errors.append((path, str(error)))
        report = self.run_sources(sources)
        return LintReport(
            findings=report.findings,
            files_checked=report.files_checked,
            suppressed=report.suppressed,
            parse_errors=tuple(parse_errors) + report.parse_errors,
        )

    def run_sources(self, sources: Iterable[tuple[str, str]]) -> LintReport:
        """Lint in-memory ``(path, source)`` pairs (tests, pre-commit)."""
        project = ProjectIndex()
        modules: list[ModuleContext] = []
        parse_errors: list[tuple[str, str]] = []
        for path, source in sources:
            try:
                tree = ast.parse(source, filename=path)
            except SyntaxError as error:
                parse_errors.append((path, f"syntax error: {error.msg}"))
                continue
            module = ModuleContext(path, source, tree)
            modules.append(module)
            project.add(module)

        raw: list[Finding] = []
        for module in modules:
            raw.extend(self._lint_module(module))
        for rule in self.rules:
            raw.extend(rule.finish_project(project))

        kept: list[Finding] = []
        suppressed = 0
        for finding in raw:
            module = project.modules.get(finding.path)
            if module is not None and module.suppressions.is_suppressed(
                finding.code, finding.line
            ):
                suppressed += 1
                continue
            kept.append(finding)
        kept.sort(key=Finding.sort_key)
        return LintReport(
            findings=tuple(kept),
            files_checked=len(modules),
            suppressed=suppressed,
            parse_errors=tuple(parse_errors),
        )

    def _lint_module(self, module: ModuleContext) -> list[Finding]:
        active = [rule for rule in self.rules if rule.applies_to(module)]
        if not active:
            return []
        dispatch: dict[type, list[Rule]] = {}
        for rule in active:
            for node_type in rule.node_types:
                dispatch.setdefault(node_type, []).append(rule)
        findings: list[Finding] = []
        if dispatch:
            for node in ast.walk(module.tree):
                for rule in dispatch.get(type(node), ()):
                    findings.extend(rule.visit(node, module))
        for rule in active:
            findings.extend(rule.finish_module(module))
        return findings


def lint_paths(
    paths: Iterable[str],
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> LintReport:
    """One-call entry point over a file tree."""
    return LintEngine(make_rules(select=select, ignore=ignore)).run(paths)


def lint_sources(
    sources: Iterable[tuple[str, str]],
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> LintReport:
    """One-call entry point over in-memory sources (tests)."""
    return LintEngine(make_rules(select=select, ignore=ignore)).run_sources(
        sources
    )
