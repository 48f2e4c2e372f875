"""The lint rule contract and the stable-code registry.

Rules are small classes registered under a stable code
(``DET001``, ``EXC001``, ...). The engine walks each module's AST once
and dispatches every node to the rules that subscribed to its type, so
adding a rule never adds a tree traversal. Cross-module rules implement
:meth:`Rule.finish_project` and read the shared
:class:`~repro.lint.context.ProjectIndex` instead.
"""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod
from typing import Iterable, Type

from .context import ModuleContext, ProjectIndex
from .findings import Finding, Severity

__all__ = ["Rule", "register", "registered_rules", "rule_codes", "make_rules"]


class Rule(ABC):
    """One invariant check.

    Class attributes
    ----------------
    code:
        Stable identifier (``XXXNNN``) used in reports and suppressions.
    title:
        One-line summary shown by ``caasper lint --list-rules``.
    severity:
        Default severity of this rule's findings.
    node_types:
        AST node classes this rule wants to see. Empty means the rule
        only uses the module/project finish hooks.
    domains:
        Dotted module prefixes the rule applies to. Empty means every
        linted module.
    """

    code: str = ""
    title: str = ""
    severity: Severity = Severity.ERROR
    node_types: tuple[Type[ast.AST], ...] = ()
    domains: tuple[str, ...] = ()

    def applies_to(self, module: ModuleContext) -> bool:
        """Whether this rule runs on ``module`` (domain scoping)."""
        if not self.domains:
            return True
        return module.in_domain(self.domains)

    def visit(
        self, node: ast.AST, module: ModuleContext
    ) -> Iterable[Finding]:
        """Inspect one subscribed node; yield findings."""
        return ()

    def finish_module(self, module: ModuleContext) -> Iterable[Finding]:
        """Module-level checks after the walk (e.g. whole-class shape)."""
        return ()

    def finish_project(self, project: ProjectIndex) -> Iterable[Finding]:
        """Cross-module checks once every file has been indexed."""
        return ()

    # -- helpers ----------------------------------------------------------------

    def finding(
        self,
        module: ModuleContext,
        node: ast.AST,
        message: str,
        severity: Severity | None = None,
    ) -> Finding:
        """A finding anchored at ``node`` in ``module``."""
        return Finding(
            code=self.code,
            message=message,
            path=module.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
            severity=severity or self.severity,
        )


_REGISTRY: dict[str, Type[Rule]] = {}


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the registry (stable, unique code)."""
    code = rule_class.code
    if not code:
        raise ValueError(f"{rule_class.__name__} has no code")
    existing = _REGISTRY.get(code)
    if existing is not None and existing is not rule_class:
        raise ValueError(
            f"duplicate rule code {code!r}: {existing.__name__} vs "
            f"{rule_class.__name__}"
        )
    _REGISTRY[code] = rule_class
    return rule_class


def registered_rules() -> dict[str, Type[Rule]]:
    """Code → rule class, importing the built-in rule modules on demand."""
    from . import rules  # noqa: F401  (registers via import side effect)

    return dict(_REGISTRY)


def rule_codes() -> list[str]:
    """Every registered code, sorted."""
    return sorted(registered_rules())


def make_rules(
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> list[Rule]:
    """Instantiate the configured rule set.

    ``select`` keeps only the listed codes; ``ignore`` drops codes from
    whatever ``select`` produced. Unknown codes raise so typos in CI
    configuration fail loudly.
    """
    available = registered_rules()
    chosen = set(available) if select is None else set(select)
    unknown = chosen - set(available)
    if ignore:
        ignored = set(ignore)
        unknown |= ignored - set(available)
        chosen -= ignored
    if unknown:
        raise ValueError(
            f"unknown rule code(s): {', '.join(sorted(unknown))}; "
            f"known: {', '.join(sorted(available))}"
        )
    return [available[code]() for code in sorted(chosen)]
