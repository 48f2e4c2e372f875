"""API001 — every ``Recommender`` subclass honours the driver protocol.

The simulator and the control loop drive recommenders positionally
through a fixed protocol (:mod:`repro.baselines.base`):

- ``observe(self, minute, usage, limit)``
- ``recommend(self, minute, current_limit)``
- ``window_stats(self)``
- ``reset(self)``
- ``last_decision`` — an *attribute/property*, never a method

A subclass that renames or reorders these parameters still imports and
even instantiates fine, then crashes (or silently mis-binds arguments)
mid-simulation. The rule walks the project-wide class graph, finds
every transitive ``Recommender`` subclass, and checks each override's
signature; concrete leaf classes must also implement ``recommend``
somewhere in their project-visible ancestry.
"""

from __future__ import annotations

from typing import Iterable

from ..context import ClassInfo, MethodInfo, ProjectIndex
from ..findings import Finding, Severity
from ..registry import Rule, register

__all__ = ["RecommenderProtocolRule"]

#: Method name → expected parameter names (``self`` included).
PROTOCOL = {
    "observe": ("self", "minute", "usage", "limit"),
    "recommend": ("self", "minute", "current_limit"),
    "window_stats": ("self",),
    "reset": ("self",),
}


def _signature_conforms(
    method: MethodInfo, expected: tuple[str, ...]
) -> bool:
    if method.has_vararg and method.has_kwarg:
        # ``*args, **kwargs`` pass-through wrappers are protocol-safe.
        return True
    if method.positional[: len(expected)] != expected:
        return False
    if len(method.required_positional) > len(expected):
        return False
    return not method.kwonly_required


@register
class RecommenderProtocolRule(Rule):
    """API001 — Recommender protocol conformance (cross-module)."""

    code = "API001"
    title = "Recommender subclass breaks the observe/recommend protocol"
    severity = Severity.ERROR

    def finish_project(self, project: ProjectIndex) -> Iterable[Finding]:
        subclasses = project.subclasses_of("Recommender")
        used_as_base = {
            base for info in project.all_classes() for base in info.base_names
        }
        for info in subclasses:
            yield from self._check_signatures(info)
            yield from self._check_completeness(info, project, used_as_base)

    def _check_signatures(self, info: ClassInfo) -> Iterable[Finding]:
        for name, expected in PROTOCOL.items():
            method = info.methods.get(name)
            if method is None or method.is_property:
                continue
            if not _signature_conforms(method, expected):
                yield Finding(
                    code=self.code,
                    message=(
                        f"{info.name}.{name} must accept "
                        f"({', '.join(expected)}); the simulator and "
                        "control loop call it positionally"
                    ),
                    path=info.path,
                    line=method.lineno,
                    column=0,
                    severity=self.severity,
                )
        last_decision = info.methods.get("last_decision")
        if last_decision is not None and not last_decision.is_property:
            yield Finding(
                code=self.code,
                message=(
                    f"{info.name}.last_decision must be an attribute or "
                    "property carrying the latest decision provenance, "
                    "not a method"
                ),
                path=info.path,
                line=last_decision.lineno,
                column=0,
                severity=self.severity,
            )

    def _check_completeness(
        self,
        info: ClassInfo,
        project: ProjectIndex,
        used_as_base: frozenset[str] | set[str],
    ) -> Iterable[Finding]:
        if info.name in used_as_base:
            return  # intermediate base: ABC enforcement happens downstream
        if any(method.is_abstract for method in info.methods.values()):
            return  # explicitly abstract
        chain = [info, *project.ancestors_of(info)]
        for ancestor in chain:
            method = ancestor.methods.get("recommend")
            if method is not None and not method.is_abstract:
                return
        yield Finding(
            code=self.code,
            message=(
                f"{info.name} subclasses Recommender but never implements "
                "recommend(self, minute, current_limit); instantiating it "
                "will fail at runtime"
            ),
            path=info.path,
            line=info.lineno,
            column=0,
            severity=self.severity,
        )
