"""OBS001/OBS002 — observability vocabularies must be registered.

OBS001: every emitted event type is declared in ``repro.obs.events``.
The observability layer round-trips events through JSONL
(:func:`repro.obs.trace_log.read_events` →
:func:`repro.obs.events.event_from_dict`), which resolves the ``kind``
discriminator against the registry each ``ObsEvent`` subclass joins
when it is defined. An event class defined in a module that a reader
never imports serialises fine and then *fails to deserialise*, breaking
replay tooling long after the run that wrote the trace.

The rule checks, project-wide:

- every ``<obj>.emit(SomethingEvent(...))`` call site constructs a
  class that is declared in ``repro.obs.events``;
- every ``ObsEvent`` subclass is defined in ``repro.obs.events`` (not
  scattered through other modules).

OBS002: every span/trace name is declared in ``repro.obs.names``. Span
statistics aggregate by name and trace analyses key on trace names; an
unregistered ad-hoc name fragments both silently. Literal names must
appear in the registry tuples; f-string names must open with a
registered prefix (``span(f"sweep.trace.{trace.name}")``).
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..context import ModuleContext, ProjectIndex
from ..findings import Finding, Severity
from ..registry import Rule, register

__all__ = ["DeclaredEventsRule", "RegisteredNamesRule"]

#: The module that owns the event schema.
EVENTS_MODULE = "repro.obs.events"

#: The module that owns the span/trace name registry.
NAMES_MODULE = "repro.obs.names"


@register
class DeclaredEventsRule(Rule):
    """OBS001 — emitted events must be declared event types."""

    code = "OBS001"
    title = "emit() of an event type not declared in repro.obs.events"
    severity = Severity.ERROR
    node_types = (ast.Call,)

    def __init__(self) -> None:
        #: ``(event class name, module path, node)`` per emit call site.
        self._emit_sites: list[tuple[str, str, ast.Call]] = []

    def visit(
        self, node: ast.AST, module: ModuleContext
    ) -> Iterable[Finding]:
        assert isinstance(node, ast.Call)
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "emit"):
            return ()
        if not node.args:
            return ()
        argument = node.args[0]
        if not isinstance(argument, ast.Call):
            return ()  # a name bound earlier; best-effort only
        constructor = argument.func
        if isinstance(constructor, ast.Name):
            name = constructor.id
        elif isinstance(constructor, ast.Attribute):
            name = constructor.attr
        else:
            return ()
        if name.endswith("Event"):
            self._emit_sites.append((name, module.path, argument))
        return ()

    def finish_project(self, project: ProjectIndex) -> Iterable[Finding]:
        findings = list(self._finish(project))
        self._emit_sites.clear()  # engine instances may run twice
        return findings

    def _finish(self, project: ProjectIndex) -> Iterable[Finding]:
        events_modules = [
            module
            for module in project.modules.values()
            if module.module == EVENTS_MODULE
        ]
        declared = {"ObsEvent"}
        for info in project.subclasses_of("ObsEvent"):
            if info.module == EVENTS_MODULE:
                declared.add(info.name)
            else:
                yield Finding(
                    code=self.code,
                    message=(
                        f"event class {info.name} subclasses ObsEvent "
                        f"outside {EVENTS_MODULE}; declare it there so "
                        "event_from_dict can round-trip it"
                    ),
                    path=info.path,
                    line=info.lineno,
                    column=0,
                    severity=self.severity,
                )
        if not events_modules:
            # Linting a partial tree (tests, single files): the schema
            # module is absent, so emit-site membership is unknowable.
            return
        for name, path, node in self._emit_sites:
            if name not in declared:
                yield Finding(
                    code=self.code,
                    message=(
                        f"emit() of undeclared event type {name}; declare "
                        f"it in {EVENTS_MODULE} so JSONL traces can be "
                        "replayed"
                    ),
                    path=path,
                    line=node.lineno,
                    column=node.col_offset,
                    severity=self.severity,
                )


def _fstring_literal_head(node: ast.JoinedStr) -> str:
    """Leading constant text of an f-string, up to the first placeholder."""
    head = []
    for value in node.values:
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            head.append(value.value)
        else:
            break
    return "".join(head)


@register
class RegisteredNamesRule(Rule):
    """OBS002 — span/trace names must come from the names registry."""

    code = "OBS002"
    title = "span/trace name not registered in repro.obs.names"
    severity = Severity.ERROR
    node_types = (ast.Call,)

    def __init__(self) -> None:
        #: ``(category, name, is_prefix_only, module path, node)`` per site.
        self._sites: list[tuple[str, str, bool, str, ast.Call]] = []

    @staticmethod
    def _call_category(func: ast.expr) -> str | None:
        """``"span"``/``"trace"`` for name-taking calls, else None."""
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            return None
        if name in ("span", "timed"):
            return "span"
        if name in ("trace", "start_trace"):
            return "trace"
        return None

    def visit(
        self, node: ast.AST, module: ModuleContext
    ) -> Iterable[Finding]:
        assert isinstance(node, ast.Call)
        category = self._call_category(node.func)
        if category is None or not node.args:
            return ()
        argument = node.args[0]
        if isinstance(argument, ast.Constant) and isinstance(
            argument.value, str
        ):
            self._sites.append(
                (category, argument.value, False, module.path, node)
            )
        elif isinstance(argument, ast.JoinedStr):
            # Dynamic suffixes are fine; the literal head must still
            # anchor the name under a registered prefix.
            self._sites.append(
                (
                    category,
                    _fstring_literal_head(argument),
                    True,
                    module.path,
                    node,
                )
            )
        return ()

    def finish_project(self, project: ProjectIndex) -> Iterable[Finding]:
        findings = list(self._finish(project))
        self._sites.clear()  # engine instances may run twice
        return findings

    @staticmethod
    def _registry_tuples(project: ProjectIndex) -> dict[str, tuple[str, ...]] | None:
        """The four registry tuples, read statically from the AST."""
        modules = [
            module
            for module in project.modules.values()
            if module.module == NAMES_MODULE
        ]
        if not modules:
            return None
        registry: dict[str, tuple[str, ...]] = {}
        wanted = (
            "SPAN_NAMES",
            "SPAN_NAME_PREFIXES",
            "TRACE_NAMES",
            "TRACE_NAME_PREFIXES",
        )
        for module in modules:
            for stmt in module.tree.body:
                if not (
                    isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and stmt.targets[0].id in wanted
                    and isinstance(stmt.value, (ast.Tuple, ast.List))
                ):
                    continue
                values = tuple(
                    element.value
                    for element in stmt.value.elts
                    if isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                )
                registry[stmt.targets[0].id] = values
        for name in wanted:
            registry.setdefault(name, ())
        return registry

    def _finish(self, project: ProjectIndex) -> Iterable[Finding]:
        registry = self._registry_tuples(project)
        if registry is None:
            # Linting a partial tree: the registry module is absent, so
            # membership is unknowable (mirrors OBS001).
            return
        exact = {
            "span": registry["SPAN_NAMES"],
            "trace": registry["TRACE_NAMES"],
        }
        prefixes = {
            "span": registry["SPAN_NAME_PREFIXES"],
            "trace": registry["TRACE_NAME_PREFIXES"],
        }
        for category, name, prefix_only, path, node in self._sites:
            allowed_prefixes = prefixes[category]
            if not prefix_only and name in exact[category]:
                continue
            if allowed_prefixes and name.startswith(allowed_prefixes):
                continue
            shape = "f-string head" if prefix_only else "literal"
            yield Finding(
                code=self.code,
                message=(
                    f"{category} name {shape} {name!r} is not registered "
                    f"in {NAMES_MODULE}; add it to "
                    f"{'SPAN' if category == 'span' else 'TRACE'}_NAMES or "
                    "a registered prefix so span statistics and trace "
                    "analyses stay keyed on a known vocabulary"
                ),
                path=path,
                line=node.lineno,
                column=node.col_offset,
                severity=self.severity,
            )
