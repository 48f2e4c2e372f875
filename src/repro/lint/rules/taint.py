"""DET101/ASY001/EXC101 — interprocedural dataflow rules.

These rules run on the project call graph
(:mod:`repro.lint.callgraph`) with taint propagation from
:mod:`repro.lint.dataflow`. They catch what the per-node rules cannot:
a wall-clock read or blocking fsync hidden one call deep is invisible
to DET001/ASY-less syntactic checks, yet breaks replay or stalls the
event loop exactly the same.

DET101 reports the *frontier* edge only: a deterministic-domain
function whose direct callee lives outside the deterministic domains
and transitively reaches a wall-clock or global-RNG call. Direct
banned calls inside a domain module stay DET001/DET002's
responsibility, so one defect never produces a cascade of reports up
the call chain — each tainted path surfaces exactly once, at the edge
where determinism leaves the audited domains.

ASY001 reports any ``async def`` in the serve daemon that transitively
reaches a blocking call (``os.fsync``, file I/O, ``time.sleep``,
``subprocess``). The journal's fsync edge is *intentional* — crash
recovery depends on it — so functions carrying a
``# lint: blocking-boundary`` marker on their def line neither report
nor propagate blocking taint; the marker is a reviewed declaration
that the stall is bounded and by design.

EXC101 reports broad handlers whose try body can — directly or through
the call graph — raise ``FaultError`` or ``ServeError`` and whose
handler list never catches those domain errors explicitly. EXC001
flags the handler shape; EXC101 proves a concrete swallowed-error
path.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..callgraph import CallGraph, FunctionNode, call_graph_for
from ..context import ModuleContext, ProjectIndex
from ..dataflow import (
    DOMAIN_ERROR_NAMES,
    TaintAnalysis,
    blocking_sources,
    propagate,
    raise_sources,
    wall_clock_sources,
)
from ..findings import Finding, Severity
from ..registry import Rule, register
from .determinism import DETERMINISTIC_DOMAINS
from .exceptions import _names_in_handler_type, _reraises

__all__ = [
    "TransitiveWallClockRule",
    "AsyncBlockingRule",
    "SwallowedDomainErrorRule",
    "ASYNC_DOMAINS",
]

#: Dotted prefixes whose ``async def`` functions must not block.
ASYNC_DOMAINS = ("repro.serve",)

#: Handler type names that catch the domain errors (or an ancestor).
_DOMAIN_CATCHERS = DOMAIN_ERROR_NAMES | {"ReproError", "DegradedModeError"}

_BROAD_HANDLERS = frozenset({"Exception", "BaseException"})


def _in_deterministic_domain(module: str) -> bool:
    return any(
        module == domain or module.startswith(domain + ".")
        for domain in DETERMINISTIC_DOMAINS
    )


@register
class TransitiveWallClockRule(Rule):
    """DET101 — deterministic domain transitively reaches the wall clock."""

    code = "DET101"
    title = (
        "deterministic-domain function transitively reaches wall clock "
        "or unseeded RNG"
    )
    severity = Severity.ERROR
    node_types = ()

    def finish_project(self, project: ProjectIndex) -> Iterable[Finding]:
        graph = call_graph_for(project)

        def suppressed(path: str, code: str, line: int) -> bool:
            module = project.modules.get(path)
            return module is not None and module.suppressions.is_suppressed(
                code, line
            )

        analysis = propagate(graph, wall_clock_sources(suppressed))
        for node in graph.functions_in(DETERMINISTIC_DOMAINS):
            reported: set[str] = set()
            for edge in sorted(node.calls, key=lambda e: (e.line, e.callee)):
                if edge.callee in reported:
                    continue
                callee = graph.get(edge.callee)
                if callee is None or _in_deterministic_domain(callee.module):
                    continue  # in-domain defects are DET001/DET002's job
                witness = analysis.witness(edge.callee)
                if witness is None:
                    continue
                reported.add(edge.callee)
                yield Finding(
                    code=self.code,
                    message=(
                        f"{node.qualname} leaves the deterministic domain "
                        f"through a call chain that reads the wall clock or "
                        f"global RNG: {witness.render()}; thread a seeded "
                        "clock/rng in, or declare the edge with "
                        "# lint: disable=DET001 at the source call site"
                    ),
                    path=node.path,
                    line=edge.line,
                    column=0,
                    severity=self.severity,
                )


@register
class AsyncBlockingRule(Rule):
    """ASY001 — serve ``async def`` transitively reaches a blocking call."""

    code = "ASY001"
    title = "async def in repro.serve transitively reaches a blocking call"
    severity = Severity.ERROR
    node_types = ()

    def finish_project(self, project: ProjectIndex) -> Iterable[Finding]:
        graph = call_graph_for(project)
        analysis = propagate(graph, blocking_sources, stop_at_boundary=True)
        for node in graph.functions_in(ASYNC_DOMAINS):
            if not node.is_async or node.blocking_boundary:
                continue
            witness = analysis.witness(node.qualname)
            if witness is None:
                continue
            yield Finding(
                code=self.code,
                message=(
                    f"async def {node.name} blocks the event loop via "
                    f"{witness.render()}; offload to a thread, use the "
                    "asyncio equivalent, or mark the reviewed sync edge "
                    "with # lint: blocking-boundary"
                ),
                path=node.path,
                line=node.lineno,
                column=0,
                severity=self.severity,
            )


def _direct_domain_raises(try_node: ast.Try) -> list[tuple[str, int]]:
    """Domain-error ``raise`` statements in the try body itself.

    Nested function definitions are pruned — their raises happen when
    the closure runs, not when the try body does.
    """
    found: list[tuple[str, int]] = []
    stack: list[ast.AST] = list(try_node.body)
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id in DOMAIN_ERROR_NAMES:
                found.append((exc.id, node.lineno))
        stack.extend(ast.iter_child_nodes(node))
    return found


def _enclosing_function(
    module: ModuleContext, node: ast.AST
) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
    current = module.parents.get(node)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return current
        current = module.parents.get(current)
    return None


@register
class SwallowedDomainErrorRule(Rule):
    """EXC101 — broad handler can swallow FaultError/ServeError."""

    code = "EXC101"
    title = "broad except can transitively swallow FaultError/ServeError"
    severity = Severity.WARNING
    node_types = ()

    def finish_project(self, project: ProjectIndex) -> Iterable[Finding]:
        graph = call_graph_for(project)
        analysis = propagate(graph, raise_sources)
        by_site = {
            (node.path, node.lineno, node.name): node for node in graph
        }
        for path in sorted(project.modules):
            module = project.modules[path]
            for try_node in ast.walk(module.tree):
                if not isinstance(try_node, ast.Try):
                    continue
                yield from self._check_try(
                    module, try_node, graph, analysis, by_site
                )

    def _check_try(
        self,
        module: ModuleContext,
        try_node: ast.Try,
        graph: CallGraph,
        analysis: TaintAnalysis,
        by_site: dict[tuple[str, int, str], FunctionNode],
    ) -> Iterable[Finding]:
        handlers = try_node.handlers
        if not handlers:
            return
        # A handler that names a domain error (or an ancestor) catches
        # it before any broad handler sees it.
        caught_domain = any(
            set(_names_in_handler_type(handler.type)) & _DOMAIN_CATCHERS
            for handler in handlers
        )
        if caught_domain:
            return
        broad = [
            handler
            for handler in handlers
            if (
                handler.type is None
                or _BROAD_HANDLERS & set(
                    _names_in_handler_type(handler.type)
                )
            )
            and not _reraises(handler)
        ]
        if not broad:
            return
        witness = self._body_witness(
            module, try_node, handlers[0].lineno, graph, analysis, by_site
        )
        if witness is None:
            return
        for handler in broad:
            label = "except:" if handler.type is None else "broad except"
            yield Finding(
                code=self.code,
                message=(
                    f"{label} swallows {witness}; re-raise Repro errors "
                    "or add a prior handler for them"
                ),
                path=module.path,
                line=handler.lineno,
                column=handler.col_offset,
                severity=self.severity,
            )

    def _body_witness(
        self,
        module: ModuleContext,
        try_node: ast.Try,
        first_handler_line: int,
        graph: CallGraph,
        analysis: TaintAnalysis,
        by_site: dict[tuple[str, int, str], FunctionNode],
    ) -> str | None:
        """A concrete domain-error path out of the try body, or None."""
        direct = _direct_domain_raises(try_node)
        if direct:
            name, line = min(direct, key=lambda item: item[1])
            return f"{name} raised at line {line}"
        owner_def = _enclosing_function(module, try_node)
        if owner_def is None:
            return None
        owner = by_site.get((module.path, owner_def.lineno, owner_def.name))
        if owner is None:
            return None
        candidates = [
            edge
            for edge in owner.calls
            if try_node.lineno <= edge.line < first_handler_line
        ]
        for edge in sorted(candidates, key=lambda e: (e.line, e.callee)):
            witness = analysis.witness(edge.callee)
            if witness is not None:
                return (
                    f"{witness.source} reachable via {witness.render()} "
                    f"(called at line {edge.line})"
                )
        return None
