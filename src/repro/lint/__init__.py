"""Domain-aware static analysis for the CaaSPER reproduction.

``repro.lint`` is an AST-based rule engine encoding this project's
correctness invariants as checkable rules — the integer-core contract,
Algorithm 1 threshold ordering, and the bit-identical chaos-replay
guarantee (see docs/STATIC_ANALYSIS.md for every rule code):

========  ==========================================================
code      invariant
========  ==========================================================
DET001    no wall-clock reads in simulation/recommender/fault paths
DET002    no process-global randomness outside injected generators
DET003    no unordered set iteration feeding results/output
DET101    no *transitive* wall-clock/RNG reach from deterministic code
NUM001    no exact float ==/!= in core algorithm modules
EXC001    no bare/broad except that can swallow FaultError/TraceError
EXC101    no broad except that transitively swallows domain errors
ASY001    no blocking calls reachable from serve ``async def`` bodies
API001    Recommender subclasses honour the driver protocol
OBS001    every emitted event type is declared in repro.obs.events
CFG001    frozen *Config dataclasses validate in __post_init__
========  ==========================================================

The ``1xx`` codes are interprocedural: they run taint propagation
(:mod:`repro.lint.dataflow`) over a project call graph
(:mod:`repro.lint.callgraph`), so a wall-clock read or blocking fsync
hidden N calls deep is reported at the edge where it enters the
audited domain — with the concrete call chain in the message.

Run via ``caasper lint`` (``--strict`` for CI), or programmatically::

    from repro.lint import lint_paths
    report = lint_paths(["src/repro", "benchmarks"])
    assert not report.findings, report

Findings are suppressed in place with ``# lint: disable=CODE``.
Reviewed synchronous edges under async code are declared with
``# lint: blocking-boundary`` on the def line (see
docs/STATIC_ANALYSIS.md).
"""

from .callgraph import (
    CallGraph,
    FunctionNode,
    build_call_graph,
    call_graph_for,
    render_graph_json,
)
from .context import ClassInfo, MethodInfo, ModuleContext, ProjectIndex
from .dataflow import TaintAnalysis, TaintWitness, propagate
from .engine import LintEngine, LintReport, lint_paths, lint_sources
from .findings import Finding, Severity, SuppressionTable
from .registry import Rule, make_rules, register, registered_rules, rule_codes
from .reporters import (
    render_json,
    render_rule_list,
    render_sarif,
    render_text,
)

__all__ = [
    "CallGraph",
    "ClassInfo",
    "Finding",
    "FunctionNode",
    "LintEngine",
    "LintReport",
    "MethodInfo",
    "ModuleContext",
    "ProjectIndex",
    "Rule",
    "Severity",
    "SuppressionTable",
    "TaintAnalysis",
    "TaintWitness",
    "build_call_graph",
    "call_graph_for",
    "lint_paths",
    "lint_sources",
    "make_rules",
    "propagate",
    "register",
    "registered_rules",
    "render_graph_json",
    "render_json",
    "render_rule_list",
    "render_sarif",
    "render_text",
    "rule_codes",
]
