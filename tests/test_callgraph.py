"""Unit tests for :mod:`repro.lint.callgraph` construction.

Each test parses a tiny in-memory project and asserts specific edges
exist (or don't): bare-name calls, method resolution through ``self``
and annotations, constructor edges, ``__init__`` re-export chasing,
relative imports, recursion/cycles, and the blocking-boundary marker.
The builder under-approximates by design — an unresolved call must
produce *no* project edge rather than a wrong one.
"""

from __future__ import annotations

import ast
import textwrap

from repro.lint import LintEngine, ModuleContext, ProjectIndex
from repro.lint.callgraph import build_call_graph, render_graph_json


def graph_of(*files: tuple[str, str]):
    project = ProjectIndex()
    for path, source in files:
        source = textwrap.dedent(source)
        project.add(ModuleContext(path, source, ast.parse(source)))
    return build_call_graph(project)


def edge_targets(graph, qualname: str) -> set[str]:
    node = graph.get(qualname)
    assert node is not None, f"missing node {qualname}"
    return {edge.callee for edge in node.calls}


def external_names(graph, qualname: str) -> set[str]:
    node = graph.get(qualname)
    assert node is not None, f"missing node {qualname}"
    return {ext.name for ext in node.external_calls}


# ---------------------------------------------------------------------------
# Basics


def test_module_function_edge():
    graph = graph_of(
        (
            "src/repro/sim/a.py",
            """
            def helper():
                return 1

            def entry():
                return helper()
            """,
        )
    )
    assert edge_targets(graph, "repro.sim.a.entry") == {"repro.sim.a.helper"}


def test_external_calls_recorded_with_dotted_names():
    graph = graph_of(
        (
            "src/repro/sim/a.py",
            """
            import time
            import os

            def entry(path):
                os.fsync(3)
                return time.time()
            """,
        )
    )
    assert {"time.time", "os.fsync"} <= external_names(
        graph, "repro.sim.a.entry"
    )


def test_import_alias_resolves_to_real_module():
    graph = graph_of(
        (
            "src/repro/sim/a.py",
            """
            import time as clock

            def entry():
                return clock.time()
            """,
        )
    )
    assert "time.time" in external_names(graph, "repro.sim.a.entry")


def test_cycle_and_recursion_terminate():
    graph = graph_of(
        (
            "src/repro/sim/a.py",
            """
            def ping(n):
                return pong(n - 1)

            def pong(n):
                if n <= 0:
                    return 0
                return ping(n)

            def loner(n):
                return loner(n - 1)
            """,
        )
    )
    assert edge_targets(graph, "repro.sim.a.ping") == {"repro.sim.a.pong"}
    assert "repro.sim.a.ping" in edge_targets(graph, "repro.sim.a.pong")
    assert edge_targets(graph, "repro.sim.a.loner") == {"repro.sim.a.loner"}
    assert graph.callers_of("repro.sim.a.pong") == ["repro.sim.a.ping"]


def test_nested_def_calls_attributed_to_inner_function():
    graph = graph_of(
        (
            "src/repro/sim/a.py",
            """
            import time

            def outer():
                def inner():
                    return time.time()
                return inner

            def clean():
                return outer()
            """,
        )
    )
    assert "time.time" in external_names(graph, "repro.sim.a.outer.inner")
    assert "time.time" not in external_names(graph, "repro.sim.a.outer")
    # outer gains an edge to its nested def only when it calls it.
    assert edge_targets(graph, "repro.sim.a.outer") == set()


# ---------------------------------------------------------------------------
# Method resolution


def test_self_method_and_constructor_edges():
    graph = graph_of(
        (
            "src/repro/sim/a.py",
            """
            class Engine:
                def __init__(self):
                    self.ready = True

                def step(self):
                    return self._advance()

                def _advance(self):
                    return 1

            def run():
                engine = Engine()
                return engine.step()
            """,
        )
    )
    assert edge_targets(graph, "repro.sim.a.Engine.step") == {
        "repro.sim.a.Engine._advance"
    }
    # constructor call yields an __init__ edge plus the typed-local call
    run_edges = edge_targets(graph, "repro.sim.a.run")
    assert "repro.sim.a.Engine.__init__" in run_edges
    assert "repro.sim.a.Engine.step" in run_edges


def test_param_annotation_resolves_method_receiver():
    graph = graph_of(
        (
            "src/repro/sim/a.py",
            """
            class Engine:
                def step(self):
                    return 1

            def drive(engine: Engine):
                return engine.step()

            def drive_optional(engine: Engine | None):
                return engine.step()
            """,
        )
    )
    assert edge_targets(graph, "repro.sim.a.drive") == {
        "repro.sim.a.Engine.step"
    }
    assert edge_targets(graph, "repro.sim.a.drive_optional") == {
        "repro.sim.a.Engine.step"
    }


def test_self_attribute_type_inferred_from_assignment():
    graph = graph_of(
        (
            "src/repro/sim/a.py",
            """
            class Engine:
                def step(self):
                    return 1

            class Plane:
                def __init__(self):
                    self.engine = Engine()

                def tick(self):
                    return self.engine.step()
            """,
        )
    )
    assert edge_targets(graph, "repro.sim.a.Plane.tick") == {
        "repro.sim.a.Engine.step"
    }


def test_inherited_method_resolves_through_ancestors():
    graph = graph_of(
        (
            "src/repro/sim/a.py",
            """
            class Base:
                def shared(self):
                    return 1

            class Child(Base):
                def entry(self):
                    return self.shared()
            """,
        )
    )
    assert edge_targets(graph, "repro.sim.a.Child.entry") == {
        "repro.sim.a.Base.shared"
    }


def test_unresolved_receiver_becomes_question_external():
    graph = graph_of(
        (
            "src/repro/sim/a.py",
            """
            def entry(thing):
                return thing.read_text()
            """,
        )
    )
    assert external_names(graph, "repro.sim.a.entry") == {"?.read_text"}
    assert edge_targets(graph, "repro.sim.a.entry") == set()


# ---------------------------------------------------------------------------
# Imports and re-exports


def test_from_import_edge_across_modules():
    graph = graph_of(
        (
            "src/repro/sim/a.py",
            """
            from repro.sim.b import helper

            def entry():
                return helper()
            """,
        ),
        (
            "src/repro/sim/b.py",
            """
            def helper():
                return 1
            """,
        ),
    )
    assert edge_targets(graph, "repro.sim.a.entry") == {
        "repro.sim.b.helper"
    }


def test_reexport_through_package_init_is_chased():
    graph = graph_of(
        (
            "src/repro/sim/__init__.py",
            """
            from .impl import helper
            """,
        ),
        (
            "src/repro/sim/impl.py",
            """
            def helper():
                return 1
            """,
        ),
        (
            "src/repro/core/user.py",
            """
            from repro.sim import helper

            def entry():
                return helper()
            """,
        ),
    )
    assert edge_targets(graph, "repro.core.user.entry") == {
        "repro.sim.impl.helper"
    }


def test_relative_import_resolves_against_package():
    graph = graph_of(
        (
            "src/repro/sim/pkg/__init__.py",
            "",
        ),
        (
            "src/repro/sim/pkg/a.py",
            """
            from .b import helper
            from ..top import other

            def entry():
                return helper() + other()
            """,
        ),
        (
            "src/repro/sim/pkg/b.py",
            """
            def helper():
                return 1
            """,
        ),
        (
            "src/repro/sim/top.py",
            """
            def other():
                return 2
            """,
        ),
    )
    assert edge_targets(graph, "repro.sim.pkg.a.entry") == {
        "repro.sim.pkg.b.helper",
        "repro.sim.top.other",
    }


# ---------------------------------------------------------------------------
# Markers and rendering


def test_blocking_boundary_marker_on_def_line():
    graph = graph_of(
        (
            "src/repro/serve/a.py",
            """
            import os

            def flush(fd):  # lint: blocking-boundary - reviewed
                os.fsync(fd)

            def unmarked(fd):
                os.fsync(fd)
            """,
        )
    )
    assert graph.get("repro.serve.a.flush").blocking_boundary
    assert not graph.get("repro.serve.a.unmarked").blocking_boundary


def test_call_site_boundary_marker_recorded_on_external():
    graph = graph_of(
        (
            "src/repro/serve/a.py",
            """
            import os

            def entry(fd):
                os.fsync(fd)  # lint: blocking-boundary - reviewed edge
            """,
        )
    )
    node = graph.get("repro.serve.a.entry")
    fsyncs = [ext for ext in node.external_calls if ext.name == "os.fsync"]
    assert fsyncs and all(ext.boundary for ext in fsyncs)


def test_render_graph_json_is_valid_and_sorted():
    import json

    graph = graph_of(
        (
            "src/repro/sim/a.py",
            """
            def helper():
                return 1

            def entry():
                return helper()
            """,
        )
    )
    payload = json.loads(render_graph_json(graph))
    assert payload["count"] == 2
    entry = payload["functions"]["repro.sim.a.entry"]
    assert entry["calls"] == ["repro.sim.a.helper"]


def test_graph_over_real_repo_resolves_serve_journal_chain():
    """The chain ASY001 polices must exist in the real source tree."""
    project = ProjectIndex()
    for path in LintEngine.discover(["src/repro/serve", "src/repro/durable.py"]):
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        project.add(ModuleContext(path, source, ast.parse(source)))
    graph = build_call_graph(project)
    append_line = graph.get("repro.durable.append_line")
    assert append_line is not None
    assert "os.fsync" in {ext.name for ext in append_line.external_calls}
    assert "repro.durable.Journal.append" in graph.callers_of(
        "repro.durable.append_line"
    )
    assert "repro.serve.state.ServeState.append" in graph.callers_of(
        "repro.durable.Journal.append"
    )
    append = graph.get("repro.serve.state.ServeState.append")
    assert append is not None
    assert append.blocking_boundary  # the reviewed journal edge
    assert "repro.serve.plane.ControlPlane._journal" in graph.callers_of(
        "repro.serve.state.ServeState.append"
    )
