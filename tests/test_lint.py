"""Unit tests for the ``repro.lint`` rule engine.

Every shipped rule gets a minimal bad snippet it must flag and a
minimal good snippet it must stay quiet on (the ISSUE acceptance
criterion), plus suppression-comment and reporter coverage. Snippets
are linted in memory via :func:`repro.lint.lint_sources` with paths
chosen to land inside (or outside) each rule's domain.
"""

from __future__ import annotations

import json
import textwrap
from dataclasses import dataclass
from typing import ClassVar

import pytest

from repro.lint import (
    Finding,
    LintEngine,
    Severity,
    lint_sources,
    make_rules,
    registered_rules,
    render_json,
    render_rule_list,
    render_text,
)
from repro.obs import events

ALL_CODES = (
    "API001",
    "ASY001",
    "CFG001",
    "DET001",
    "DET002",
    "DET003",
    "DET101",
    "EXC001",
    "EXC101",
    "NUM001",
    "OBS001",
    "OBS002",
)

SIM_PATH = "src/repro/sim/snippet.py"
CORE_PATH = "src/repro/core/snippet.py"
FLEET_PATH = "src/repro/fleet/snippet.py"
SERVE_PATH = "src/repro/serve/snippet.py"
ENGINE_PATH = "src/repro/engine/snippet.py"
TEST_PATH = "tests/snippet.py"


def run_lint(source: str, path: str = SIM_PATH, **kwargs):
    """Lint one dedented snippet, returning the findings list."""
    report = lint_sources([(path, textwrap.dedent(source))], **kwargs)
    assert not report.parse_errors
    return report.findings


def codes(findings: list[Finding]) -> set[str]:
    return {finding.code for finding in findings}


# ---------------------------------------------------------------------------
# Registry


def test_all_rules_registered():
    assert tuple(sorted(registered_rules())) == ALL_CODES


def test_registry_rejects_unknown_select():
    with pytest.raises(ValueError, match="unknown rule code"):
        make_rules(select=("ZZZ999",))


def test_registry_rejects_unknown_ignore():
    with pytest.raises(ValueError, match="unknown rule code"):
        make_rules(ignore=("ZZZ999",))


def test_select_narrows_to_one_rule():
    rules = make_rules(select=("DET001",))
    assert [rule.code for rule in rules] == ["DET001"]


# ---------------------------------------------------------------------------
# DET001: wall-clock reads in deterministic domains


def test_det001_flags_time_time():
    findings = run_lint(
        """
        import time

        def stamp() -> float:
            return time.time()
        """
    )
    assert "DET001" in codes(findings)


def test_det001_flags_datetime_now_via_from_import():
    findings = run_lint(
        """
        from datetime import datetime

        def stamp():
            return datetime.now()
        """
    )
    assert "DET001" in codes(findings)


def test_det001_allows_perf_counter():
    findings = run_lint(
        """
        import time

        def elapsed() -> float:
            start = time.perf_counter()
            return time.perf_counter() - start
        """
    )
    assert "DET001" not in codes(findings)


def test_det001_ignores_modules_outside_domain():
    findings = run_lint(
        """
        import time

        def stamp() -> float:
            return time.time()
        """,
        path=TEST_PATH,
    )
    assert "DET001" not in codes(findings)


def test_det001_covers_fleet_domain():
    # repro.fleet merges results deterministically, so wall-clock reads
    # are as illegal there as in the simulator.
    findings = run_lint(
        """
        import time

        def stamp() -> float:
            return time.time()
        """,
        path=FLEET_PATH,
    )
    assert "DET001" in codes(findings)


def test_det001_allows_monotonic_deadlines_in_fleet():
    findings = run_lint(
        """
        import time

        def deadline(timeout: float) -> float:
            return time.monotonic() + timeout
        """,
        path=FLEET_PATH,
    )
    assert "DET001" not in codes(findings)


def test_det001_covers_serve_domain():
    # The serve plane replays its journal through the same code paths
    # that ran live, so a wall-clock read anywhere in repro.serve would
    # silently break crash recovery.
    findings = run_lint(
        """
        import time

        def stamp() -> float:
            return time.time()
        """,
        path=SERVE_PATH,
    )
    assert "DET001" in codes(findings)


def test_det001_serve_io_edge_suppression():
    # The daemon's access log is the one sanctioned wall-clock read;
    # it carries an inline suppression with a reason.
    findings = run_lint(
        """
        import time

        def wall_seconds() -> float:
            return time.time()  # lint: disable=DET001 - serve I/O edge
        """,
        path=SERVE_PATH,
    )
    assert "DET001" not in codes(findings)


def test_det001_allows_perf_counter_in_serve():
    findings = run_lint(
        """
        import time

        def elapsed(start: float) -> float:
            return time.perf_counter() - start
        """,
        path=SERVE_PATH,
    )
    assert "DET001" not in codes(findings)


def test_det001_covers_engine_domain():
    # The batch engine's byte-identity contract makes it exactly as
    # deterministic as the simulator it replaces.
    findings = run_lint(
        """
        import time

        def stamp() -> float:
            return time.time()
        """,
        path=ENGINE_PATH,
    )
    assert "DET001" in codes(findings)


def test_det001_allows_perf_counter_in_engine():
    # BatchEngine times its batch for the engine_batch event; elapsed
    # measurement is sanctioned, absolute time is not.
    findings = run_lint(
        """
        import time

        def elapsed(start: float) -> float:
            return time.perf_counter() - start
        """,
        path=ENGINE_PATH,
    )
    assert "DET001" not in codes(findings)


# ---------------------------------------------------------------------------
# DET002: unseeded randomness


def test_det002_flags_module_level_numpy_random():
    findings = run_lint(
        """
        import numpy as np

        def draw() -> float:
            return float(np.random.rand())
        """
    )
    assert "DET002" in codes(findings)


def test_det002_flags_random_module_function():
    findings = run_lint(
        """
        from random import randint

        def draw() -> int:
            return randint(0, 10)
        """
    )
    assert "DET002" in codes(findings)


def test_det002_covers_fleet_domain():
    # Per-job seeds must derive from the plan seed; an ambient RNG in
    # the fleet layer would break bit-identical parallel replays.
    findings = run_lint(
        """
        import random

        def shard() -> float:
            return random.random()
        """,
        path=FLEET_PATH,
    )
    assert "DET002" in codes(findings)


def test_det002_covers_engine_domain():
    # A batch lane drawing from ambient RNG could never be
    # byte-identical to its scalar twin.
    findings = run_lint(
        """
        import numpy as np

        def jitter(lanes: int):
            return np.random.rand(lanes)
        """,
        path=ENGINE_PATH,
    )
    assert "DET002" in codes(findings)


def test_det002_allows_seeded_generator():
    findings = run_lint(
        """
        import numpy as np
        import random

        def draw(seed: int) -> float:
            rng = np.random.default_rng(seed)
            local = random.Random(seed)
            return rng.uniform(0.0, 1.0) + local.random()
        """
    )
    assert "DET002" not in codes(findings)


# ---------------------------------------------------------------------------
# DET003: unordered iteration feeding results


def test_det003_flags_set_iteration():
    findings = run_lint(
        """
        def names(pods: list[str]) -> list[str]:
            out = []
            for name in set(pods):
                out.append(name)
            return out
        """
    )
    assert "DET003" in codes(findings)


def test_det003_flags_set_intersection_comprehension():
    findings = run_lint(
        """
        def shared(a: set[str]) -> list[str]:
            return [name for name in a & {"primary", "replica"}]
        """
    )
    assert "DET003" in codes(findings)


def test_det003_allows_sorted_set():
    findings = run_lint(
        """
        def names(pods: list[str]) -> list[str]:
            return [name for name in sorted(set(pods))]
        """
    )
    assert "DET003" not in codes(findings)


# ---------------------------------------------------------------------------
# NUM001: float equality in core algorithm modules


def test_num001_flags_float_literal_equality():
    findings = run_lint(
        """
        def at_limit(usage: float) -> bool:
            return usage == 0.75
        """,
        path=CORE_PATH,
    )
    assert "NUM001" in codes(findings)


def test_num001_flags_annotated_float_field():
    findings = run_lint(
        """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Policy:
            jitter_fraction: float = 0.0

            def disabled(self) -> bool:
                return self.jitter_fraction == 0
        """,
        path=CORE_PATH,
    )
    assert "NUM001" in codes(findings)


def test_num001_covers_engine_domain():
    # The kernels compare decision thresholds; an exact float == there
    # is exactly the bug class NUM001 exists for.
    findings = run_lint(
        """
        def flat_top(slope: float) -> bool:
            return slope == 0.5
        """,
        path=ENGINE_PATH,
    )
    assert "NUM001" in codes(findings)


def test_num001_allows_engine_branch_gates():
    # The kernel's real comparisons are inequalities against thresholds
    # and integer lane state — neither may flag.
    findings = run_lint(
        """
        def gates(slope: float, s_high: float, cur: int, c_min: int) -> bool:
            return slope >= s_high and cur == c_min
        """,
        path=ENGINE_PATH,
    )
    assert "NUM001" not in codes(findings)


def test_num001_allows_integer_equality():
    findings = run_lint(
        """
        def is_first(minute: int) -> bool:
            return minute == 0
        """,
        path=CORE_PATH,
    )
    assert "NUM001" not in codes(findings)


def test_num001_allows_inequality_threshold():
    findings = run_lint(
        """
        def saturated(usage: float) -> bool:
            return usage >= 0.75
        """,
        path=CORE_PATH,
    )
    assert "NUM001" not in codes(findings)


# ---------------------------------------------------------------------------
# EXC001: broad excepts swallowing fault signals


def test_exc001_flags_bare_except():
    findings = run_lint(
        """
        def safe(step):
            try:
                step()
            except:
                pass
        """
    )
    assert "EXC001" in codes(findings)


def test_exc001_flags_broad_except_exception():
    findings = run_lint(
        """
        def safe(step):
            try:
                step()
            except Exception:
                return None
        """
    )
    assert "EXC001" in codes(findings)


def test_exc001_allows_broad_except_that_reraises():
    findings = run_lint(
        """
        def safe(step):
            try:
                step()
            except Exception:
                cleanup()
                raise
        """
    )
    assert "EXC001" not in codes(findings)


def test_exc001_allows_narrow_except():
    findings = run_lint(
        """
        from repro.errors import ConfigError

        def safe(step):
            try:
                step()
            except ConfigError:
                return None
        """
    )
    assert "EXC001" not in codes(findings)


# ---------------------------------------------------------------------------
# API001: Recommender protocol conformance


RECOMMENDER_BASE = """
    from abc import ABC, abstractmethod

    class Recommender(ABC):
        @abstractmethod
        def observe(self, minute, usage, limit):
            ...

        @abstractmethod
        def recommend(self, minute, current_limit):
            ...

        def window_stats(self):
            return {}

        def reset(self):
            pass
"""


def test_api001_flags_wrong_observe_signature():
    findings = run_lint(
        RECOMMENDER_BASE
        + """
        class Drifter(Recommender):
            def observe(self, usage):
                pass

            def recommend(self, minute, current_limit):
                return current_limit
        """,
        path="src/repro/baselines/snippet.py",
    )
    assert "API001" in codes(findings)


def test_api001_flags_last_decision_method():
    findings = run_lint(
        RECOMMENDER_BASE
        + """
        class Shadow(Recommender):
            def observe(self, minute, usage, limit):
                pass

            def recommend(self, minute, current_limit):
                return current_limit

            def last_decision(self):
                return None
        """,
        path="src/repro/baselines/snippet.py",
    )
    assert "API001" in codes(findings)


def test_api001_flags_concrete_leaf_missing_recommend():
    findings = run_lint(
        RECOMMENDER_BASE
        + """
        class Hollow(Recommender):
            def observe(self, minute, usage, limit):
                pass
        """,
        path="src/repro/baselines/snippet.py",
    )
    assert "API001" in codes(findings)


def test_api001_quiet_on_conforming_subclass():
    findings = run_lint(
        RECOMMENDER_BASE
        + """
        class Steady(Recommender):
            def observe(self, minute, usage, limit):
                pass

            def recommend(self, minute, current_limit):
                return current_limit
        """,
        path="src/repro/baselines/snippet.py",
    )
    assert "API001" not in codes(findings)


def test_api001_allows_extra_defaulted_parameters():
    findings = run_lint(
        RECOMMENDER_BASE
        + """
        class Tunable(Recommender):
            def observe(self, minute, usage, limit, weight=1.0):
                pass

            def recommend(self, minute, current_limit, headroom=0.0):
                return current_limit
        """,
        path="src/repro/baselines/snippet.py",
    )
    assert "API001" not in codes(findings)


# ---------------------------------------------------------------------------
# OBS001: every emitted event type is declared


def test_obs001_flags_event_subclass_outside_events_module():
    findings = run_lint(
        """
        from repro.obs.events import ObsEvent

        class RogueEvent(ObsEvent):
            pass
        """,
        path="src/repro/cluster/snippet.py",
    )
    assert "OBS001" in codes(findings)


def test_obs001_flags_undeclared_emit():
    events_module = """
        class ObsEvent:
            pass

        class DecisionEvent(ObsEvent):
            pass

        __all__ = ["ObsEvent", "DecisionEvent"]
    """
    emitter = """
        def run(observer):
            observer.emit(MysteryEvent(minute=0))
    """
    report = lint_sources(
        [
            ("src/repro/obs/events.py", textwrap.dedent(events_module)),
            ("src/repro/cluster/snippet.py", textwrap.dedent(emitter)),
        ]
    )
    assert "OBS001" in codes(report.findings)


def test_obs001_quiet_on_declared_emit():
    events_module = """
        class ObsEvent:
            pass

        class DecisionEvent(ObsEvent):
            pass

        __all__ = ["ObsEvent", "DecisionEvent"]
    """
    emitter = """
        from repro.obs.events import DecisionEvent

        def run(observer):
            observer.emit(DecisionEvent(minute=0))
    """
    report = lint_sources(
        [
            ("src/repro/obs/events.py", textwrap.dedent(events_module)),
            ("src/repro/cluster/snippet.py", textwrap.dedent(emitter)),
        ]
    )
    assert "OBS001" not in codes(report.findings)


def test_event_left_out_of_all_still_round_trips(monkeypatch):
    """Defining an event registers it; ``__all__`` no longer matters."""

    monkeypatch.setattr(events, "_EVENT_TYPES", dict(events._EVENT_TYPES))

    @dataclass(frozen=True)
    class UnexportedEvent(events.ObsEvent):
        kind: ClassVar[str] = "unexported"

        note: str = ""

    assert "UnexportedEvent" not in events.__all__
    original = UnexportedEvent(minute=3, note="kept")
    assert events.event_from_dict(original.to_dict()) == original


# ---------------------------------------------------------------------------
# OBS002: span/trace names must come from the registered vocabulary

NAMES_MODULE_SOURCE = """
    SPAN_NAMES = (
        "sim.simulate_trace",
    )

    SPAN_NAME_PREFIXES = (
        "sweep.trace.",
    )

    TRACE_NAMES = ()

    TRACE_NAME_PREFIXES = (
        "simulate:",
    )
"""


def lint_with_names(snippet: str, path: str = SIM_PATH):
    return lint_sources(
        [
            ("src/repro/obs/names.py", textwrap.dedent(NAMES_MODULE_SOURCE)),
            (path, textwrap.dedent(snippet)),
        ]
    )


def test_obs002_flags_unregistered_span_literal():
    report = lint_with_names(
        """
        from repro.obs.spans import span

        def run():
            with span("sim.simulte_trace"):
                pass
        """
    )
    assert "OBS002" in codes(report.findings)


def test_obs002_flags_unregistered_fstring_head():
    report = lint_with_names(
        """
        from repro.obs.spans import span

        def run(trace):
            with span(f"adhoc.{trace.name}"):
                pass
        """
    )
    assert "OBS002" in codes(report.findings)


def test_obs002_flags_unregistered_trace_name():
    report = lint_with_names(
        """
        def run(observer):
            with observer.trace("experiment:foo"):
                pass
        """
    )
    assert "OBS002" in codes(report.findings)


def test_obs002_quiet_on_registered_names():
    report = lint_with_names(
        """
        from repro.obs.spans import span, timed

        @timed("sim.simulate_trace")
        def run(observer, trace):
            with span("sim.simulate_trace"):
                pass
            with span(f"sweep.trace.{trace.name}"):
                pass
            with observer.trace(f"simulate:{trace.name}"):
                pass
        """
    )
    assert "OBS002" not in codes(report.findings)


def test_obs002_quiet_on_dynamic_name_variables():
    # A name bound earlier is best-effort-skipped (mirrors OBS001's
    # treatment of pre-bound event objects).
    report = lint_with_names(
        """
        from repro.obs.spans import span

        def run(name):
            with span(name):
                pass
        """
    )
    assert "OBS002" not in codes(report.findings)


def test_obs002_skips_partial_tree_without_registry():
    findings = run_lint(
        """
        from repro.obs.spans import span

        def run():
            with span("totally.unregistered"):
                pass
        """
    )
    assert "OBS002" not in codes(findings)


# ---------------------------------------------------------------------------
# CFG001: frozen config dataclasses must self-validate


def test_cfg001_flags_config_without_post_init():
    findings = run_lint(
        """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class WindowConfig:
            low: float = 0.2
            high: float = 0.8
        """,
        path=CORE_PATH,
    )
    assert "CFG001" in codes(findings)


def test_cfg001_quiet_with_validating_post_init():
    findings = run_lint(
        """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class WindowConfig:
            low: float = 0.2
            high: float = 0.8

            def __post_init__(self) -> None:
                if not self.low < self.high:
                    raise ValueError("low must be < high")
        """,
        path=CORE_PATH,
    )
    assert "CFG001" not in codes(findings)


def test_cfg001_ignores_non_config_dataclass():
    findings = run_lint(
        """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Sample:
            minute: int = 0
        """,
        path=CORE_PATH,
    )
    assert "CFG001" not in codes(findings)


# ---------------------------------------------------------------------------
# Suppressions


def test_line_suppression_silences_finding():
    findings = run_lint(
        """
        import time

        def stamp() -> float:
            return time.time()  # lint: disable=DET001
        """
    )
    assert "DET001" not in codes(findings)


def test_line_suppression_is_code_specific():
    findings = run_lint(
        """
        import time

        def stamp() -> float:
            return time.time()  # lint: disable=NUM001
        """
    )
    assert "DET001" in codes(findings)


def test_file_suppression_silences_whole_file():
    findings = run_lint(
        """
        # lint: disable-file=DET001
        import time

        def stamp() -> float:
            return time.time()

        def stamp2() -> float:
            return time.time()
        """
    )
    assert "DET001" not in codes(findings)


def test_suppressed_count_reported():
    report = lint_sources(
        [
            (
                SIM_PATH,
                textwrap.dedent(
                    """
                    import time

                    def stamp() -> float:
                        return time.time()  # lint: disable=DET001
                    """
                ),
            )
        ]
    )
    assert report.suppressed == 1


# ---------------------------------------------------------------------------
# Report mechanics and reporters


def test_parse_error_recorded_and_fails():
    report = lint_sources([(SIM_PATH, "def broken(:\n")])
    assert report.parse_errors
    assert report.exit_code(strict=False) == 1


def test_exit_codes():
    clean = lint_sources([(SIM_PATH, "x = 1\n")])
    assert clean.exit_code(strict=False) == 0
    assert clean.exit_code(strict=True) == 0

    dirty = lint_sources(
        [(SIM_PATH, "import time\n\n\ndef f():\n    return time.time()\n")]
    )
    assert dirty.exit_code(strict=False) == 1
    assert dirty.exit_code(strict=True) == 1


def test_findings_sorted_and_stable():
    source = textwrap.dedent(
        """
        import time

        def b() -> float:
            return time.time()

        def a() -> float:
            return time.time()
        """
    )
    report = lint_sources([(SIM_PATH, source)])
    keys = [finding.sort_key() for finding in report.findings]
    assert keys == sorted(keys)


def test_render_json_round_trips():
    report = lint_sources(
        [(SIM_PATH, "import time\n\n\ndef f():\n    return time.time()\n")]
    )
    payload = json.loads(render_json(report))
    assert payload["files_checked"] == 1
    assert payload["findings"]
    entry = payload["findings"][0]
    assert entry["code"] == "DET001"
    assert entry["path"] == SIM_PATH
    assert entry["severity"] == "error"
    assert isinstance(entry["line"], int)


def test_render_text_mentions_code_and_summary():
    report = lint_sources(
        [(SIM_PATH, "import time\n\n\ndef f():\n    return time.time()\n")]
    )
    text = render_text(report)
    assert "DET001" in text
    assert SIM_PATH in text
    assert "1 error" in text


def test_render_rule_list_covers_every_code():
    listing = render_rule_list()
    for code in ALL_CODES:
        assert code in listing


def test_severity_ordering():
    assert Severity.ERROR.rank > Severity.WARNING.rank


def test_engine_discovers_sorted_files(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "b.py").write_text("x = 1\n")
    (pkg / "a.py").write_text("y = 2\n")
    cache = pkg / "__pycache__"
    cache.mkdir()
    (cache / "a.cpython-311.py").write_text("z = 3\n")
    import os

    files = LintEngine.discover([str(pkg)])
    assert [os.path.basename(f) for f in files] == ["a.py", "b.py"]
