"""The diagnostics layer: episodes, attribution, decomposition, rollup.

The acceptance contract this file enforces: ``caasper report`` over a
kitchen-sink chaos log attributes every insufficient-CPU interval to a
causal chain **or** explicitly marks it unattributed with a reason —
and the attribution machinery itself (windowing, cause priority,
episode segmentation) behaves as documented in ``docs/REPORTING.md``.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import CaasperConfig
from repro.core.recommender import CaasperRecommender
from repro.faults.scenarios import make_scenario
from repro.fleet import FleetRunner, sweep_plan
from repro.obs import JsonlSink, Observer
from repro.obs.events import (
    DecisionEvent,
    ResizeEvent,
    RollbackEvent,
    ThrottledMinuteEvent,
    TraceStartedEvent,
)
from repro.obs.tracing import derive_trace_id, span_id_for
from repro.report import (
    ATTRIBUTION_WINDOW_MINUTES,
    build_fleet_report,
    build_run_report,
    render_json,
    render_text,
    split_runs,
)
from repro.sim.live import LiveSystemConfig, simulate_live
from repro.sim.simulator import SimulatorConfig, simulate_trace
from repro.trace import CpuTrace
from repro.workloads.base import TraceWorkload
from repro.workloads.synthetic import cyclical_days, noisy, square_wave


@pytest.fixture(autouse=True)
def _hard_timeout(hard_timeout):
    """Chaos and fleet tests run under the shared conftest hang guard."""
    yield


# ---------------------------------------------------------------------------
# Synthetic event streams (unit-level attribution semantics)

TID = derive_trace_id(0, "live:synthetic:caasper")


def _sid(kind: str, minute: int) -> str:
    return span_id_for(TID, kind, minute)


def _root() -> TraceStartedEvent:
    return TraceStartedEvent(
        minute=0,
        trace_id=TID,
        span_id=span_id_for(TID, "run", -1),
        name="live:synthetic:caasper",
        seed=0,
    )


def _throttled(minute: int, demand: float = 5.0, limit: float = 3.0):
    return ThrottledMinuteEvent(
        minute=minute,
        demand_cores=demand,
        limit_cores=limit,
        trace_id=TID,
        span_id=_sid("throttled", minute),
        parent_span_id=span_id_for(TID, "run", -1),
    )


def _decision(minute: int, current: int, target: int, branch: str = ""):
    return DecisionEvent(
        minute=minute,
        recommender="caasper",
        current_cores=current,
        target_cores=target,
        branch=branch,
        trace_id=TID,
        span_id=_sid("decision", minute),
        parent_span_id=span_id_for(TID, "run", -1),
    )


def _resize(minute: int, decided: int, from_cores: int, to_cores: int):
    return ResizeEvent(
        minute=minute,
        decided_minute=decided,
        from_cores=from_cores,
        to_cores=to_cores,
        trace_id=TID,
        span_id=_sid("resize", minute),
        parent_span_id=_sid("decision", decided),
    )


class TestEpisodeSegmentation:
    def test_consecutive_minutes_merge_and_gaps_split(self):
        events = [
            _root(),
            _decision(5, 4, 4, branch="hold"),
            _throttled(10),
            _throttled(11),
            _throttled(12),
            _throttled(20),
        ]
        report = build_run_report(events, TID)
        assert [(e.start_minute, e.end_minute) for e in report.episodes] == [
            (10, 12),
            (20, 20),
        ]
        assert report.episodes[0].minutes == 3
        assert report.episodes[0].total_insufficient_cores == pytest.approx(
            3 * 2.0
        )
        assert report.episodes[0].peak_insufficient_cores == pytest.approx(2.0)

    def test_every_throttled_minute_lands_in_exactly_one_episode(self):
        minutes = [3, 4, 7, 8, 9, 15]
        events = [_root()] + [_throttled(m) for m in minutes]
        report = build_run_report(events, TID)
        covered = [
            m
            for episode in report.episodes
            for m in range(episode.start_minute, episode.end_minute + 1)
        ]
        assert covered == minutes


class TestAttributionWindow:
    def test_downward_resize_within_window_is_blamed(self):
        events = [
            _root(),
            _decision(30, 6, 3, branch="walk_down"),
            _resize(40, 30, 6, 3),
            _throttled(50),
        ]
        report = build_run_report(events, TID)
        (episode,) = report.episodes
        assert episode.attributed
        assert episode.cause.kind == "resize"
        assert episode.cause.minute == 40
        # The chain walks resize -> decision -> run root.
        kinds = [link.kind for link in episode.chain]
        assert kinds == ["resize", "decision", "trace_started"]

    def test_stale_candidate_beyond_window_is_rejected(self):
        stale_minute = 40
        throttle_minute = stale_minute + ATTRIBUTION_WINDOW_MINUTES + 1
        events = [
            _root(),
            _decision(30, 6, 3, branch="walk_down"),
            _resize(stale_minute, 30, 6, 3),
            _throttled(throttle_minute),
        ]
        report = build_run_report(events, TID)
        (episode,) = report.episodes
        assert not episode.attributed
        assert episode.note == (
            f"no causal event within {ATTRIBUTION_WINDOW_MINUTES} minutes"
        )

    def test_pre_first_decision_throttling_gets_the_warmup_note(self):
        events = [_root(), _throttled(2), _decision(10, 4, 4)]
        report = build_run_report(events, TID)
        (episode,) = report.episodes
        assert not episode.attributed
        assert "initial allocation" in episode.note

    def test_priority_breaks_same_minute_ties(self):
        # A rollback and a downward decision land on the same minute;
        # the rollback is the more direct explanation and must win.
        rollback = RollbackEvent(
            minute=45,
            update_id=1,
            from_cores=6,
            to_cores=3,
            stuck_minutes=15,
            trace_id=TID,
            span_id=_sid("rollback", 45),
            parent_span_id=span_id_for(TID, "run", -1),
        )
        events = [
            _root(),
            _decision(45, 6, 3, branch="scale_down"),
            rollback,
            _throttled(50),
        ]
        report = build_run_report(events, TID)
        (episode,) = report.episodes
        assert episode.attributed
        assert episode.cause.kind == "rollback"

    def test_nearest_candidate_wins_over_earlier_ones(self):
        events = [
            _root(),
            _decision(10, 6, 3, branch="walk_down"),
            _resize(20, 10, 6, 3),
            _decision(40, 3, 2, branch="walk_down"),
            _resize(45, 40, 3, 2),
            _throttled(50),
        ]
        report = build_run_report(events, TID)
        (episode,) = report.episodes
        assert episode.cause.minute == 45


# ---------------------------------------------------------------------------
# Real runs


def chaos_events(minutes: int = 720, seed: int = 3) -> list:
    """One kitchen-sink chaos run's buffered event trail."""
    trace = cyclical_days(days=1, name="chaos-cyclical").window(0, minutes)
    workload = TraceWorkload(trace)
    plan = make_scenario(
        "kitchen-sink", seed=seed, horizon_minutes=workload.minutes
    )
    recommender = CaasperRecommender(CaasperConfig(c_min=2, max_cores=16))
    observer = Observer(ring_capacity=16384)
    simulate_live(
        workload,
        recommender,
        LiveSystemConfig(),
        observer=observer,
        faults=plan,
    )
    return list(observer.ring)


@pytest.fixture(scope="module")
def chaos_report():
    events = chaos_events()
    runs = split_runs(events)
    assert len(runs) == 1
    (trace_id,) = runs
    return build_run_report(events, trace_id), events


class TestChaosAttribution:
    def test_every_episode_is_attributed_or_explicitly_marked(
        self, chaos_report
    ):
        report, events = chaos_report
        throttled = sum(1 for e in events if e.kind == "throttled")
        assert report.episodes, "chaos run produced no throttling"
        assert (
            sum(episode.minutes for episode in report.episodes) == throttled
        ), "episodes do not cover every insufficient-CPU minute"
        for episode in report.episodes:
            if episode.attributed:
                assert episode.chain, "attributed episode lacks its chain"
                assert episode.chain[0].kind == episode.cause.kind
            else:
                assert episode.note, "unattributed episode lacks a reason"

    def test_chaos_run_attributes_most_episodes(self, chaos_report):
        report, _ = chaos_report
        # Kitchen-sink injects rollbacks, abandoned retries, quarantines
        # and faults — the engine must tie throttling back to them.
        assert report.attributed_count > 0
        assert report.attributed_count >= report.unattributed_count

    def test_run_identity_comes_from_the_trace_start(self, chaos_report):
        report, _ = chaos_report
        assert report.name.startswith("live:chaos-cyclical:")
        # Chaos runs key their trace on the fault-plan seed.
        assert report.seed == 3
        assert report.trace_id == derive_trace_id(report.seed, report.name)


class TestDecisionRecords:
    def test_enactment_latency_matches_resize_delay(self):
        observer = Observer()
        trace = square_wave(total_hours=10.0)
        recommender = CaasperRecommender(CaasperConfig(max_cores=16, c_min=2))
        config = SimulatorConfig(
            initial_cores=4, max_cores=16, resize_delay_minutes=10
        )
        simulate_trace(trace, recommender, config, observer=observer)
        events = list(observer.ring)
        (trace_id,) = split_runs(events)
        report = build_run_report(events, trace_id)
        enacted = [
            record
            for record in report.decisions
            if record.enacted_minute is not None
        ]
        assert enacted, "no decision was enacted"
        for record in enacted:
            assert record.latency_minutes == config.resize_delay_minutes
        resizes = sum(1 for event in events if event.kind == "resize")
        assert len(enacted) == resizes

    def test_branch_decomposition_conserves_c_and_n(self):
        observer = Observer()
        trace = noisy(
            CpuTrace.constant(4.0, 300, "steady"), sigma=0.3, seed=5
        )
        recommender = CaasperRecommender(CaasperConfig(max_cores=16, c_min=2))
        simulate_trace(
            trace,
            recommender,
            SimulatorConfig(initial_cores=3, max_cores=16),
            observer=observer,
        )
        events = list(observer.ring)
        (trace_id,) = split_runs(events)
        report = build_run_report(events, trace_id)
        total_c = sum(
            max(e.demand_cores - e.limit_cores, 0.0)
            for e in events
            if e.kind == "throttled"
        )
        assert sum(
            b.insufficient_core_minutes for b in report.branches
        ) == pytest.approx(total_c)
        assert sum(b.resizes for b in report.branches) == sum(
            1 for e in events if e.kind == "resize"
        )
        assert sum(b.decisions for b in report.branches) == len(
            report.decisions
        )


class TestReporters:
    def test_text_report_has_attribution_line(self, chaos_report):
        report, _ = chaos_report
        text = render_text(report)
        assert f"run {report.name}" in text
        assert (
            f"attribution: {len(report.episodes)} episodes, "
            f"{report.attributed_count} attributed, "
            f"{report.unattributed_count} unattributed"
        ) in text

    def test_text_marks_unattributed_episodes(self):
        events = [_root(), _throttled(2), _decision(10, 4, 4)]
        report = build_run_report(events, TID)
        text = render_text(report)
        assert "UNATTRIBUTED (" in text
        assert "initial allocation" in text

    def test_json_report_round_trips(self, chaos_report):
        report, _ = chaos_report
        payload = json.loads(render_json(report))
        assert payload["trace_id"] == report.trace_id
        assert payload["episodes_attributed"] == report.attributed_count
        assert len(payload["decisions"]) == len(report.decisions)
        assert len(payload["episodes"]) == len(report.episodes)
        for episode in payload["episodes"]:
            assert episode["attributed"] == (episode["cause"] is not None)


def small_traces(count: int = 3, minutes: int = 200) -> list[CpuTrace]:
    return [
        noisy(
            CpuTrace.constant(1.5 + index, minutes, f"trace-{index}"),
            sigma=0.15,
            seed=21 + index,
        )
        for index in range(count)
    ]


class TestFleetRollup:
    def test_fleet_report_rolls_up_runs_and_jobs(self):
        observer = Observer(ring_capacity=16384)
        traces = small_traces()
        FleetRunner(workers=2, observer=observer).run(sweep_plan(traces))
        report = build_fleet_report(list(observer.ring))
        assert len(report.runs) == len(traces)
        assert len(report.fleet_traces) == 1
        assert report.fleet_traces[0]["name"].startswith("fleet:")
        assert report.jobs_ok == len(traces)
        assert report.jobs_failed == 0
        text = render_text(report)
        assert text.splitlines()[-1].startswith(
            f"total: {len(traces)} runs,"
        )

    def test_fleet_report_identical_across_worker_counts(self):
        traces = small_traces()
        rendered = []
        for workers in (1, 2):
            observer = Observer(ring_capacity=16384)
            FleetRunner(workers=workers, observer=observer).run(
                sweep_plan(traces)
            )
            rendered.append(
                render_json(build_fleet_report(list(observer.ring)))
            )
        assert rendered[0] == rendered[1]


class TestReportCli:
    def test_report_events_text_and_json(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "run.jsonl"
        observer = Observer(sinks=(JsonlSink(path),), buffer_events=False)
        trace = square_wave(total_hours=10.0)
        recommender = CaasperRecommender(CaasperConfig(max_cores=16, c_min=2))
        simulate_trace(
            trace,
            recommender,
            SimulatorConfig(initial_cores=4, max_cores=16),
            observer=observer,
        )
        observer.close()

        assert main(["report", "--events", str(path)]) == 0
        text = capsys.readouterr().out
        assert "attribution: " in text
        assert "total: 1 runs," in text

        chrome = tmp_path / "trace.json"
        assert (
            main(
                [
                    "report",
                    "--events",
                    str(path),
                    "--format",
                    "json",
                    "--chrome",
                    str(chrome),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        payload = json.loads(out[: out.rindex("}") + 1])
        assert payload["total_episodes"] >= 0
        document = json.loads(chrome.read_text())
        assert any(e["ph"] == "X" for e in document["traceEvents"])

    def test_report_tolerates_future_events_with_a_note(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        path = tmp_path / "future.jsonl"
        lines = [
            json.dumps(_root().to_dict()),
            json.dumps(_throttled(5).to_dict()),
            json.dumps({"kind": "hologram", "minute": 6}),
        ]
        path.write_text("\n".join(lines) + "\n")
        assert main(["report", "--events", str(path)]) == 0
        captured = capsys.readouterr()
        assert "attribution: 1 episodes" in captured.out
        assert "unknown" in captured.err
        assert "hologram=1" in captured.err
