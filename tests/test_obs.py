"""Tests for the observability layer (events, metrics, spans, wiring)."""

from __future__ import annotations

import json
import logging
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np
import pytest

from repro.baselines import FixedRecommender
from repro.cluster import Cluster, ControlLoop, ControlLoopConfig
from repro.core.config import CaasperConfig
from repro.core.recommender import CaasperRecommender
from repro.db import DBaaSService, DbServiceConfig
from repro.errors import ConfigError
from repro.obs import (
    EVENT_SCHEMA_VERSION,
    DecisionEvent,
    EventBus,
    JsonlSink,
    LoggingSink,
    MetricsRegistry,
    Observer,
    ResizeDeferredEvent,
    ResizeEvent,
    RingBufferSink,
    SpanCollector,
    ThrottledMinuteEvent,
    activate,
    current_collector,
    read_events,
    span,
    timed,
)
from repro.obs import events as events_module
from repro.obs.events import (
    FleetJobFinishedEvent,
    MetricEffect,
    ObsEvent,
    SafeModeEvent,
    event_from_dict,
)
from repro.obs.observer import METRICS_ONLY
from repro.obs.trace_log import decision_events
from repro.sim.simulator import SimulatorConfig, simulate_trace
from repro.trace import CpuTrace


def daily_trace(days: int = 1) -> CpuTrace:
    minutes = days * 24 * 60
    t = np.arange(minutes)
    return CpuTrace(3.0 + 2.0 * np.sin(2 * np.pi * t / (24 * 60)), "daily")


def run_instrumented(trace: CpuTrace, **observer_kwargs) -> tuple:
    observer = Observer(**observer_kwargs)
    recommender = CaasperRecommender(CaasperConfig(max_cores=16))
    config = SimulatorConfig(initial_cores=4, max_cores=16)
    result = simulate_trace(trace, recommender, config, observer=observer)
    return result, observer, config


class TestEventBus:
    def test_fan_out_preserves_order_and_reaches_every_sink(self):
        first: list = []
        second = RingBufferSink(capacity=8)
        bus = EventBus([first.append])
        bus.subscribe(second)
        events = [
            ResizeEvent(minute=5, decided_minute=0, from_cores=2, to_cores=4),
            ThrottledMinuteEvent(minute=6, demand_cores=5.0, limit_cores=4.0),
        ]
        for event in events:
            bus.emit(event)
        assert first == events
        assert second.events == events

    def test_callable_and_accept_sinks_are_equivalent(self):
        seen: list = []

        class Sink:
            def accept(self, event):
                seen.append(event)

        bus = EventBus([Sink(), seen.append])
        bus.emit(ResizeDeferredEvent(minute=1, reason="cooldown"))
        assert len(seen) == 2

    def test_sink_errors_propagate(self):
        def broken(event):
            raise RuntimeError("sink down")

        bus = EventBus([broken])
        with pytest.raises(RuntimeError):
            bus.emit(ThrottledMinuteEvent(minute=0))


class TestRingBufferSink:
    def test_eviction_keeps_most_recent(self):
        ring = RingBufferSink(capacity=3)
        for minute in range(10):
            ring.accept(ThrottledMinuteEvent(minute=minute))
        assert [event.minute for event in ring.events] == [7, 8, 9]
        assert len(ring) == 3

    def test_of_kind_filters(self):
        ring = RingBufferSink(capacity=10)
        ring.accept(ThrottledMinuteEvent(minute=1))
        ring.accept(ResizeEvent(minute=2, decided_minute=1))
        assert [e.minute for e in ring.of_kind("resize")] == [2]

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)


class TestJsonlRoundTrip:
    def test_write_parse_reconstruct_decision_fields(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        original = DecisionEvent(
            minute=40,
            recommender="caasper",
            current_cores=4,
            raw_target_cores=9,
            target_cores=8,
            branch="scale_up",
            reason="scale up: slope 4.00 >= s_h 3.00",
            slope=4.0,
            skew=1.25,
            scaling_factor=2.5,
            usage_quantile=3.75,
            clamped=True,
            window_stats={"samples": 40.0, "mean_cores": 3.1},
            elapsed_seconds=0.001,
        )
        with JsonlSink(path) as sink:
            sink.accept(original)
            sink.accept(
                ResizeEvent(minute=45, decided_minute=40, from_cores=4, to_cores=8)
            )
        events = read_events(path)
        assert len(events) == 2
        restored = events[0]
        assert restored == original
        # The ReactiveDecision-equivalent derivation survives intact.
        assert restored.branch == "scale_up"
        assert restored.slope == 4.0
        assert restored.skew == 1.25
        assert restored.raw_scaling_factor == 2.5
        assert restored.usage_quantile == 3.75
        assert restored.delta == 4
        assert restored.is_scaling
        resize = events[1]
        assert isinstance(resize, ResizeEvent)
        assert resize.latency_minutes == 5

    def test_lines_are_flat_json_with_kind(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            sink.accept(ThrottledMinuteEvent(minute=7, demand_cores=5.0, limit_cores=3.0))
        payload = json.loads(path.read_text().strip())
        assert payload["kind"] == "throttled"
        assert payload["minute"] == 7
        assert payload["schema_version"] == EVENT_SCHEMA_VERSION
        payload.pop("schema_version")
        assert event_from_dict(payload).insufficient_cores == 2.0

    def test_unknown_kind_fails_loudly(self):
        with pytest.raises(KeyError):
            event_from_dict({"kind": "wat", "minute": 0})

    def test_serve_events_round_trip(self, tmp_path):
        # The eight control-plane kinds must survive the same JSONL
        # round trip the simulator events do, or `caasper serve --jsonl`
        # traces become unreadable by the replay tooling.
        from repro.obs.events import (
            AdmissionRejectedEvent,
            BreakerTransitionEvent,
            DrainEvent,
            StateRecoveredEvent,
            TelemetryShedEvent,
            TenantQuarantineEvent,
            TenantRegisteredEvent,
            TenantRestartEvent,
        )

        originals = [
            TenantRegisteredEvent(minute=0, tenant="t0", seed=7),
            TelemetryShedEvent(
                minute=3, tenant="t0", dropped=2, queue_capacity=4
            ),
            AdmissionRejectedEvent(
                minute=4, tenant="t1", reason="saturated"
            ),
            BreakerTransitionEvent(
                minute=9,
                tenant="t0",
                from_state="closed",
                to_state="open",
                failures=3,
            ),
            TenantRestartEvent(
                minute=10,
                tenant="t0",
                attempt=1,
                backoff_ticks=2,
                error="FaultError: injected",
            ),
            TenantQuarantineEvent(minute=15, tenant="t0", restarts=3),
            DrainEvent(minute=20, action="begin", reason="sigterm", pending=5),
            StateRecoveredEvent(
                minute=21, recovered_tenants=2, records=40, snapshot_tick=12
            ),
        ]
        path = tmp_path / "serve.jsonl"
        with JsonlSink(path) as sink:
            for event in originals:
                sink.accept(event)
        assert read_events(path) == originals


class TestLoggingSink:
    def test_bridges_to_stdlib_logging(self, caplog):
        sink = LoggingSink(logging.getLogger("test.obs"), level=logging.WARNING)
        with caplog.at_level(logging.WARNING, logger="test.obs"):
            sink.accept(ResizeDeferredEvent(minute=3, reason="cooldown"))
        assert "resize_deferred" in caplog.text
        assert "cooldown" in caplog.text


class TestMetricsRegistry:
    def test_counter_labels_and_text_exposition(self):
        registry = MetricsRegistry()
        counter = registry.counter("decisions_total", "d", labelnames=("branch",))
        counter.inc(branch="scale_up")
        counter.inc(branch="scale_up")
        counter.inc(branch="hold")
        text = registry.render_text()
        assert 'decisions_total{branch="scale_up"} 2' in text
        assert 'decisions_total{branch="hold"} 1' in text
        assert "# TYPE decisions_total counter" in text

    def test_counter_cannot_decrease_but_gauge_can(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigError):
            registry.counter("ups").inc(-1)
        gauge = registry.gauge("cores")
        gauge.set(8)
        gauge.dec(3)
        assert gauge.value() == 5

    def test_reregistration_is_idempotent_but_type_checked(self):
        registry = MetricsRegistry()
        a = registry.counter("hits")
        assert registry.counter("hits") is a
        with pytest.raises(ConfigError):
            registry.gauge("hits")

    def test_histogram_percentiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(1.0, 10.0, 100.0))
        for value in range(1, 101):
            hist.observe(float(value))
        assert hist.count() == 100
        assert hist.percentile(50.0) == pytest.approx(50.5)
        assert hist.percentile(95.0) == pytest.approx(95.05)
        assert hist.percentile(0.0) == 1.0
        assert hist.percentile(100.0) == 100.0
        assert math.isnan(registry.histogram("empty").percentile(50.0))

    def test_label_values_are_escaped_in_exposition(self):
        # Deferral reasons and error text are free-form: embedded
        # backslashes, quotes and newlines must not corrupt the scrape.
        registry = MetricsRegistry()
        counter = registry.counter(
            "deferrals_total", "d", labelnames=("reason",)
        )
        counter.inc(reason='path\\to "thing"\nnext line')
        text = registry.render_text()
        expected = (
            'deferrals_total{reason="path\\\\to \\"thing\\"\\nnext line"} 1'
        )
        assert expected in text
        # The exposition stays one record per line: no raw newline leaks.
        for line in text.splitlines():
            if line.startswith("deferrals_total{"):
                assert line == expected

    def test_histogram_percentile_edge_cases(self):
        registry = MetricsRegistry()
        # Empty series: NaN at every quantile, never a crash.
        empty = registry.histogram("empty_lat", buckets=(1.0,))
        for q in (0.0, 50.0, 100.0):
            assert math.isnan(empty.percentile(q))
        # Single sample: every quantile collapses to that sample.
        single = registry.histogram("single_lat", buckets=(1.0,))
        single.observe(0.25)
        for q in (0.0, 50.0, 99.0, 100.0):
            assert single.percentile(q) == pytest.approx(0.25)
        # Labelled child that was never observed is empty too.
        labelled = registry.histogram(
            "lab_lat", buckets=(1.0,), labelnames=("op",)
        )
        labelled.observe(2.0, op="seen")
        assert math.isnan(labelled.percentile(50.0, op="unseen"))
        assert labelled.percentile(50.0, op="seen") == pytest.approx(2.0)
        with pytest.raises(ConfigError):
            labelled.percentile(101.0, op="seen")

    def test_histogram_cumulative_buckets_render(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        text = registry.render_text()
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="10"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_count 3" in text

    def test_snapshot_is_jsonable(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(3)
        registry.histogram("lat").observe(0.5)
        snapshot = json.loads(json.dumps(registry.snapshot()))
        assert snapshot["hits"]["values"][""] == 3
        assert snapshot["lat"]["values"][""]["count"] == 1


class TestSpans:
    def test_nesting_attributes_child_time_to_parent(self):
        ticks = iter(range(100))
        collector = SpanCollector(keep_records=True, clock=lambda: float(next(ticks)))
        with collector.span("outer"):
            with collector.span("inner"):
                pass
        outer = collector.stats["outer"]
        inner = collector.stats["inner"]
        # clock ticks: outer start=0, inner start=1, inner end=2, outer end=3
        assert outer.total_seconds == 3.0
        assert inner.total_seconds == 1.0
        assert outer.self_seconds == 2.0
        record = next(r for r in collector.records if r.name == "inner")
        assert record.parent == "outer"
        assert record.depth == 1

    def test_timing_is_monotonic_nonnegative(self):
        collector = SpanCollector()
        with collector.span("a"):
            with collector.span("b"):
                sum(range(1000))
        for stats in collector.stats.values():
            assert stats.total_seconds >= 0.0
            assert stats.self_seconds >= 0.0
            assert stats.min_seconds <= stats.max_seconds

    def test_ambient_span_is_noop_without_collector(self):
        assert current_collector() is None
        with span("nothing"):
            pass  # must not raise or record anywhere

    def test_activate_scopes_the_ambient_collector(self):
        collector = SpanCollector()
        with activate(collector):
            assert current_collector() is collector
            with span("work"):
                pass
        assert current_collector() is None
        assert collector.stats["work"].count == 1

    def test_timed_decorator_uses_ambient_collector(self):
        @timed("math.add")
        def add(a, b):
            return a + b

        collector = SpanCollector()
        assert add(1, 2) == 3  # no collector: plain call
        with activate(collector):
            assert add(3, 4) == 7
        assert collector.stats["math.add"].count == 1

    def test_top_ranks_by_total_time(self):
        ticks = iter([0.0, 10.0, 20.0, 21.0])
        collector = SpanCollector(clock=lambda: float(next(ticks)))
        with collector.span("slow"):
            pass
        with collector.span("fast"):
            pass
        assert [s.name for s in collector.top(2)] == ["slow", "fast"]
        assert "slow" in collector.render_top(1)
        assert "fast" not in collector.render_top(1)


class TestObserverHelpers:
    def test_decision_uses_derivation_when_available(self):
        observer = Observer()
        recommender = CaasperRecommender(CaasperConfig(max_cores=16))
        for minute in range(40):
            recommender.observe(minute, 2.9, 3)
        recommender.recommend(40, 3)
        event = observer.emit(
            DecisionEvent.from_derivation(
                minute=40,
                recommender=recommender.name,
                current_cores=3,
                raw_target_cores=6,
                target_cores=5,
                derivation=recommender.last_decision,
                window_stats=recommender.window_stats(),
            )
        )
        assert event.branch == recommender.last_decision.branch
        assert event.slope == recommender.last_decision.slope
        assert event.clamped
        assert event.window_stats["samples"] == 40.0

    def test_opaque_decision_has_null_derivation(self):
        observer = Observer()
        event = observer.emit(
            DecisionEvent.from_derivation(
                minute=10,
                recommender="fixed",
                current_cores=4,
                raw_target_cores=4,
                target_cores=4,
            )
        )
        assert event.branch == "opaque"
        assert event.slope is None
        assert observer.metrics.counter(
            "decisions_total", labelnames=("branch",)
        ).value(branch="opaque") == 1

    def test_sample_accumulates_running_totals(self):
        observer = Observer()
        observer.sample(0, demand_cores=2.0, usage_cores=2.0, limit_cores=4.0)
        observer.sample(1, demand_cores=6.0, usage_cores=4.0, limit_cores=4.0)
        metrics = observer.metrics
        assert metrics.counter("slack_core_minutes_total").value() == 2.0
        assert metrics.counter("insufficient_core_minutes_total").value() == 2.0
        assert metrics.counter("throttled_minutes_total").value() == 1.0
        assert len(observer.events_of_kind("throttled")) == 1


class TestDeclaredEvents:
    def test_new_event_needs_only_its_class(self, monkeypatch, tmp_path):
        """One class declares an event; emit stamps, counts and logs it."""
        monkeypatch.setattr(
            events_module, "_EVENT_TYPES", dict(events_module._EVENT_TYPES)
        )

        @dataclass(frozen=True)
        class PingEvent(ObsEvent):
            kind: ClassVar[str] = "ping"
            discriminator = "{target}"
            metrics = (
                MetricEffect("pings_total", "Pings by target", label="target"),
            )

            target: str = ""

        path = tmp_path / "trace.jsonl"
        observer = Observer(sinks=(JsonlSink(path),))
        with observer.trace("simulate:ping") as tracer:
            stamped = observer.emit(PingEvent(minute=5, target="db"))
        observer.close()

        assert stamped.trace_id == tracer.trace_id
        assert stamped.span_id == tracer.span_id("ping", 5, "db")
        assert stamped.parent_span_id == tracer.root_span_id
        assert 'pings_total{target="db"} 1' in observer.metrics.render_text()
        assert read_events(path)[-1] == stamped

    def test_journaled_fleet_job_counts_without_timing(self):
        observer = Observer()
        for journaled in (False, True):
            observer.emit(
                FleetJobFinishedEvent(
                    minute=0, job_id="j", elapsed_seconds=2.0, journaled=journaled
                )
            )
        jobs = observer.metrics.counter("fleet_jobs_total", labelnames=("status",))
        assert jobs.value(status="ok") == 1.0
        assert jobs.value(status="journaled") == 1.0
        assert observer.metrics.histogram("fleet_job_seconds").count() == 1

    def test_safe_mode_hold_counts_without_an_event(self):
        observer = Observer()
        observer.emit(SafeModeEvent(minute=1, action="enter"))
        observer.update_metrics(SafeModeEvent(minute=2, action="hold"))
        observer.emit(SafeModeEvent(minute=3, action="exit"))
        assert observer.metrics.counter("safe_mode_minutes").value() == 2.0
        actions = [event.action for event in observer.events_of_kind("safe_mode")]
        assert actions == ["enter", "exit"]

    @staticmethod
    def _doc_table(heading: str) -> set[str]:
        """First-column names of the table following ``heading``."""
        doc = (
            Path(__file__).parents[1] / "docs" / "OBSERVABILITY.md"
        ).read_text(encoding="utf-8")
        table = doc.split(heading, 1)[1].split("\n\n", 2)[1]
        return set(re.findall(r"^\| `(\w+)", table, flags=re.MULTILINE))

    def test_docs_list_exactly_the_declared_families(self):
        declared = {
            effect.family
            for cls in events_module._EVENT_TYPES.values()
            for effect in cls.metrics
        } | {effect.family for effect in METRICS_ONLY}
        assert self._doc_table("Standard families") == declared

    def test_docs_list_exactly_the_registered_kinds(self):
        documented = self._doc_table("round-trips losslessly.")
        assert documented == set(events_module._EVENT_TYPES)


class TestSimulatorIntegration:
    def test_one_decision_event_per_decision_interval(self):
        trace = daily_trace()
        result, observer, config = run_instrumented(trace)
        decisions = observer.decisions()
        deferred = observer.events_of_kind("resize_deferred")
        interval = config.decision_interval_minutes
        decision_minutes = {
            minute
            for minute in range(trace.minutes)
            if minute > 0 and minute % interval == 0
        }
        # Every decision minute is either a consultation or a recorded
        # deferral (cooldown / resize in flight) — nothing is silent.
        assert {e.minute for e in decisions} | {
            e.minute for e in deferred
        } == decision_minutes
        assert all(e.recommender == "caasper" for e in decisions)

    def test_one_resize_event_per_scaling_event(self):
        trace = daily_trace()
        result, observer, _ = run_instrumented(trace)
        resizes = observer.events_of_kind("resize")
        assert len(resizes) == len(result.events) == result.metrics.num_scalings
        for recorded, simulated in zip(resizes, result.events):
            assert recorded.minute == simulated.enacted_minute
            assert recorded.decided_minute == simulated.decided_minute
            assert recorded.from_cores == simulated.from_cores
            assert recorded.to_cores == simulated.to_cores

    def test_observer_does_not_change_behaviour(self):
        trace = daily_trace()
        config = SimulatorConfig(initial_cores=4, max_cores=16)
        plain = simulate_trace(
            trace,
            CaasperRecommender(CaasperConfig(max_cores=16)),
            config,
        )
        observed = simulate_trace(
            trace,
            CaasperRecommender(CaasperConfig(max_cores=16)),
            config,
            observer=Observer(),
        )
        assert plain.metrics.total_slack == observed.metrics.total_slack
        assert (
            plain.metrics.total_insufficient_cpu
            == observed.metrics.total_insufficient_cpu
        )
        assert plain.metrics.num_scalings == observed.metrics.num_scalings
        np.testing.assert_array_equal(plain.limits, observed.limits)
        np.testing.assert_array_equal(plain.usage, observed.usage)

    def test_required_metric_families_exposed(self):
        trace = daily_trace()
        _, observer, _ = run_instrumented(trace)
        text = observer.metrics.render_text()
        assert "decisions_total{branch=" in text
        assert "resizes_total" in text
        assert "sim_step_seconds_bucket" in text
        assert "sim_step_seconds_count" in text

    def test_hot_path_spans_recorded(self):
        trace = daily_trace()
        _, observer, _ = run_instrumented(trace)
        names = set(observer.spans.stats)
        assert "sim.simulate_trace" in names
        assert "core.reactive.decide" in names
        assert "core.pvp.from_trace" in names

    def test_jsonl_sink_round_trips_simulation_trail(self, tmp_path):
        path = tmp_path / "run.jsonl"
        trace = daily_trace()
        observer = Observer(sinks=[JsonlSink(path)])
        recommender = CaasperRecommender(CaasperConfig(max_cores=16))
        result = simulate_trace(
            trace,
            recommender,
            SimulatorConfig(initial_cores=4, max_cores=16),
            observer=observer,
        )
        observer.close()
        events = read_events(path)
        decisions = decision_events(events)
        assert len(decisions) == len(observer.decisions())
        for event in decisions:
            payload = event.to_dict()
            for key in (
                "minute",
                "branch",
                "reason",
                "slope",
                "skew",
                "scaling_factor",
                "current_cores",
                "target_cores",
            ):
                assert key in payload
        resizes = [e for e in events if e.kind == "resize"]
        assert len(resizes) == len(result.events)


class TestProactiveSpans:
    def test_forecaster_predict_span_recorded(self):
        minutes = 3 * 24 * 60
        t = np.arange(minutes)
        trace = CpuTrace(3.0 + 2.0 * np.sin(2 * np.pi * t / (24 * 60)), "daily3")
        observer = Observer()
        recommender = CaasperRecommender(
            CaasperConfig(
                max_cores=16,
                proactive=True,
                seasonal_period_minutes=24 * 60,
            ),
        )
        simulate_trace(
            trace,
            recommender,
            SimulatorConfig(initial_cores=4, max_cores=16),
            observer=observer,
        )
        assert any(
            name.startswith("forecast.") for name in observer.spans.stats
        ), observer.spans.stats.keys()


class TestMetricsServerSatellite:
    def test_publish_feeds_obs_registry(self):
        cluster = Cluster.small()
        service = DBaaSService(
            DbServiceConfig(replicas=3, initial_cores=4),
            cluster.scheduler,
            cluster.events,
        )
        observer = Observer()
        loop = ControlLoop(
            service, FixedRecommender(4), ControlLoopConfig(), observer=observer
        )
        outcomes = [loop.step(minute, 2.5) for minute in range(2)]
        target = service.stateful_set.name
        metrics = observer.metrics
        assert metrics.gauge(
            "metrics_server_usage_cores", labelnames=("target",)
        ).value(target=target) == outcomes[-1].primary_usage_cores
        assert metrics.gauge(
            "metrics_server_limit_cores", labelnames=("target",)
        ).value(target=target) == outcomes[-1].client_limit_cores
        assert metrics.counter(
            "metrics_server_samples_total", labelnames=("target",)
        ).value(target=target) == 2


class TestExplainFromTrace:
    def test_explain_trace_matches_observer_and_jsonl(self, tmp_path):
        from repro.analysis.explain import branch_summary, explain_trace

        path = tmp_path / "run.jsonl"
        trace = daily_trace()
        observer = Observer(sinks=[JsonlSink(path)])
        recommender = CaasperRecommender(CaasperConfig(max_cores=16))
        simulate_trace(
            trace,
            recommender,
            SimulatorConfig(initial_cores=4, max_cores=16),
            observer=observer,
        )
        observer.close()
        from_observer = explain_trace(observer, limit=None)
        from_file = explain_trace(str(path), limit=None)
        assert from_observer == from_file
        assert "decision audit for 'caasper'" in from_file
        counts = branch_summary(observer.decisions())
        assert sum(counts.values()) == len(observer.decisions())

    def test_explain_decisions_prefers_observer_trail(self):
        from repro.analysis.explain import explain_decisions

        trace = daily_trace()
        observer = Observer()
        recommender = CaasperRecommender(CaasperConfig(max_cores=16))
        simulate_trace(
            trace,
            recommender,
            SimulatorConfig(initial_cores=4, max_cores=16),
            observer=observer,
        )
        # The recorded events explain the run; the recommender itself
        # keeps only its latest derivation.
        report = explain_decisions(recommender, observer=observer)
        assert "decision audit" in report


class TestObsCli:
    def test_obs_command(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "events.jsonl"
        assert (
            main(
                [
                    "obs",
                    "--trace",
                    "fig9-workday",
                    "--jsonl",
                    str(out),
                    "--metrics-text",
                    "--top-spans",
                    "3",
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "consultations" in printed
        assert "decisions_total{branch=" in printed
        assert "sim.simulate_trace" in printed
        events = read_events(out)
        assert decision_events(events)
