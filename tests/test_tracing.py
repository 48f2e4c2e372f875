"""Causal tracing: deterministic ids, stamping, exporters, fleet identity.

The acceptance contract this file enforces:

- trace/span ids are pure functions of ``(seed, name, kind, minute)``
  — no wall clock, no ``hash()``, no object identity;
- ``observer=None`` runs are bit-identical to traced runs in K/C/N,
  limits and usage (tracing observes, it never steers);
- exported trace JSONL is byte-identical for a serial sweep and a
  fleet run at workers {1, 2, 4} (job-level traces, fleet progress
  events excluded);
- the JSONL schema is forward-compatible: records carry
  ``schema_version`` and readers tolerate (and count) unknown kinds.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.fleet import FleetRunner, sweep_plan
from repro.obs import (
    EVENT_SCHEMA_VERSION,
    JsonlSink,
    Observer,
    load_trace,
    read_events,
)
from repro.obs.events import DecisionEvent, ResizeEvent, event_from_dict
from repro.obs.tracing import (
    Tracer,
    build_trace_graph,
    derive_trace_id,
    export_trace_jsonl,
    fleet_trace_name,
    live_trace_name,
    render_chrome_trace,
    render_trace_jsonl,
    simulate_trace_name,
    span_id_for,
    trace_ids_of,
)
from repro.core.config import CaasperConfig
from repro.core.recommender import CaasperRecommender
from repro.sim.simulator import SimulatorConfig, simulate_trace
from repro.sim.sweep import run_sweep
from repro.trace import CpuTrace
from repro.workloads.synthetic import noisy, square_wave


@pytest.fixture(autouse=True)
def _hard_timeout(hard_timeout):
    """Fleet-spawning tests run under the shared conftest hang guard."""
    yield


def small_traces(count: int = 3, minutes: int = 200) -> list[CpuTrace]:
    return [
        noisy(
            CpuTrace.constant(1.5 + index, minutes, f"trace-{index}"),
            sigma=0.15,
            seed=11 + index,
        )
        for index in range(count)
    ]


def traced_run(observer: Observer | None = None):
    """One short square-wave simulation; returns (result, observer)."""
    observer = observer if observer is not None else Observer()
    trace = square_wave(total_hours=10.0)
    recommender = CaasperRecommender(CaasperConfig(max_cores=16, c_min=2))
    config = SimulatorConfig(initial_cores=4, max_cores=16)
    result = simulate_trace(trace, recommender, config, observer=observer)
    return result, observer


class TestIdDerivation:
    def test_trace_id_is_pure_and_stable(self):
        first = derive_trace_id(3, "simulate:square-wave-62h:caasper")
        second = derive_trace_id(3, "simulate:square-wave-62h:caasper")
        assert first == second
        assert len(first) == 16
        assert int(first, 16) >= 0  # hex

    def test_trace_id_varies_with_seed_and_name(self):
        base = derive_trace_id(0, "simulate:a:b")
        assert derive_trace_id(1, "simulate:a:b") != base
        assert derive_trace_id(0, "simulate:a:c") != base

    def test_span_id_distinguishes_kind_minute_discriminator(self):
        tid = derive_trace_id(0, "simulate:a:b")
        base = span_id_for(tid, "decision", 10)
        assert span_id_for(tid, "decision", 10) == base
        assert span_id_for(tid, "resize", 10) != base
        assert span_id_for(tid, "decision", 20) != base
        assert span_id_for(tid, "decision", 10, "retry") != base

    def test_canonical_trace_names(self):
        assert simulate_trace_name("d", "r") == "simulate:d:r"
        assert live_trace_name("w", "r") == "live:w:r"
        assert fleet_trace_name("sweep") == "fleet:sweep"

    def test_tracer_root_span_is_deterministic(self):
        one = Tracer("simulate:a:b", seed=5)
        two = Tracer("simulate:a:b", seed=5)
        assert one.trace_id == two.trace_id
        assert one.root_span_id == two.root_span_id


class TestRunStamping:
    def test_every_buffered_event_is_stamped(self):
        _, observer = traced_run()
        events = list(observer.ring)
        assert events, "run emitted no events"
        trace_ids = {event.trace_id for event in events}
        assert len(trace_ids) == 1
        assert "" not in trace_ids
        assert all(event.span_id for event in events)

    def test_auto_opened_trace_name_matches_run_identity(self):
        _, observer = traced_run()
        started = observer.events_of_kind("trace_started")
        assert len(started) == 1
        assert started[0].name == "simulate:square-wave-62h:caasper"
        assert started[0].trace_id == derive_trace_id(
            0, "simulate:square-wave-62h:caasper"
        )

    def test_resize_descends_from_its_decision(self):
        _, observer = traced_run()
        graph = build_trace_graph(observer.ring)
        resizes = [
            event for event in observer.ring if event.kind == "resize"
        ]
        assert resizes, "run enacted no resizes"
        for event in resizes:
            chain = graph.chain(event.span_id)
            kinds = [span.kind for span in chain]
            assert kinds[0] == "resize"
            assert "decision" in kinds, "resize not linked to a decision"
            assert kinds[-1] == "trace_started", "chain did not reach root"

    def test_explicit_trace_scopes_and_restores(self):
        observer = Observer()
        with observer.trace("simulate:outer:caasper", seed=1) as tracer:
            assert observer.tracer is tracer
            inner_ids = trace_ids_of(list(observer.ring))
            assert inner_ids == [tracer.trace_id]
        assert observer.tracer is None


class TestObserverNeutrality:
    def test_observer_none_bit_identical_kcn(self):
        trace = square_wave(total_hours=10.0)
        config = SimulatorConfig(initial_cores=4, max_cores=16)

        def run(observer):
            recommender = CaasperRecommender(CaasperConfig(max_cores=16, c_min=2))
            return simulate_trace(
                trace, recommender, config, observer=observer
            )

        bare = run(None)
        traced = run(Observer())
        assert bare.metrics.total_slack == traced.metrics.total_slack
        assert (
            bare.metrics.total_insufficient_cpu
            == traced.metrics.total_insufficient_cpu
        )
        assert bare.metrics.num_scalings == traced.metrics.num_scalings
        np.testing.assert_array_equal(bare.limits, traced.limits)
        np.testing.assert_array_equal(bare.usage, traced.usage)


class TestExporters:
    def test_trace_jsonl_is_byte_deterministic(self):
        _, first = traced_run()
        _, second = traced_run()
        assert render_trace_jsonl(first.ring) == render_trace_jsonl(
            second.ring
        )

    def test_trace_jsonl_drops_wall_clock_fields(self):
        _, observer = traced_run()
        rendered = render_trace_jsonl(observer.ring)
        assert rendered
        for line in rendered.splitlines():
            payload = json.loads(line)
            assert "elapsed_seconds" not in payload
            assert payload["trace_id"]

    def test_trace_id_filter_exports_one_run(self, tmp_path):
        observer = Observer()
        traced_run(observer=observer)
        with observer.trace("simulate:other:caasper", seed=9):
            pass
        ids = trace_ids_of(list(observer.ring))
        assert len(ids) == 2
        path = export_trace_jsonl(
            observer.ring, tmp_path / "one.jsonl", trace_id=ids[0]
        )
        for line in path.read_text().splitlines():
            assert json.loads(line)["trace_id"] == ids[0]

    def test_chrome_trace_shape(self):
        _, observer = traced_run()
        document = json.loads(render_chrome_trace(observer.ring))
        events = document["traceEvents"]
        assert any(e["ph"] == "M" for e in events), "no process metadata"
        complete = [e for e in events if e["ph"] == "X"]
        assert complete, "no complete events"
        # A resize lane spans decided -> enacted in the minute timebase.
        resizes = [e for e in complete if e["name"] == "resize"]
        assert resizes
        for entry in resizes:
            args = entry["args"]
            expected = max(
                args["minute"] - args["decided_minute"], 1
            ) * 60_000_000
            assert entry["dur"] == expected

    def test_chrome_trace_is_byte_deterministic(self):
        _, first = traced_run()
        _, second = traced_run()
        assert render_chrome_trace(first.ring) == render_chrome_trace(
            second.ring
        )


def job_level(events):
    """Job traces only: the fleet root and runner progress events are
    fleet-specific, everything else must match the serial run."""
    return [
        event
        for event in events
        if not event.kind.startswith("fleet_")
        and not (
            event.kind == "trace_started"
            and event.name.startswith("fleet:")
        )
    ]


class TestFleetByteIdentity:
    def test_serial_and_fleet_traces_byte_identical(self):
        traces = small_traces()
        serial = Observer()
        run_sweep(traces, observer=serial)
        reference = render_trace_jsonl(job_level(list(serial.ring)))
        assert reference, "serial sweep stamped no events"
        for workers in (1, 2, 4):
            observer = Observer()
            FleetRunner(workers=workers, observer=observer).run(sweep_plan(traces))
            rendered = render_trace_jsonl(job_level(list(observer.ring)))
            assert rendered == reference, (
                f"workers={workers} trace diverged from serial"
            )

    def test_fleet_root_trace_present_but_excluded(self):
        observer = Observer()
        FleetRunner(workers=2, observer=observer).run(
            sweep_plan(small_traces(count=2))
        )
        started = observer.events_of_kind("trace_started")
        names = {event.name for event in started}
        assert any(name.startswith("fleet:") for name in names)
        filtered = job_level(list(observer.ring))
        assert all(
            not event.name.startswith("fleet:")
            for event in filtered
            if event.kind == "trace_started"
        )


class TestSchemaForwardCompat:
    def test_sink_stamps_schema_version_on_every_record(self, tmp_path):
        path = tmp_path / "run.jsonl"
        observer = Observer(sinks=(JsonlSink(path),))
        traced_run(observer=observer)
        observer.close()
        lines = path.read_text().splitlines()
        assert lines
        for line in lines:
            assert json.loads(line)["schema_version"] == EVENT_SCHEMA_VERSION

    def test_round_trip_preserves_stamps(self, tmp_path):
        path = tmp_path / "run.jsonl"
        observer = Observer(sinks=(JsonlSink(path),))
        traced_run(observer=observer)
        observer.close()
        loaded = load_trace(path)
        assert not loaded.skipped
        assert loaded.events == list(observer.ring)

    def test_unknown_kinds_are_skipped_and_counted(self, tmp_path):
        known = DecisionEvent(
            minute=10, recommender="caasper", current_cores=4, target_cores=5
        ).to_dict()
        known["schema_version"] = EVENT_SCHEMA_VERSION
        future = {
            "kind": "from_the_future",
            "minute": 11,
            "schema_version": EVENT_SCHEMA_VERSION + 1,
            "payload": {"new": True},
        }
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            "\n".join(json.dumps(p) for p in (known, future, future, known))
            + "\n"
        )
        loaded = load_trace(path)
        assert len(loaded.events) == 2
        assert loaded.skipped == {"from_the_future": 2}
        assert loaded.skipped_total == 2
        # The streaming readers skip silently but stay typed.
        assert [e.kind for e in read_events(path)] == ["decision", "decision"]

    def test_event_from_dict_stays_strict(self):
        with pytest.raises(KeyError):
            event_from_dict({"kind": "from_the_future", "minute": 0})


class TestGraphResilience:
    def test_chain_stops_at_truncated_parent(self):
        tid = derive_trace_id(0, "simulate:a:b")
        decision_span = span_id_for(tid, "decision", 10)
        resize = ResizeEvent(
            minute=20,
            decided_minute=10,
            from_cores=3,
            to_cores=4,
            trace_id=tid,
            span_id=span_id_for(tid, "resize", 20),
            parent_span_id=decision_span,
        )
        # The decision itself was truncated out of the log.
        graph = build_trace_graph([resize])
        chain = graph.chain(resize.span_id)
        assert [span.kind for span in chain] == ["resize"]

    def test_duplicate_span_ids_collapse(self):
        tid = derive_trace_id(0, "simulate:a:b")
        span = span_id_for(tid, "decision", 10)
        first = DecisionEvent(
            minute=10, recommender="caasper", trace_id=tid, span_id=span
        )
        second = DecisionEvent(
            minute=10,
            recommender="caasper",
            branch="scale_up",
            trace_id=tid,
            span_id=span,
        )
        graph = build_trace_graph([first, second])
        assert len(graph.spans) == 1
        assert graph.spans[span].payload["branch"] == "scale_up"
