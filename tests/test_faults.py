"""Tests for the fault-injection subsystem (:mod:`repro.faults`)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.node import Node
from repro.core import CaasperConfig, CaasperRecommender
from repro.errors import ConfigError, FaultError, ForecastError
from repro.faults import (
    ActuationFault,
    ComponentFault,
    FaultPlan,
    NodeFault,
    TelemetryFault,
)
from repro.faults.injection import HANG_RESTART_MINUTES
from repro.faults.scenarios import SCENARIOS, make_scenario, scenario_names
from repro.obs import Observer
from repro.sim.live import LiveSystemConfig, simulate_live
from repro.trace import CpuTrace
from repro.workloads.base import TraceWorkload
from repro.workloads.synthetic import noisy

#: Degradation-ladder event kinds compared for replay determinism.
CHAOS_EVENT_KINDS = (
    "fault_injected",
    "safe_mode",
    "retry",
    "rollback",
    "quarantine",
)


@pytest.fixture(autouse=True)
def _hard_timeout(hard_timeout):
    """Every chaos test runs under the shared conftest hang guard."""
    yield


def short_workload(minutes=240):
    ramp = np.concatenate(
        [
            np.linspace(2.0, 7.0, minutes // 2),
            np.linspace(7.0, 2.0, minutes - minutes // 2),
        ]
    )
    return TraceWorkload(
        noisy(CpuTrace(ramp, "chaos-ramp"), sigma=0.05, seed=11)
    )


def fresh_recommender(**kwargs):
    defaults = dict(max_cores=12, c_min=2)
    defaults.update(kwargs)
    return CaasperRecommender(CaasperConfig(**defaults))


def chaos_trail(observer):
    """The deterministic degradation-ladder event trail of one run."""
    return [
        event.to_dict()
        for kind in CHAOS_EVENT_KINDS
        for event in observer.events_of_kind(kind)
    ]


class TestFaultSpecs:
    def test_window_validation(self):
        with pytest.raises(ConfigError):
            TelemetryFault(start_minute=-1)
        with pytest.raises(ConfigError):
            TelemetryFault(start_minute=10, end_minute=10)

    def test_probability_validation(self):
        with pytest.raises(ConfigError):
            TelemetryFault(probability=1.5)
        with pytest.raises(ConfigError):
            TelemetryFault(probability=-0.1)

    def test_mode_validation(self):
        with pytest.raises(ConfigError):
            TelemetryFault(mode="explode")
        with pytest.raises(ConfigError):
            ActuationFault(mode="explode")
        with pytest.raises(ConfigError):
            ComponentFault(component="scheduler")
        with pytest.raises(ConfigError):
            NodeFault(pressure_cores=0.0)

    def test_in_window_half_open(self):
        spec = TelemetryFault(start_minute=10, end_minute=20)
        assert not spec.in_window(9)
        assert spec.in_window(10)
        assert spec.in_window(19)
        assert not spec.in_window(20)

    def test_open_ended_window(self):
        spec = TelemetryFault(start_minute=5)
        assert spec.in_window(10**6)
        assert not spec.in_window(4)

    def test_activity_is_pure(self):
        """Repeated queries never disagree — no shared RNG stream."""
        spec = TelemetryFault(probability=0.5, end_minute=500)
        first = [spec.active(7, 0, minute) for minute in range(500)]
        second = [spec.active(7, 0, minute) for minute in range(500)]
        assert first == second
        assert any(first) and not all(first)

    def test_activity_depends_on_seed_and_index(self):
        spec = TelemetryFault(probability=0.5, end_minute=500)
        base = [spec.active(1, 0, minute) for minute in range(500)]
        assert base != [spec.active(2, 0, minute) for minute in range(500)]
        assert base != [spec.active(1, 1, minute) for minute in range(500)]

    def test_probability_extremes(self):
        always = TelemetryFault(probability=1.0, end_minute=10)
        never = TelemetryFault(probability=0.0, end_minute=10)
        assert all(always.active(0, 0, m) for m in range(10))
        assert not any(never.active(0, 0, m) for m in range(10))


class TestFaultPlan:
    def test_rejects_non_spec_entries(self):
        with pytest.raises(ConfigError):
            FaultPlan(faults=("not a spec",))

    def test_build_returns_fresh_injectors(self):
        plan = FaultPlan(faults=(TelemetryFault(mode="drop"),))
        first, second = plan.build(), plan.build()
        assert first is not second
        first.telemetry(0, 1.0)
        assert first.total_fires == 1
        assert second.total_fires == 0

    def test_of_kind(self):
        plan = FaultPlan(
            faults=(TelemetryFault(), ActuationFault(), TelemetryFault())
        )
        assert len(plan.of_kind("telemetry")) == 2
        assert len(plan.of_kind("actuation")) == 1
        assert plan.of_kind("node") == ()


class TestInjectorSeams:
    def test_telemetry_drop_nan_stale(self):
        plan = FaultPlan(
            faults=(
                TelemetryFault(mode="drop", start_minute=0, end_minute=1),
                TelemetryFault(mode="nan", start_minute=2, end_minute=3),
                TelemetryFault(mode="stale", start_minute=4, end_minute=5),
            )
        )
        injector = plan.build()
        value, label = injector.telemetry(0, 3.0)
        assert value is None and label == "telemetry_drop"
        value, label = injector.telemetry(1, 3.5)  # healthy, remembered
        assert value == 3.5 and label is None
        value, label = injector.telemetry(2, 4.0)
        assert math.isnan(value) and label == "telemetry_nan"
        value, label = injector.telemetry(4, 9.9)
        assert value == 3.5 and label == "telemetry_stale"

    def test_stale_without_history_degrades_to_drop(self):
        injector = FaultPlan(faults=(TelemetryFault(mode="stale"),)).build()
        value, label = injector.telemetry(0, 2.0)
        assert value is None and label == "telemetry_drop"

    def test_actuation_reject_and_durations(self):
        plan = FaultPlan(
            faults=(
                ActuationFault(mode="reject", start_minute=0, end_minute=1),
                ActuationFault(
                    mode="slow_restart",
                    extra_restart_minutes=7,
                    start_minute=2,
                    end_minute=3,
                ),
                ActuationFault(
                    mode="hang_restart", start_minute=4, end_minute=5
                ),
            )
        )
        injector = plan.build()
        assert injector.actuation_rejects(0)
        assert not injector.actuation_rejects(1)
        assert injector.restart_duration(2, 4) == 11
        assert injector.restart_duration(3, 4) == 4
        assert injector.restart_duration(4, 4) == HANG_RESTART_MINUTES

    def test_component_faults_raise(self):
        plan = FaultPlan(
            faults=(
                ComponentFault(component="recommender", end_minute=5),
                ComponentFault(component="forecaster", end_minute=5),
            )
        )
        injector = plan.build()
        with pytest.raises(FaultError):
            injector.maybe_fail(0, "recommender")
        injector.maybe_fail(10, "recommender")  # outside the window
        injector.tick(1)
        with pytest.raises(ForecastError):
            injector.forecaster_gate()
        assert injector.consume_forecaster_fire()
        assert not injector.consume_forecaster_fire()

    def test_node_pressure_applied_and_released(self):
        nodes = [Node("n0", cpu_cores=16), Node("n1", cpu_cores=16)]
        plan = FaultPlan(
            faults=(
                NodeFault(
                    pressure_cores=3.0, start_minute=2, end_minute=4
                ),
            )
        )
        injector = plan.build()
        injector.bind(nodes=nodes)
        baseline = nodes[0].system_reserved_millicores
        injector.tick(0)
        assert nodes[0].system_reserved_millicores == baseline
        injector.tick(2)
        assert nodes[0].system_reserved_millicores == baseline + 3000
        assert nodes[1].system_reserved_millicores == baseline + 3000
        injector.tick(4)
        assert nodes[0].system_reserved_millicores == baseline
        assert injector.counts["node_pressure"] == 1

    def test_summary_sorted(self):
        injector = FaultPlan(faults=(TelemetryFault(mode="drop"),)).build()
        injector.telemetry(0, 1.0)
        assert injector.summary() == {"telemetry_drop": 1}


class TestScenarios:
    def test_names(self):
        assert scenario_names() == sorted(SCENARIOS)

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            make_scenario("nope")

    def test_tiny_horizon_rejected(self):
        with pytest.raises(ConfigError):
            make_scenario("kitchen-sink", horizon_minutes=5)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_every_scenario_builds_and_runs(self, name):
        plan = make_scenario(name, seed=1, horizon_minutes=240)
        result = simulate_live(
            short_workload(240),
            fresh_recommender(),
            LiveSystemConfig(),
            faults=plan,
        )
        assert "faults" in result.detail
        assert "resilience" in result.detail


def plan_strategy():
    starts = st.integers(min_value=0, max_value=150)
    lengths = st.integers(min_value=5, max_value=90)
    probs = st.sampled_from([0.25, 0.6, 1.0])

    def build(kind_args):
        kind, start, length, prob, variant = kind_args
        window = dict(
            start_minute=start, end_minute=start + length, probability=prob
        )
        if kind == "telemetry":
            return TelemetryFault(
                mode=("drop", "stale", "nan")[variant % 3], **window
            )
        if kind == "actuation":
            return ActuationFault(
                mode=("reject", "slow_restart", "hang_restart")[variant % 3],
                **window,
            )
        if kind == "node":
            return NodeFault(pressure_cores=2.0 + variant % 3, **window)
        return ComponentFault(
            component=("recommender", "forecaster")[variant % 2], **window
        )

    spec = st.tuples(
        st.sampled_from(["telemetry", "actuation", "node", "component"]),
        starts,
        lengths,
        probs,
        st.integers(min_value=0, max_value=5),
    ).map(build)
    return st.builds(
        FaultPlan,
        seed=st.integers(min_value=0, max_value=999),
        faults=st.lists(spec, min_size=1, max_size=4).map(tuple),
    )


class TestChaosProperties:
    @settings(max_examples=12, deadline=None)
    @given(plan=plan_strategy())
    def test_any_plan_never_crashes_and_replays_identically(self, plan):
        """Core robustness property: arbitrary seeded chaos (a) completes
        without unhandled exceptions and (b) replays to an identical
        fault + degradation event trail and limit series."""

        def run():
            observer = Observer()
            result = simulate_live(
                short_workload(),
                fresh_recommender(),
                LiveSystemConfig(),
                observer=observer,
                faults=plan,
            )
            return result, chaos_trail(observer)

        first, first_trail = run()
        second, second_trail = run()
        assert first_trail == second_trail
        assert np.array_equal(first.limits, second.limits)
        assert np.array_equal(first.usage, second.usage)
        assert first.detail["faults"] == second.detail["faults"]
        assert first.detail["resilience"] == second.detail["resilience"]

    def test_different_seeds_differ(self):
        def fires(seed):
            plan = make_scenario(
                "kitchen-sink", seed=seed, horizon_minutes=240
            )
            result = simulate_live(
                short_workload(),
                fresh_recommender(),
                LiveSystemConfig(),
                faults=plan,
            )
            return result.detail["faults"]

        assert fires(1) != fires(2)
