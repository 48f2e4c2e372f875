"""End-to-end tests for the cluster capacity engine and its scenarios."""

import dataclasses

import numpy as np
import pytest

from repro.capacity import (
    capacity_scenario_names,
    make_capacity_scenario,
    run_capacity,
)
from repro.capacity.engine import ClusterEngine
from repro.cluster.pod import PodPhase
from repro.errors import ConfigError
from repro.obs import Observer
from repro.trace import CpuTrace


def _run_engine(name, seed=3, **kwargs):
    engine = ClusterEngine(make_capacity_scenario(name, seed=seed, **kwargs))
    return engine, engine.run()


class TestScenarioRegistry:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError):
            make_capacity_scenario("nope")

    def test_short_run_rejected(self):
        with pytest.raises(ConfigError):
            make_capacity_scenario("hotspot-node", minutes=5)

    def test_every_scenario_overridable(self):
        scenario = make_capacity_scenario(
            "correlated-surge", seed=1, minutes=60, pods=4
        )
        assert scenario.minutes == 60
        assert len(scenario.tenants) == 4


class TestDrainNeverStrands:
    def test_drained_node_gone_and_every_pod_serving(self):
        engine, result = _run_engine("drain-during-resize")
        drained = {name for _, name in engine.scenario.drains}
        live = {node.name for node in engine.placement.nodes}
        assert drained.isdisjoint(live)
        # Scale-in drains may add to the scenario's scheduled one.
        assert result.drains_completed >= len(drained)
        for state in engine.tenants:
            assert state.pod.phase is PodPhase.RUNNING
            assert state.pod.node_name in live

    def test_drain_migrations_skip_pods_mid_rollout(self):
        """A drain-reason migration never moves a pod with a resize in
        flight: its enactment (a ``resize`` log entry at or before the
        move's minute) must have landed first."""
        engine, result = _run_engine("drain-during-resize")
        resize_minutes = {}
        for record in result.placement_log:
            if record.action == "resize" or record.reason == "resize-capacity":
                resize_minutes.setdefault(record.pod, []).append(record.minute)
        for record in result.placement_log:
            if not record.reason.startswith("drain:"):
                continue
            pending = [
                minute
                for minute in resize_minutes.get(record.pod, [])
                if minute > record.minute
            ]
            # Later resizes are new decisions, never interrupted ones:
            # the engine only defers/enacts while the pod is serving.
            assert record.action == "migrate"
            assert all(minute > record.minute for minute in pending)


class TestContentionFeedback:
    def test_hotspot_throttles_and_recommenders_see_it(self):
        engine, result = _run_engine("hotspot-node")
        assert result.contention_core_minutes > 0
        assert result.throttled_minutes > 0
        # Throttled delivery is what the recommenders observed: total
        # slack accrues against delivered (not raw) usage, so cluster K
        # exceeds the no-throttling lower bound limit-demand.
        assert result.metrics.total_slack > 0
        assert result.metrics.total_insufficient_cpu > 0

    def test_conservation_each_minute(self):
        """Per-node delivery never exceeds capacity and never exceeds
        demand — checked via the rollup identity C >= sum(raw - limit)."""
        engine, result = _run_engine("hotspot-node")
        # Insufficient core-minutes include both cap-throttling and
        # contention-throttling; contention alone can't exceed C.
        assert result.contention_core_minutes <= (
            result.metrics.total_insufficient_cpu + 1e-6
        )


class TestChaosWiring:
    def test_node_faults_fire_and_throttle(self):
        engine, result = _run_engine("capacity-chaos")
        assert result.faults_fired > 0
        assert result.throttled_minutes > 0

    def test_observer_sees_fault_and_contention_events(self):
        observer = Observer()
        scenario = make_capacity_scenario("capacity-chaos", seed=3)
        run_capacity(scenario, observer=observer)
        assert observer.events_of_kind("fault_injected")
        assert observer.events_of_kind("node_contention")

    def test_scoped_fault_targets_subset(self):
        observer = Observer()
        scenario = make_capacity_scenario("capacity-chaos", seed=3)
        run_capacity(scenario, observer=observer)
        pool_sizes = set()
        for event in observer.events_of_kind("fault_injected"):
            pool_sizes.add(len(event.target.split(",")))
        # The scenario mixes a single-node fault with a pool-wide one.
        assert min(pool_sizes) == 1
        assert max(pool_sizes) > 1


class TestEconomics:
    def test_bill_matches_node_minutes(self):
        engine, result = _run_engine("correlated-surge")
        price = engine.config.node_template.price_per_hour
        assert result.dollars == pytest.approx(
            result.node_minutes / 60.0 * price
        )

    def test_surge_scales_out_then_back_in(self):
        engine, result = _run_engine("correlated-surge")
        assert result.scale_out_events > 0
        assert result.scale_in_events > 0
        assert result.peak_nodes > engine.config.initial_nodes
        assert result.final_nodes < result.peak_nodes

    def test_histogram_counts_ready_node_minutes(self):
        engine, result = _run_engine("hotspot-node")
        assert sum(result.utilization_histogram) <= result.node_minutes
        assert sum(result.utilization_histogram) > 0


class TestObservability:
    def test_run_opens_capacity_trace_and_span(self):
        observer = Observer()
        scenario = make_capacity_scenario("hotspot-node", seed=3, minutes=60)
        run_capacity(scenario, observer=observer)
        assert observer.events_of_kind("pod_scheduled")
        # Cluster-level sampling feeds the K metric family every minute.
        metric = observer.metrics.counter(
            "slack_core_minutes_total", "Running total of slack core-minutes"
        )
        assert metric.value() > 0
        # Every decision carries the Algorithm 1 trail of the kernel's
        # target, which no clip moved.
        decisions = observer.decisions()
        assert decisions
        for event in decisions:
            assert event.branch in ("scale_up", "scale_down", "walk_down", "hold")
            assert event.slope is not None and event.skew is not None
            assert event.raw_target_cores == event.target_cores
            assert not event.clamped

    def test_throttled_minutes_reported_for_report_layer(self):
        """Contended minutes surface as throttled events (demand above
        the cluster limit), the anchor repro.report episodes hang off."""
        observer = Observer()
        scenario = make_capacity_scenario("capacity-chaos", seed=3)
        run_capacity(scenario, observer=observer)
        assert observer.events_of_kind("throttled")

    def test_capacity_run_is_report_traceable(self):
        """`caasper report` attribution works over a capacity trace:
        node contention and fault injections are candidate causes."""
        from repro.report.engine import build_fleet_report

        observer = Observer()
        scenario = make_capacity_scenario("capacity-chaos", seed=3)
        run_capacity(scenario, observer=observer)
        assert observer.ring is not None
        report = build_fleet_report(list(observer.ring))
        assert report.runs
        run = report.runs[0]
        assert run.name == "capacity:capacity-chaos"
        assert run.event_counts.get("node_contention", 0) > 0
        causes = {
            episode.cause.kind
            for episode in run.episodes
            if episode.cause is not None
        }
        assert causes & {"node_contention", "fault_injected", "resize"}


class _CheckedEngine(ClusterEngine):
    """Checks, at the end of every minute, what the columns trust."""

    minutes_checked = 0

    def _rollup_minute(self):
        for node in self.placement.nodes:
            assert self.placement.index.free_of(node.name) == node.free_millicores
        node_of_slot = {slot: name for name, slot in self._slot_of_node.items()}
        for state in self.tenants:
            pod = state.pod
            serving = bool(self._serving[state.index])
            assert serving == (pod.phase is PodPhase.RUNNING)
            slot = int(self._slot[state.index])
            assert node_of_slot.get(slot) == (pod.node_name if serving else None)
            assert bool(self._rolling[state.index]) == (
                state.inflight is not None or state.deferred is not None
            )
        self.minutes_checked += 1
        super()._rollup_minute()


class TestColumnInvariants:
    @pytest.mark.parametrize("name", capacity_scenario_names())
    def test_index_and_columns_match_the_pods_every_minute(self, name):
        sizes = {"pods": 40, "minutes": 240} if name == "cluster-day" else {}
        scenario = make_capacity_scenario(name, seed=3, **sizes)
        engine = _CheckedEngine(scenario)
        engine.run()
        assert engine.minutes_checked == scenario.minutes


def _with_first_trace(scenario, samples):
    first = scenario.tenants[0]
    trace = CpuTrace(np.asarray(samples, dtype=float), name=first.trace.name)
    tenants = (dataclasses.replace(first, trace=trace), *scenario.tenants[1:])
    return dataclasses.replace(scenario, tenants=tenants)


class TestTraceLength:
    """A trace shorter than the run holds its last sample; a longer one
    is cut at the run's end."""

    def _kcn(self, scenario):
        return run_capacity(scenario).per_tenant

    def test_short_trace_is_padded_with_its_last_sample(self):
        scenario = make_capacity_scenario("hotspot-node", seed=3, minutes=120)
        samples = scenario.tenants[0].trace.samples[:70]
        padded = np.concatenate([samples, np.full(50, samples[-1])])
        assert self._kcn(_with_first_trace(scenario, samples)) == self._kcn(
            _with_first_trace(scenario, padded)
        )

    def test_long_trace_is_truncated(self):
        scenario = make_capacity_scenario("hotspot-node", seed=3, minutes=120)
        samples = scenario.tenants[0].trace.samples
        longer = np.concatenate([samples, np.full(80, 7.5)])
        assert self._kcn(_with_first_trace(scenario, longer)) == self._kcn(scenario)
