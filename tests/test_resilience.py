"""Tests for the hardened control plane (:mod:`repro.cluster.resilience`)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.baselines import FixedRecommender, OpenShiftVpaRecommender
from repro.cluster.cluster import Cluster
from repro.cluster.controller import ControlLoop, ControlLoopConfig
from repro.cluster.events import EventKind
from repro.cluster.resilience import (
    ResilienceConfig,
    ResilientControlLoop,
    RetryPolicy,
)
from repro.cluster.scaler import ScalerConfig
from repro.core import CaasperConfig, CaasperRecommender
from repro.db.service import DBaaSService, DbServiceConfig
from repro.errors import ConfigError, TraceError
from repro.faults import ActuationFault, FaultPlan, TelemetryFault
from repro.faults.scenarios import make_scenario
from repro.obs import Observer
from repro.sim.live import LiveSystemConfig, simulate_live
from repro.trace import CpuTrace
from repro.workloads.base import TraceWorkload
from repro.workloads.synthetic import noisy


@pytest.fixture(autouse=True)
def _hard_timeout(hard_timeout):
    """Every resilience test runs under the shared conftest hang guard."""
    yield


def flat_workload(cores=3.0, minutes=240):
    return TraceWorkload(
        noisy(CpuTrace.constant(cores, minutes, "flat"), sigma=0.04, seed=9)
    )


def live_config(**kwargs):
    defaults = dict(
        service=DbServiceConfig(replicas=3, initial_cores=4),
        control=ControlLoopConfig(
            decision_interval_minutes=10,
            scaler=ScalerConfig(min_cores=2, max_cores=12),
        ),
    )
    defaults.update(kwargs)
    return LiveSystemConfig(**defaults)


def hardened_loop(recommender, plan=None, resilience=None, observer=None):
    """A ResilientControlLoop over a fresh small cluster."""
    cluster = Cluster.small()
    service = DBaaSService(
        DbServiceConfig(replicas=3, initial_cores=4),
        cluster.scheduler,
        cluster.events,
    )
    loop = ResilientControlLoop(
        service,
        recommender,
        ControlLoopConfig(
            decision_interval_minutes=10,
            scaler=ScalerConfig(min_cores=2, max_cores=12),
        ),
        events=cluster.events,
        observer=observer,
        resilience=resilience,
        faults=plan.build() if plan is not None else None,
    )
    return loop, cluster


class TestRetryPolicy:
    def test_backoff_monotone_and_capped(self):
        policy = RetryPolicy(
            base_delay_minutes=1.0, multiplier=2.0, max_delay_minutes=8.0
        )
        delays = [policy.backoff_minutes(a) for a in range(1, 10)]
        assert delays == sorted(delays)
        assert delays[0] == 1.0
        assert delays[-1] == 8.0
        assert all(d <= 8.0 for d in delays)

    def test_jitter_bounds(self):
        policy = RetryPolicy(jitter_fraction=0.25)
        for attempt in range(1, 8):
            base = policy.backoff_minutes(attempt)
            for key in range(50):
                delay = policy.delay_minutes(attempt, key=key)
                assert base <= delay <= base * 1.25

    def test_jitter_deterministic_per_key(self):
        policy = RetryPolicy()
        assert policy.delay_minutes(3, key=42) == policy.delay_minutes(
            3, key=42
        )
        samples = {policy.delay_minutes(3, key=k) for k in range(20)}
        assert len(samples) > 1

    def test_zero_jitter_is_exact(self):
        policy = RetryPolicy(jitter_fraction=0.0)
        assert policy.delay_minutes(2, key=99) == policy.backoff_minutes(2)

    def test_zero_jitter_exact_for_every_key(self):
        # NUM001 regression: the disable check is `<= 0`, not a float
        # equality — jitter_fraction=0.0 must disable jitter for every
        # (attempt, key) stream, never stretch the delay.
        policy = RetryPolicy(jitter_fraction=0.0)
        for attempt in range(1, 6):
            base = policy.backoff_minutes(attempt)
            for key in range(25):
                assert policy.delay_minutes(attempt, key=key) == base

    def test_negative_jitter_rejected(self):
        with pytest.raises(ConfigError):
            RetryPolicy(jitter_fraction=-0.1)

    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(base_delay_minutes=0)
        with pytest.raises(ConfigError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(max_delay_minutes=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(jitter_fraction=-0.1)
        with pytest.raises(ConfigError):
            RetryPolicy(deadline_minutes=0)
        with pytest.raises(ConfigError):
            RetryPolicy().backoff_minutes(0)
        with pytest.raises(ConfigError):
            ResilienceConfig(watchdog_timeout_minutes=0)

    def test_max_total_delay_budget_clamps_cumulative_delay(self):
        # Regression for the serve supervisor's restart budget: a
        # misconfigured policy (huge multiplier, huge per-attempt cap)
        # must never stall a stream forever — once the cumulative
        # budget is spent, the delay collapses to zero.
        policy = RetryPolicy(
            base_delay_minutes=4.0,
            multiplier=4.0,
            max_delay_minutes=64.0,
            jitter_fraction=0.0,
            max_total_delay_minutes=10.0,
        )
        spent = 0.0
        delays = []
        for attempt in range(1, 6):
            delay = policy.delay_minutes(
                attempt, key=0, spent_minutes=spent
            )
            delays.append(delay)
            spent += delay
        # 4, then 16 clamps to the remaining 6, then the budget is gone.
        assert delays == [4.0, 6.0, 0.0, 0.0, 0.0]
        assert spent == 10.0

    def test_max_total_delay_unset_is_unbounded(self):
        policy = RetryPolicy(jitter_fraction=0.0)
        assert policy.delay_minutes(
            3, key=0, spent_minutes=1e9
        ) == policy.backoff_minutes(3)

    def test_max_total_delay_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_total_delay_minutes=0.0)
        with pytest.raises(ConfigError):
            RetryPolicy(max_total_delay_minutes=-5.0)
        RetryPolicy(max_total_delay_minutes=None)  # explicitly unbounded


class TestSummaryAndReset:
    """Satellite: lifetime counters survive a supervisor reset."""

    BLACKOUT = FaultPlan(
        faults=(
            TelemetryFault(mode="drop", start_minute=20, end_minute=40),
        )
    )

    def test_summary_counts_safe_mode_episodes(self):
        loop, _ = hardened_loop(FixedRecommender(7), plan=self.BLACKOUT)
        for minute in range(60):
            loop.step(minute, 3.0)
        summary = loop.summary()
        assert summary["safe_mode_entries"] == 1
        assert summary["safe_mode_exits"] == 1
        assert summary["safe_mode_minutes"] == 20
        assert set(summary) == {
            "safe_mode_minutes",
            "safe_mode_entries",
            "safe_mode_exits",
            "retries_scheduled",
            "retries_succeeded",
            "retries_abandoned",
            "rollbacks",
            "quarantined_consults",
            "quarantine_exits",
            "forecaster_degradations",
        }

    def test_reset_clears_latch_but_preserves_counters(self):
        loop, _ = hardened_loop(FixedRecommender(7), plan=self.BLACKOUT)
        for minute in range(30):  # stop mid-blackout
            loop.step(minute, 3.0)
        assert loop.safe_mode
        before = loop.summary()
        assert before["safe_mode_entries"] == 1

        loop.reset()
        assert not loop.safe_mode
        after = loop.summary()
        # Lifetime audit counters are preserved across the restart.
        assert after["safe_mode_entries"] == before["safe_mode_entries"]
        assert after["safe_mode_minutes"] == before["safe_mode_minutes"]

    def test_reset_drops_pending_retry(self):
        plan = FaultPlan(
            faults=(ActuationFault(mode="reject", start_minute=0),)
        )
        loop, _ = hardened_loop(
            FixedRecommender(7),
            plan=plan,
            resilience=ResilienceConfig(
                retry=RetryPolicy(deadline_minutes=30)
            ),
        )
        for minute in range(15):
            loop.step(minute, 3.0)
        summary = loop.summary()
        assert summary["retries_scheduled"] >= 1
        assert loop._pending is not None  # a retry is waiting
        loop.reset()
        # The stale pending retry is gone, but the audit counter stays.
        assert loop._pending is None
        assert loop.summary()["retries_scheduled"] == summary[
            "retries_scheduled"
        ]
        for minute in range(15, 40):
            loop.step(minute, 3.0)  # restarting the loop keeps working


def step_plain_loop_reporting(usage, monkeypatch):
    """One minute of a plain ControlLoop whose primary reports ``usage``."""
    cluster = Cluster.small()
    service = DBaaSService(
        DbServiceConfig(replicas=3, initial_cores=4),
        cluster.scheduler,
        cluster.events,
    )
    loop = ControlLoop(service, FixedRecommender(4), ControlLoopConfig())
    step = service.step
    monkeypatch.setattr(
        service,
        "step",
        lambda minute, demand: dataclasses.replace(
            step(minute, demand), primary_usage_cores=usage
        ),
    )
    loop.step(0, 2.0)


class TestSampleValidation:
    """Satellite: NaN/negative samples rejected at the boundaries."""

    def test_metrics_server_rejects_nan(self, monkeypatch):
        with pytest.raises(TraceError, match="metrics server target"):
            step_plain_loop_reporting(float("nan"), monkeypatch)

    def test_metrics_server_rejects_negative(self, monkeypatch):
        with pytest.raises(TraceError, match="metrics server target"):
            step_plain_loop_reporting(-1.0, monkeypatch)

    def test_windowed_recommender_rejects_nan(self):
        with pytest.raises(TraceError):
            OpenShiftVpaRecommender().observe(0, float("nan"), 4)

    def test_windowed_recommender_rejects_inf(self):
        with pytest.raises(TraceError):
            OpenShiftVpaRecommender().observe(0, float("inf"), 4)


class TestSafeMode:
    def test_telemetry_blackout_holds_allocation(self):
        window = (60, 100)
        plan = FaultPlan(
            faults=(
                TelemetryFault(
                    mode="drop",
                    start_minute=window[0],
                    end_minute=window[1],
                ),
            )
        )
        observer = Observer()
        recommender = CaasperRecommender(CaasperConfig(max_cores=12, c_min=2))
        result = simulate_live(
            flat_workload(),
            recommender,
            live_config(),
            observer=observer,
            faults=plan,
        )
        assert result.detail["resilience"]["safe_mode_minutes"] == 40

        entries = [
            e for e in observer.events_of_kind("safe_mode")
            if e.action == "enter"
        ]
        exits = [
            e for e in observer.events_of_kind("safe_mode")
            if e.action == "exit"
        ]
        assert [e.minute for e in entries] == [window[0]]
        assert [e.minute for e in exits] == [window[1]]
        assert exits[0].minutes_in_safe_mode == 40

        # No consultations while blind: decision minutes skip the window.
        decided = [d.minute for d in observer.decisions()]
        assert decided
        assert not [m for m in decided if window[0] <= m < window[1]]
        # The allocation is held flat across the blackout.
        assert len(set(result.limits[window[0]:window[1]])) == 1

    def test_corrupt_samples_never_reach_recommender(self):
        plan = FaultPlan(
            faults=(
                TelemetryFault(mode="nan", start_minute=20, end_minute=40),
            )
        )
        recommender = CaasperRecommender(CaasperConfig(max_cores=12, c_min=2))
        simulate_live(
            flat_workload(minutes=60),
            recommender,
            live_config(),
            faults=plan,
        )
        history = recommender.history()
        assert history.minutes == 40  # 60 minutes minus the 20 corrupted
        assert np.isfinite(history.samples).all()


class TestRetryIntegration:
    def test_retry_succeeds_after_outage(self):
        plan = FaultPlan(
            faults=(
                ActuationFault(
                    mode="reject", start_minute=0, end_minute=65
                ),
            )
        )
        observer = Observer()
        loop, cluster = hardened_loop(
            FixedRecommender(7),
            plan=plan,
            resilience=ResilienceConfig(
                retry=RetryPolicy(deadline_minutes=30)
            ),
            observer=observer,
        )
        with observer.active():
            for minute in range(120):
                loop.step(minute, 3.0)
        assert loop.retries_succeeded >= 1
        assert loop.service.stateful_set.spec.limit_cores == 7
        outcomes = [e.outcome for e in observer.events_of_kind("retry")]
        assert "scheduled" in outcomes and "succeeded" in outcomes

    def test_scheduled_delays_monotone_within_decision(self):
        plan = FaultPlan(
            faults=(ActuationFault(mode="reject", start_minute=0),)
        )
        observer = Observer()
        loop, _ = hardened_loop(
            FixedRecommender(7),
            plan=plan,
            resilience=ResilienceConfig(
                retry=RetryPolicy(deadline_minutes=30)
            ),
            observer=observer,
        )
        with observer.active():
            for minute in range(45):
                loop.step(minute, 3.0)
        by_decision: dict[int, list[float]] = {}
        for event in observer.events_of_kind("retry"):
            if event.outcome == "scheduled":
                by_decision.setdefault(event.decided_minute, []).append(
                    event.delay_minutes
                )
        assert by_decision
        for delays in by_decision.values():
            assert delays == sorted(delays)

    def test_stale_decision_abandoned_at_deadline(self):
        plan = FaultPlan(
            faults=(ActuationFault(mode="reject", start_minute=0),)
        )
        observer = Observer()
        cluster = Cluster.small()
        service = DBaaSService(
            DbServiceConfig(replicas=3, initial_cores=4),
            cluster.scheduler,
            cluster.events,
        )
        loop = ResilientControlLoop(
            service,
            FixedRecommender(7),
            ControlLoopConfig(decision_interval_minutes=60),
            events=cluster.events,
            observer=observer,
            resilience=ResilienceConfig(
                retry=RetryPolicy(deadline_minutes=20)
            ),
            faults=plan.build(),
        )
        with observer.active():
            for minute in range(110):
                loop.step(minute, 3.0)
        assert loop.retries_abandoned >= 1
        abandoned = [
            e for e in observer.events_of_kind("retry")
            if e.outcome == "abandoned"
        ]
        assert abandoned
        assert abandoned[0].decided_minute == 60
        assert abandoned[0].minute - abandoned[0].decided_minute >= 20


class TestWatchdog:
    def test_hung_rollout_rolled_back(self):
        plan = FaultPlan(
            faults=(
                ActuationFault(
                    mode="hang_restart", start_minute=0, end_minute=12
                ),
            )
        )
        observer = Observer()
        loop, cluster = hardened_loop(
            FixedRecommender(7),
            plan=plan,
            resilience=ResilienceConfig(watchdog_timeout_minutes=15),
            observer=observer,
        )
        # Decision at minute 10 starts the rollout, its first restart
        # hangs; the watchdog aborts at minute 25. Stop before the next
        # decision re-enacts.
        with observer.active():
            for minute in range(28):
                loop.step(minute, 3.0)
        assert loop.rollbacks == 1
        # Rolled back to the pre-update spec; no update left in flight.
        assert loop.service.stateful_set.spec.limit_cores == 4
        assert loop.service.operator.update is None
        for pod in loop.service.stateful_set.pods:
            assert pod.spec.limit_cores == 4

        aborted = cluster.events.of_kind(EventKind.ROLLING_UPDATE_ABORTED)
        assert aborted
        rollbacks = observer.events_of_kind("rollback")
        assert rollbacks
        assert rollbacks[0].from_cores == 7
        assert rollbacks[0].to_cores == 4
        assert rollbacks[0].stuck_minutes >= 15
        assert rollbacks[0].update_id == aborted[0].data["update_id"]

    def test_healthy_rollouts_untouched(self):
        observer = Observer()
        loop, _ = hardened_loop(
            FixedRecommender(7),
            resilience=ResilienceConfig(watchdog_timeout_minutes=30),
            observer=observer,
        )
        with observer.active():
            for minute in range(40):
                loop.step(minute, 3.0)
        assert loop.rollbacks == 0
        assert loop.service.stateful_set.spec.limit_cores == 7


class TestScalingEventPairing:
    def test_aborted_updates_surface_as_unpaired(self):
        plan = make_scenario("stuck-rollout", seed=1, horizon_minutes=300)
        result = simulate_live(
            flat_workload(minutes=300),
            CaasperRecommender(CaasperConfig(max_cores=12, c_min=2)),
            live_config(),
            faults=plan,
        )
        unpaired = result.detail["unpaired_resize_decisions"]
        assert len(unpaired) == result.detail["resilience"]["rollbacks"]
        for entry in unpaired:
            assert set(entry) == {
                "decided_minute", "from_cores", "to_cores", "update_id",
            }
        # N counts only completed resizes.
        assert result.metrics.num_scalings == len(result.events)
        for event in result.events:
            assert event.decided_minute <= event.enacted_minute


class TestZeroOverheadDefault:
    def test_plain_path_unchanged_without_faults(self):
        """faults=None keeps the plain loop: no resilience detail, and
        byte-identical series across repeated runs."""

        def run():
            return simulate_live(
                flat_workload(),
                FixedRecommender(6),
                live_config(),
            )

        first, second = run(), run()
        assert "resilience" not in first.detail
        assert "faults" not in first.detail
        assert np.array_equal(first.limits, second.limits)
        assert np.array_equal(first.usage, second.usage)
        assert first.events == second.events

    def test_hardened_loop_matches_plain_on_happy_path(self):
        """With no faults and no rejections the hardened loop is
        observably identical to the plain loop."""
        config = live_config(
            control=ControlLoopConfig(
                decision_interval_minutes=20,
                scaler=ScalerConfig(min_cores=2, max_cores=12),
            ),
        )

        def run(resilience):
            recommender = CaasperRecommender(CaasperConfig(max_cores=12, c_min=2))
            cfg = config if resilience is None else LiveSystemConfig(
                service=config.service,
                control=config.control,
                resilience=resilience,
            )
            return simulate_live(flat_workload(), recommender, cfg)

        plain = run(None)
        hardened = run(ResilienceConfig())
        summary = hardened.detail["resilience"]
        assert summary["retries_scheduled"] == 0  # guards the premise
        assert summary["safe_mode_minutes"] == 0
        assert np.array_equal(plain.limits, hardened.limits)
        assert np.array_equal(plain.usage, hardened.usage)
        assert plain.events == hardened.events
        assert plain.metrics.num_scalings == hardened.metrics.num_scalings


class TestKitchenSinkAcceptance:
    def test_all_fault_kinds_absorbed(self):
        """The gauntlet: all four fault kinds fire, every fired kind has
        its matching degradation, and nothing crashes."""
        observer = Observer()
        plan = make_scenario("kitchen-sink", seed=3, horizon_minutes=720)
        result = simulate_live(
            TraceWorkload(
                noisy(
                    CpuTrace.constant(3.5, 720, "gauntlet"),
                    sigma=0.6,
                    seed=4,
                )
            ),
            CaasperRecommender(CaasperConfig(max_cores=12, c_min=2)),
            live_config(),
            observer=observer,
            faults=plan,
        )
        fires = result.detail["faults"]
        assert any(k.startswith("telemetry_") for k in fires)
        assert fires.get("actuation_reject", 0) > 0
        assert fires.get("node_pressure", 0) > 0
        assert fires.get("component_recommender", 0) > 0

        assert observer.events_of_kind("safe_mode")
        assert observer.events_of_kind("retry")
        assert observer.events_of_kind("quarantine")
        fault_events = observer.events_of_kind("fault_injected")
        assert len(fault_events) == sum(fires.values())

        metrics_text = observer.metrics.render_text()
        assert "faults_injected_total" in metrics_text
        assert "safe_mode_minutes" in metrics_text
        assert "retries_total" in metrics_text
        assert "quarantines_total" in metrics_text
