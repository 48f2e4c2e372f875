"""Tests for the Autopilot baseline, availability budget and R6 explain."""

import pytest

from repro.analysis import branch_summary, decision_log, explain_decisions
from repro.baselines import AutopilotRecommender, FixedRecommender
from repro.cluster import Cluster, EventKind, ScalerConfig
from repro.cluster.scaler import Scaler
from repro.core import CaasperConfig, CaasperRecommender
from repro.db import DBaaSService, DbServiceConfig
from repro.errors import ConfigError, SimulationError
from repro.obs import Observer
from repro.sim import SimulatorConfig, simulate_trace
from repro.trace import CpuTrace
from repro.workloads import workday


def feed(rec, values, limit, start=0):
    for offset, value in enumerate(values):
        rec.observe(start + offset, float(value), limit)


class TestAutopilot:
    def test_tracks_peak_with_margin(self):
        rec = AutopilotRecommender(margin=1.1, max_cores=16)
        feed(rec, [2.0] * 50 + [5.0] + [2.0] * 10, limit=8)
        # Recent peak of 5.0 x 1.1 = 5.5 -> 6.
        assert rec.recommend(61, 8) == 6

    def test_old_peak_decays(self):
        rec = AutopilotRecommender(
            window_minutes=500, half_life_minutes=30, margin=1.0, max_cores=16
        )
        feed(rec, [8.0] + [2.0] * 299, limit=10)
        # The 8-core peak is ~300 min old: 8 * 0.5^10 ≈ 0.008.
        assert rec.recommend(300, 10) <= 3

    def test_reacts_to_burst_immediately(self):
        rec = AutopilotRecommender(margin=1.0, max_cores=16)
        feed(rec, [2.0] * 30 + [7.5], limit=8)
        assert rec.recommend(31, 8) >= 8

    def test_no_history_keeps_current(self):
        assert AutopilotRecommender().recommend(0, 5) == 5

    def test_validation(self):
        with pytest.raises(ConfigError):
            AutopilotRecommender(half_life_minutes=0)
        with pytest.raises(ConfigError):
            AutopilotRecommender(margin=0.9)

    def test_through_simulator(self):
        demand = workday(sigma=0.05)
        result = simulate_trace(
            demand,
            AutopilotRecommender(min_cores=2, max_cores=8, margin=1.05),
            SimulatorConfig(initial_cores=6, min_cores=2, max_cores=8),
        )
        served = 1 - result.metrics.total_insufficient_cpu / demand.samples.sum()
        assert served > 0.9
        assert result.metrics.num_scalings > 0


class TestAvailabilityBudget:
    def make_scaler(self, budget, window=60):
        cluster = Cluster.small()
        service = DBaaSService(
            DbServiceConfig(replicas=1, initial_cores=4, restart_minutes_per_pod=1),
            cluster.scheduler,
            cluster.events,
        )
        scaler = Scaler(
            service.operator,
            cluster.scheduler,
            ScalerConfig(
                min_cores=2,
                max_cores=16,
                availability_budget=budget,
                availability_window_minutes=window,
            ),
        )
        return scaler, service, cluster

    def drive_update_to_completion(self, service, cluster, start):
        for minute in range(start, start + 5):
            service.operator.tick(minute, cluster.events)

    def test_budget_caps_resizes_per_window(self):
        scaler, service, cluster = self.make_scaler(budget=2)
        assert scaler.try_enact(5, 10, cluster.events)
        self.drive_update_to_completion(service, cluster, 11)
        assert scaler.try_enact(6, 20, cluster.events)
        self.drive_update_to_completion(service, cluster, 21)
        # Third attempt inside the same hour is refused.
        assert not scaler.try_enact(7, 30, cluster.events)
        rejection = cluster.events.of_kind(EventKind.RESIZE_REJECTED)[-1]
        assert "availability budget" in rejection.data["reason"]

    def test_budget_replenishes_after_window(self):
        scaler, service, cluster = self.make_scaler(budget=1, window=30)
        assert scaler.try_enact(5, 10, cluster.events)
        self.drive_update_to_completion(service, cluster, 11)
        assert not scaler.try_enact(6, 20, cluster.events)
        # 31+ minutes later the budget is free again.
        assert scaler.try_enact(6, 45, cluster.events)

    def test_no_budget_means_unlimited(self):
        scaler, service, cluster = self.make_scaler(budget=None)
        # Alternate 5<->6 cores (stays within one 8-CPU node's capacity).
        for step, minute in enumerate(range(10, 80, 10)):
            assert scaler.try_enact(5 + step % 2, minute, cluster.events)
            self.drive_update_to_completion(service, cluster, minute + 1)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ScalerConfig(availability_budget=0)
        with pytest.raises(ConfigError):
            ScalerConfig(availability_window_minutes=0)


class TestExplain:
    def run_recommender(self):
        rec = CaasperRecommender(CaasperConfig(max_cores=8, c_min=2))
        observer = Observer()
        simulate_trace(
            workday(),
            rec,
            SimulatorConfig(initial_cores=6, min_cores=2, max_cores=8),
            observer=observer,
        )
        return rec, observer

    def test_explain_covers_run(self):
        rec, observer = self.run_recommender()
        text = explain_decisions(rec, observer)
        assert "decision audit" in text
        assert "scale_up" in text
        assert "->" in text

    def test_branch_summary_counts(self):
        _, observer = self.run_recommender()
        decisions = observer.decisions()
        counts = branch_summary(decisions)
        assert sum(counts.values()) == len(decisions)
        assert counts.get("hold", 0) > 0

    def test_decision_log_filters_holds(self):
        _, observer = self.run_recommender()
        decisions = observer.decisions()
        full = decision_log(decisions, only_scaling=False)
        scaling_only = decision_log(decisions, only_scaling=True)
        assert len(scaling_only.splitlines()) < len(full.splitlines())

    def test_decision_log_limit(self):
        _, observer = self.run_recommender()
        limited = decision_log(observer.decisions(), limit=3)
        assert len(limited.splitlines()) == 4  # header + 3 entries

    def test_empty_trail_raises(self):
        rec = CaasperRecommender(CaasperConfig(max_cores=8))
        with pytest.raises(SimulationError):
            explain_decisions(rec, Observer())
        # Events recorded for another recommender do not explain this one.
        _, observer = self.run_recommender()
        with pytest.raises(SimulationError):
            explain_decisions(
                CaasperRecommender(CaasperConfig(proactive=True)), observer
            )
        with pytest.raises(SimulationError):
            decision_log([])
        with pytest.raises(SimulationError):
            branch_summary([])
