"""Tests for the scaler and the end-to-end control loop."""

import pytest

from repro.baselines import FixedRecommender
from repro.cluster import (
    Cluster,
    ControlLoop,
    ControlLoopConfig,
    EventKind,
    EventLog,
    Scaler,
    ScalerConfig,
)
from repro.db import DBaaSService, DbServiceConfig
from repro.obs import Observer


def make_service(cluster=None, replicas=3, initial_cores=4, **kwargs):
    cluster = cluster or Cluster.small()
    config = DbServiceConfig(
        replicas=replicas, initial_cores=initial_cores, **kwargs
    )
    return DBaaSService(config, cluster.scheduler, cluster.events), cluster


class TestScaler:
    def test_enacts_valid_resize(self):
        service, cluster = make_service()
        scaler = Scaler(
            service.operator, cluster.scheduler, ScalerConfig(max_cores=8)
        )
        assert scaler.try_enact(6, 10, cluster.events)
        assert service.operator.update_in_progress
        assert cluster.events.count(EventKind.RESIZE_DECIDED) == 1

    def test_clamps_to_guardrails(self):
        service, cluster = make_service()
        scaler = Scaler(
            service.operator,
            cluster.scheduler,
            ScalerConfig(min_cores=2, max_cores=6),
        )
        scaler.try_enact(40, 10, cluster.events)
        assert service.stateful_set.spec.limit_cores == 6.0

    def test_noop_when_unchanged(self):
        service, cluster = make_service(initial_cores=4)
        scaler = Scaler(service.operator, cluster.scheduler, ScalerConfig())
        assert not scaler.try_enact(4, 10, cluster.events)

    def test_rejected_while_update_in_flight(self):
        service, cluster = make_service()
        scaler = Scaler(
            service.operator, cluster.scheduler, ScalerConfig(max_cores=8)
        )
        assert scaler.try_enact(6, 10, cluster.events)
        assert not scaler.try_enact(8, 11, cluster.events)
        rejection = cluster.events.of_kind(EventKind.RESIZE_REJECTED)[0]
        assert "rolling update" in rejection.data["reason"]

    def test_cooldown_blocks_back_to_back_resizes(self):
        service, cluster = make_service(replicas=1, restart_minutes_per_pod=1)
        scaler = Scaler(
            service.operator,
            cluster.scheduler,
            ScalerConfig(max_cores=8, cooldown_minutes=30),
        )
        assert scaler.try_enact(6, 10, cluster.events)
        # Let the 1-pod update finish.
        for minute in range(11, 15):
            service.operator.tick(minute, cluster.events)
        assert not scaler.try_enact(7, 20, cluster.events)
        assert scaler.rejected_count == 1

    def test_rejected_when_nodes_cannot_fit(self):
        cluster = Cluster.uniform("tiny", 1, 8, 32)
        service, cluster = make_service(
            cluster=cluster, replicas=2, initial_cores=3
        )
        scaler = Scaler(
            service.operator, cluster.scheduler, ScalerConfig(max_cores=64)
        )
        # Two 7-core pods cannot fit one 8-core (minus reserved) node.
        assert not scaler.try_enact(7, 10, cluster.events)
        rejection = cluster.events.of_kind(EventKind.RESIZE_REJECTED)[0]
        assert "capacity" in rejection.data["reason"]


class TestControlLoop:
    def test_recommender_sees_usage_and_metrics_published(self):
        service, cluster = make_service(initial_cores=4)

        class Probe(FixedRecommender):
            def __init__(self):
                super().__init__(4)
                self.samples = []

            def observe(self, minute, usage, limit):
                self.samples.append((minute, usage, limit))

        probe = Probe()
        observer = Observer()
        loop = ControlLoop(service, probe, ControlLoopConfig(), observer=observer)
        for minute in range(5):
            loop.step(minute, demand_cores=2.0)
        assert len(probe.samples) == 5
        assert probe.samples[0][1] == pytest.approx(2.0)
        assert observer.metrics.counter(
            "metrics_server_samples_total", labelnames=("target",)
        ).value(target=service.stateful_set.name) == 5

    def test_decision_enacted_on_interval(self):
        service, cluster = make_service(initial_cores=4)
        loop = ControlLoop(
            service,
            FixedRecommender(6),
            ControlLoopConfig(
                decision_interval_minutes=10,
                scaler=ScalerConfig(max_cores=8),
            ),
        )
        for minute in range(30):
            loop.step(minute, demand_cores=2.0)
        assert cluster.events.count(EventKind.RESIZE_DECIDED) == 1
        assert service.stateful_set.spec.limit_cores == 6.0

    def test_usage_capped_by_limits(self):
        service, cluster = make_service(initial_cores=2)
        loop = ControlLoop(
            service,
            FixedRecommender(2),
            ControlLoopConfig(scaler=ScalerConfig(min_cores=2, max_cores=2)),
        )
        outcome = loop.step(0, demand_cores=9.0)
        assert outcome.primary_usage_cores <= 2.0
