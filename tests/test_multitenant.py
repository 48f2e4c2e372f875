"""Multi-tenant integration: two autoscaled databases, one cluster.

The §7 consolidation motivation: "the optimization of pod instance
sizes is critical in enabling K8s to make adequate decisions about pod
placement." These tests put two independently-autoscaled DBaaS
deployments on a shared node pool and verify capacity contention is
handled safely (rejections, not corruption) and that right-sizing one
tenant frees capacity for the other.
"""

import numpy as np
import pytest

from repro.baselines import FixedRecommender
from repro.cluster import Cluster, ControlLoop, ControlLoopConfig, EventKind, ScalerConfig
from repro.core import CaasperConfig, CaasperRecommender
from repro.db import DBaaSService, DbServiceConfig
from repro.trace import CpuTrace
from repro.workloads.synthetic import noisy


def build_tenants(cluster, configs):
    """Create one control loop per tenant on a shared cluster."""
    loops = []
    for name, initial_cores, recommender in configs:
        service = DBaaSService(
            DbServiceConfig(
                name=name,
                replicas=2,
                initial_cores=initial_cores,
                memory_mb=2048,
            ),
            cluster.scheduler,
            cluster.events,
        )
        loops.append(
            ControlLoop(
                service,
                recommender,
                ControlLoopConfig(
                    decision_interval_minutes=10,
                    scaler=ScalerConfig(min_cores=2, max_cores=12),
                ),
            )
        )
    return loops


class TestMultiTenant:
    def test_two_tenants_coexist(self):
        cluster = Cluster.uniform("shared", 3, 16, 64)
        loops = build_tenants(
            cluster,
            [
                ("tenant-a", 4, CaasperRecommender(CaasperConfig(max_cores=12, c_min=2))),
                ("tenant-b", 4, CaasperRecommender(CaasperConfig(max_cores=12, c_min=2))),
            ],
        )
        demand_a = noisy(CpuTrace.constant(3.0, 240), sigma=0.1, seed=1)
        demand_b = noisy(CpuTrace.constant(6.0, 240), sigma=0.1, seed=2)
        for minute in range(240):
            loops[0].step(minute, demand_a[minute])
            loops[1].step(minute, demand_b[minute])
        # Both tenants settled near their demand independently.
        a_cores = loops[0].service.stateful_set.spec.limit_cores
        b_cores = loops[1].service.stateful_set.spec.limit_cores
        assert 3 <= a_cores <= 6
        assert 6 <= b_cores <= 9

    def test_contention_rejects_rather_than_overcommits(self):
        """A cramped pool: the second tenant's growth is safely refused."""
        cluster = Cluster.uniform("cramped", 1, 16, 64)
        loops = build_tenants(
            cluster,
            [
                ("greedy-a", 3, FixedRecommender(12)),
                ("greedy-b", 3, FixedRecommender(12)),
            ],
        )
        for minute in range(60):
            for loop in loops:
                loop.step(minute, demand_cores=2.0)
        # Node: 16 cores, ~15.8 allocatable; 2 tenants x 2 replicas.
        # Both asking for 12-core replicas (48 total) cannot fit.
        rejected = cluster.events.count(EventKind.RESIZE_REJECTED)
        assert rejected > 0
        total_requested = sum(
            pod.spec.cpu_request_millicores
            for node in cluster.nodes
            for pod in node.pods
        )
        assert total_requested <= sum(
            node.allocatable_millicores for node in cluster.nodes
        )

    def test_right_sizing_one_tenant_frees_capacity_for_another(self):
        """The §7 consolidation story, end to end."""
        cluster = Cluster.uniform("tight", 1, 20, 64)
        # Tenant A starts hugely over-provisioned (5 cores x 2 replicas);
        # tenant B is throttled and needs to grow. Node: ~19.8 cores
        # allocatable, so B's target (7 x 2) only fits once A shrinks.
        loops = build_tenants(
            cluster,
            [
                ("fat-a", 5, CaasperRecommender(
                    CaasperConfig(max_cores=12, c_min=2, scale_down_headroom=0.0)
                )),
                ("starved-b", 2, CaasperRecommender(
                    CaasperConfig(max_cores=12, c_min=2)
                )),
            ],
        )
        demand_a = noisy(CpuTrace.constant(1.0, 360), sigma=0.05, seed=3)
        demand_b = noisy(CpuTrace.constant(6.5, 360), sigma=0.05, seed=4)
        b_limits = []
        b_usage = []
        for minute in range(360):
            loops[0].step(minute, demand_a[minute])
            outcome = loops[1].step(minute, demand_b[minute])
            b_limits.append(outcome.client_limit_cores)
            b_usage.append(outcome.primary_usage_cores)
        # A shrank toward its 1-core demand...
        assert loops[0].service.stateful_set.spec.limit_cores <= 3
        # ...which let B grow past what the node could host at start
        # (initially: A 2x6 + B 2x2 = 16 > 15.8 allocatable for growth).
        assert max(b_limits) >= 7
        # And B ends up serving its demand.
        final_usage = sum(b_usage[-30:]) / 30
        assert final_usage > 6.0
