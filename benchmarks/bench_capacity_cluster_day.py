"""Capacity at fleet scale: a 1k-pod cluster day through the whole stack.

Not a paper figure — a scale benchmark for the :mod:`repro.capacity`
subsystem. One seeded ``cluster-day`` scenario drives a thousand
independent CaaSPER control loops through the index-backed placement
engine, the node-pool autoscaler, and the contention model for a full
simulated day, then proves the run replays byte-identically. The wall
clock is the claim: a production-sized fleet day must stay cheap enough
to sweep (the CI acceptance bound is five minutes). On a shared 2-vCPU
Xeon VM (Python 3.11, numpy 2.4), ``python3 perfbench/run.py --workload
cluster-day --seed <i> --seconds 30 --trace 0`` for seeds 0-9 read a
median of 941k tenant-minutes/s, about 1.5 s of wall per 1000-pod day.
The per-layer split of that wall time comes from outside the engine:
``python3 perfbench/run.py --workload cluster-day --trace 1`` reports
placement, autoscaler, recommender and kernel time.

``--pods`` and ``--minutes`` (see ``benchmarks/conftest.py``) scale the
day down for smoke runs without editing this file.
"""

import time

from conftest import kcn_of, write_bench_json

from repro.capacity import make_capacity_scenario, run_capacity
from repro.capacity.engine import ClusterEngine

MINUTES = 1440
PODS = 1000
SEED = 3


def test_capacity_cluster_day(once, request):
    pods = request.config.getoption("--pods") or PODS
    minutes = request.config.getoption("--minutes") or MINUTES
    walls = {}

    def run_day():
        start = time.perf_counter()
        scenario = make_capacity_scenario(
            "cluster-day", seed=SEED, minutes=minutes, pods=pods
        )
        walls["build"] = time.perf_counter() - start
        start = time.perf_counter()
        result = ClusterEngine(scenario).run()
        walls["run"] = time.perf_counter() - start
        start = time.perf_counter()
        replay = run_capacity(
            make_capacity_scenario(
                "cluster-day", seed=SEED, minutes=minutes, pods=pods
            )
        )
        walls["replay"] = time.perf_counter() - start
        return result, replay

    result, replay = once(run_day)

    # Scale claims: the full fleet day ran, every tenant is accounted
    # for, and the pool actually flexed.
    assert result.tenants == pods
    assert result.minutes == minutes
    assert result.node_minutes > 0
    assert result.dollars > 0
    assert len(result.per_tenant) == pods
    # Billing covers provisioning boot minutes the utilization histogram
    # (ready nodes only) never sees, so billed >= histogrammed.
    assert 0 < sum(result.utilization_histogram) <= result.node_minutes

    # Replay claim: the run is a pure function of the seeded scenario.
    assert result.canonical_json() == replay.canonical_json()

    # The acceptance bound.
    assert walls["run"] < 300.0

    write_bench_json(
        "capacity_cluster_day",
        walls,
        kcn={"cluster-day": kcn_of(result), "replay": kcn_of(replay)},
        extra={
            "pods": pods,
            "minutes": minutes,
            "seed": SEED,
            "final_nodes": result.final_nodes,
            "peak_nodes": result.peak_nodes,
            "node_minutes": result.node_minutes,
            "dollars": result.dollars,
            "throttled_minutes": result.throttled_minutes,
            "pending_pod_minutes": result.pending_pod_minutes,
            "deferred_resizes": result.deferred_resizes,
            "placement_log_entries": len(result.placement_log),
        },
    )
