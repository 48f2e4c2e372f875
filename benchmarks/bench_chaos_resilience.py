"""Chaos resilience: the closed loop under the kitchen-sink gauntlet.

Not a paper figure — a robustness benchmark for the hardened control
plane. The same cyclical day is replayed twice through the live
substrate: fault-free, and under the all-four-kinds ``kitchen-sink``
chaos scenario (telemetry corruption, actuation rejections, node
pressure, component crashes). The comparison quantifies what injected
production failures cost in K/C/N when every one of them is absorbed by
the degradation ladder (safe-mode, retry/backoff, watchdog rollback,
quarantine) instead of crashing the loop.
"""

import time

from conftest import chaos_comparison, kcn_of, write_bench_json

from repro.cluster.controller import ControlLoopConfig
from repro.cluster.scaler import ScalerConfig
from repro.core import CaasperConfig, CaasperRecommender
from repro.db.service import DbServiceConfig
from repro.faults.scenarios import make_scenario
from repro.sim.live import LiveSystemConfig, simulate_live
from repro.workloads import cyclical_days
from repro.workloads.base import TraceWorkload

MINUTES = 1440
SEED = 3


def _config() -> LiveSystemConfig:
    return LiveSystemConfig(
        service=DbServiceConfig(replicas=3, initial_cores=4),
        control=ControlLoopConfig(
            decision_interval_minutes=10,
            scaler=ScalerConfig(min_cores=2, max_cores=7),
        ),
    )


def _run(faults=None):
    workload = TraceWorkload(cyclical_days(days=1, name="chaos-day"))
    recommender = CaasperRecommender(CaasperConfig(max_cores=7, c_min=2))
    return simulate_live(workload, recommender, _config(), faults=faults)


def test_chaos_resilience(once):
    plan = make_scenario("kitchen-sink", seed=SEED, horizon_minutes=MINUTES)
    walls = {}

    def run_both():
        start = time.perf_counter()
        clean = _run()
        walls["clean"] = time.perf_counter() - start
        start = time.perf_counter()
        chaos = _run(faults=plan)
        walls["chaos"] = time.perf_counter() - start
        return clean, chaos

    clean, chaos = once(run_both)
    print()
    print(chaos_comparison(clean, chaos))

    # Shape claims: the clean run stays on the plain loop; the chaos run
    # injects faults, absorbs every one, and still finishes with sane
    # metrics.
    assert "resilience" not in clean.detail
    fires = chaos.detail["faults"]
    assert sum(fires.values()) > 0
    resilience = chaos.detail["resilience"]
    assert sum(resilience.values()) > 0
    assert chaos.metrics.total_slack >= 0
    assert chaos.metrics.total_insufficient_cpu >= 0
    # Corrupted telemetry blinds the loop during the ramp, so chaos can
    # only serve demand as well as — never better than — fault-free.
    assert (
        chaos.metrics.total_insufficient_cpu
        >= clean.metrics.total_insufficient_cpu
    )

    write_bench_json(
        "chaos_resilience",
        wall_seconds=dict(walls),
        kcn={"clean": kcn_of(clean), "chaos": kcn_of(chaos)},
        cache_hit_rate=None,  # no result store in this benchmark
        extra={
            "minutes": MINUTES,
            "seed": SEED,
            "faults_injected": int(sum(fires.values())),
            "degradations": {k: int(v) for k, v in resilience.items()},
        },
    )
