"""Serve-plane throughput: tenants stepped per second vs fleet size.

Not a paper figure — this measures the repo's own `repro.serve` control
plane (see `docs/SERVE.md`): how many tenant-loop steps per second the
single-threaded plane sustains as the fleet grows from 100 to 1000
tenants. The plane steps every tenant every simulated minute, so the
tick loop is O(tenants); tenants-stepped-per-second should therefore be
roughly flat across fleet sizes — superlinear degradation would point
at an accidental O(n²) in admission, supervision or journaling.

Runs in-process through the deterministic harness with journaling off
(`state_dir=None`) and a calm scenario — this times the control plane,
not the fault machinery or fsync.

Each tick is timed on its own and the p50/p90 tick latency is reported
per fleet size. Decision intervals of 5, 10 and 15 minutes put every
CaaSPER consult on a multiple of 5, so the p50 tick consults nobody and
the p90 ticks are the consult ticks.
"""

import math
import statistics
import time

from conftest import write_bench_json

from repro.serve.config import ServeConfig
from repro.serve.harness import ServeHarness

MINUTES = 60
FLEETS = (100, 500, 1000)


def _config():
    return ServeConfig(
        queue_capacity=8,
        global_sample_cap=16 * max(FLEETS),
        fsync_journal=False,
    )


def _run_fleet(tenants):
    """A fresh fleet run for ``MINUTES`` ticks; returns it with each tick's
    wall seconds."""
    harness = ServeHarness(
        tenants,
        config=_config(),
        seed=5,
        crash_rate=0.0,
    )
    ticks = []
    for _ in range(MINUTES):
        start = time.perf_counter()
        harness.run(1)
        ticks.append(time.perf_counter() - start)
    return harness, ticks


def _tick_ms(ticks, fraction):
    """Nearest-rank percentile of tick seconds, in milliseconds."""
    ordered = sorted(ticks)
    return ordered[max(math.ceil(fraction * len(ordered)), 1) - 1] * 1e3


def _kcn_totals(harness):
    totals = {"K": 0.0, "C": 0.0, "N": 0.0}
    for ledger in harness.kcn().values():
        totals["K"] += ledger["K"]
        totals["C"] += ledger["C"]
        totals["N"] += ledger["N"]
    return totals


def test_serve_throughput(once):
    walls = {}
    harnesses = {}
    tick_ms = {}
    for tenants in FLEETS:
        start = time.perf_counter()
        harnesses[tenants], ticks = _run_fleet(tenants)
        walls[tenants] = time.perf_counter() - start
        tick_ms[tenants] = {
            "p50": statistics.median(ticks) * 1e3,
            "p90": _tick_ms(ticks, 0.90),
        }

    # Time the largest fleet for the recorded benchmark number.
    once(_run_fleet, max(FLEETS))

    rates = {
        tenants: tenants * MINUTES / walls[tenants] for tenants in FLEETS
    }

    print()
    print(f"serve plane throughput ({MINUTES} simulated minutes per fleet)")
    print(
        f"{'tenants':>8}  {'wall (s)':>9}  {'steps/s':>10}"
        f"  {'tick p50 ms':>11}  {'tick p90 ms':>11}"
    )
    for tenants in FLEETS:
        print(
            f"{tenants:>8}  {walls[tenants]:>9.2f}  {rates[tenants]:>10.0f}"
            f"  {tick_ms[tenants]['p50']:>11.2f}"
            f"  {tick_ms[tenants]['p90']:>11.2f}"
        )

    # The tick loop must stay roughly linear in fleet size: per-tenant
    # step rate at 1000 tenants within 5x of the 100-tenant rate (loose
    # enough for shared-runner noise, tight enough to catch O(n²)).
    assert rates[1000] >= rates[100] / 5.0, (
        f"throughput collapsed with fleet size: "
        f"{rates[100]:.0f} steps/s at 100 tenants vs "
        f"{rates[1000]:.0f} at 1000"
    )

    # Every tenant actually stepped every minute.
    for tenants, harness in harnesses.items():
        assert harness.plane.tick == MINUTES
        assert len(harness.kcn()) == tenants

    write_bench_json(
        "serve_throughput",
        wall_seconds={f"tenants={t}": walls[t] for t in FLEETS},
        kcn={f"tenants={t}": _kcn_totals(h) for t, h in harnesses.items()},
        cache_hit_rate=None,  # no result store in this benchmark
        extra={
            "minutes": MINUTES,
            "tenants_stepped_per_second": {
                str(tenants): rates[tenants] for tenants in FLEETS
            },
            "tick_p50_ms": {
                str(tenants): tick_ms[tenants]["p50"] for tenants in FLEETS
            },
            "tick_p90_ms": {
                str(tenants): tick_ms[tenants]["p90"] for tenants in FLEETS
            },
        },
    )
