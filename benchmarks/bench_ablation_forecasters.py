"""Ablation: the pluggable forecaster (§4.3).

"We experimented with various algorithms [...] we found the naïve
algorithm to be the most lightweight and explainable."

The ablation evaluates every registered forecaster two ways on the
Figure 10 cyclical workload:

1. pure prediction accuracy (MAE of day 3 fitted on days 1-2);
2. end-to-end autoscaling quality when plugged into proactive CaaSPER
   (total slack / throttling of the simulated run).

Expected shape: the seasonal models (naïve, Holt-Winters, Fourier) beat
the non-seasonal ones on this cyclical trace, and the naïve default is
competitive with the heavier models — the paper's justification for
keeping it simple.
"""

import numpy as np

from conftest import kcn_of, timed_variant, write_bench_json

from repro.analysis.tables import format_table
from repro.core import CaasperConfig, CaasperRecommender
from repro.forecast import available_forecasters, make_forecaster
from repro.sim import SimulatorConfig, simulate_trace
from repro.trace import MINUTES_PER_DAY
from repro.workloads import cyclical_days

SEASONAL = {"naive", "holt_winters", "fourier"}


def _accuracy(name: str, demand) -> float:
    kwargs = (
        {"period_minutes": MINUTES_PER_DAY} if name in SEASONAL else {}
    )
    forecaster = make_forecaster(name, **kwargs)
    history = demand.window(0, 2 * MINUTES_PER_DAY)
    actual = demand.samples[2 * MINUTES_PER_DAY :]
    predicted = forecaster.forecast(history, len(actual))
    return float(np.mean(np.abs(predicted - actual)))


def _autoscale(name: str, demand):
    config = CaasperConfig(
        max_cores=16,
        c_min=2,
        proactive=True,
        forecaster=name,
        seasonal_period_minutes=MINUTES_PER_DAY,
        forecast_horizon_minutes=60,
        history_tail_minutes=30,
    )
    return simulate_trace(
        demand,
        CaasperRecommender(config),
        SimulatorConfig(
            initial_cores=14,
            min_cores=2,
            max_cores=16,
            decision_interval_minutes=10,
            resize_delay_minutes=5,
        ),
    )


def test_ablation_forecasters(once):
    demand = cyclical_days()

    def run_all():
        names = available_forecasters()
        return {
            name: (_accuracy(name, demand), _autoscale(name, demand))
            for name in names
        }

    walls: dict[str, float] = {}
    results = once(timed_variant(walls, "forecaster_sweep", run_all))

    rows = []
    for name, (mae, sim) in sorted(results.items(), key=lambda kv: kv[1][0]):
        rows.append(
            [
                name,
                mae,
                sim.metrics.total_slack,
                sim.metrics.total_insufficient_cpu,
                sim.metrics.num_scalings,
            ]
        )
    print()
    print("Ablation: forecaster choice (Figure 10 cyclical workload)")
    print(
        format_table(
            ["forecaster", "day3_MAE", "slack (K)", "insuff (C)", "N"], rows
        )
    )

    maes = {name: mae for name, (mae, _) in results.items()}
    # Seasonal models beat non-seasonal ones on a cyclical trace.
    best_seasonal = min(maes[name] for name in SEASONAL)
    worst_seasonal = max(maes[name] for name in SEASONAL)
    non_seasonal = [maes[n] for n in maes if n not in SEASONAL]
    assert best_seasonal < min(non_seasonal)

    # The paper's naive default is competitive: within 2x of the best.
    assert maes["naive"] <= 2.0 * best_seasonal

    # End-to-end: every seasonal-forecaster run serves ≥ 98% of demand.
    total_demand = float(demand.samples.sum())
    for name in SEASONAL:
        sim = results[name][1]
        served = 1.0 - sim.metrics.total_insufficient_cpu / total_demand
        assert served > 0.98, name

    write_bench_json(
        "ablation_forecasters",
        wall_seconds=walls,
        kcn={name: kcn_of(sim) for name, (_, sim) in sorted(results.items())},
        extra={"day3_mae": {name: mae for name, mae in sorted(maes.items())}},
    )
