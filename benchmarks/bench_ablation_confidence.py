"""Ablation: confidence-interval forecasting and the §8 prefilter.

"By incorporating ML predictors that provide confidence intervals rather
than point estimators, we can guide scaling actions with greater
precision and adjust our decision-making to be more conservative or
aggressive based on prediction quality."

Three proactive variants replay the cyclical workload at two noise
levels:

- *point*: the paper's current behaviour (point forecast);
- *upper*: the conservative variant — Algorithm 1 sees the upper
  prediction band;
- *gated*: upper band plus the quality gate (fall back to reactive when
  the band is too wide).

Expected shape: on the clean trace all three behave similarly; on the
noisy trace the upper band buys less throttling at more slack
(conservative), and the gate keeps proactive mode from acting on
forecasts it cannot trust.
"""

from conftest import kcn_of, timed_variant, write_bench_json

from repro.analysis.tables import format_table
from repro.core import CaasperConfig, CaasperRecommender
from repro.sim import SimulatorConfig, simulate_trace
from repro.trace import MINUTES_PER_DAY
from repro.workloads import cyclical_days


def _config(variant: str) -> CaasperConfig:
    base = CaasperConfig(
        max_cores=16,
        c_min=2,
        proactive=True,
        forecaster="fourier",
        seasonal_period_minutes=MINUTES_PER_DAY,
        forecast_horizon_minutes=60,
        history_tail_minutes=30,
    )
    if variant == "point":
        return base
    if variant == "upper":
        return base.with_updates(forecast_confidence=0.9)
    return base.with_updates(
        forecast_confidence=0.9, forecast_quality_gate=0.6
    )


def _run(variant: str, sigma: float):
    demand = cyclical_days(sigma=sigma, seed=21)
    recommender = CaasperRecommender(_config(variant))
    recommender.name = f"{variant}@sigma={sigma}"
    return simulate_trace(
        demand,
        recommender,
        SimulatorConfig(
            initial_cores=14,
            min_cores=2,
            max_cores=16,
            decision_interval_minutes=10,
            resize_delay_minutes=5,
        ),
    )


def test_ablation_confidence_prefilter(once):
    def run_all():
        return {
            (variant, sigma): _run(variant, sigma)
            for variant in ("point", "upper", "gated")
            for sigma in (0.05, 0.40)
        }

    walls: dict[str, float] = {}
    results = once(timed_variant(walls, "confidence_sweep", run_all))

    rows = []
    for (variant, sigma), result in sorted(results.items()):
        metrics = result.metrics
        rows.append(
            [
                variant,
                sigma,
                metrics.total_slack,
                metrics.total_insufficient_cpu,
                metrics.num_scalings,
            ]
        )
    print()
    print("Ablation: §8 confidence intervals + prefilter (cyclical workload)")
    print(
        format_table(
            ["variant", "sigma", "slack (K)", "insuff (C)", "N"], rows
        )
    )

    # Conservative banding: at high noise the upper-band variant carries
    # more slack and no more throttling than the point variant.
    point_noisy = results[("point", 0.40)].metrics
    upper_noisy = results[("upper", 0.40)].metrics
    assert upper_noisy.total_slack > point_noisy.total_slack
    assert (
        upper_noisy.total_insufficient_cpu
        <= point_noisy.total_insufficient_cpu * 1.05
    )

    # On the clean trace the three variants are close (bands are tight).
    clean_slacks = [
        results[(variant, 0.05)].metrics.total_slack
        for variant in ("point", "upper", "gated")
    ]
    assert max(clean_slacks) < 1.5 * min(clean_slacks)

    # Every variant still serves essentially all demand.
    for result in results.values():
        served = 1 - result.metrics.total_insufficient_cpu / result.demand.sum()
        assert served > 0.95

    write_bench_json(
        "ablation_confidence",
        wall_seconds=walls,
        kcn={
            f"{variant}@sigma={sigma}": kcn_of(result)
            for (variant, sigma), result in sorted(results.items())
        },
    )
