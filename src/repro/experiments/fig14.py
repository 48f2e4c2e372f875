"""Figure 14 + Table 3: Alibaba cluster-trace evaluation (§6.3).

For each of the 11 container traces (synthesized per DESIGN.md §2's
substitution): tune CaaSPER's parameters with a small random search on a
coarsened copy of the trace, then replay the tuned configuration on the
full per-minute trace and report Table 3's columns — average slack,
number of scalings, average insufficient CPU and throttled-observation
percentage.

Expected shape (Table 3): sub-core to few-core average slack everywhere,
throttled observations at or below ~1.2%, tens-to-hundreds of scalings;
c_48113 smooth → fewest scalings; c_26742 noisy → most scalings and the
highest throttled share; c_29247's Day-3 outlier spike inflates its slack
via the naïve forecast (Figure 14e discussion).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..analysis.plots import render_series
from ..analysis.tables import format_table
from ..core import CaasperConfig
from ..core.recommender import CaasperRecommender
from ..sim import SimulationResult, SimulatorConfig, simulate_trace
from ..trace import MINUTES_PER_DAY, CpuTrace
from ..tuning import ParameterSpace, RandomSearch
from ..workloads import ALIBABA_CONTAINER_IDS, alibaba_trace

__all__ = ["run", "render", "Fig14Result", "evaluate_container"]

MIN_CORES = 1
TUNING_ALPHA = 0.05


def _max_cores_for(trace: CpuTrace) -> int:
    """Instance ceiling: headroom above the trace's own peak (§6.3's
    "integer values in range of our instance max sizes")."""
    return max(4, int(math.ceil(trace.peak() * 1.3)))


def _simulator_config(
    max_cores: int, initial_cores: int, resample_minutes: int = 1
) -> SimulatorConfig:
    return SimulatorConfig(
        initial_cores=initial_cores,
        min_cores=MIN_CORES,
        max_cores=max_cores,
        decision_interval_minutes=max(1, 10 // resample_minutes),
        resize_delay_minutes=max(1, 5 // resample_minutes),
    )


def evaluate_container(
    container_id: str,
    tune_trials: int = 30,
    tune_resample_minutes: int = 5,
    seed: int = 0,
    proactive: bool = True,
) -> SimulationResult:
    """Tune on a coarsened copy, then replay the full trace."""
    trace = alibaba_trace(container_id)
    max_cores = _max_cores_for(trace)
    initial = max(MIN_CORES, int(math.ceil(trace.samples[:60].mean())))

    base = CaasperConfig(
        max_cores=max_cores,
        c_min=MIN_CORES,
        proactive=proactive,
        seasonal_period_minutes=MINUTES_PER_DAY // tune_resample_minutes,
    )
    coarse = trace.resampled(tune_resample_minutes)
    search = RandomSearch(
        coarse,
        _simulator_config(max_cores, initial, tune_resample_minutes),
        ParameterSpace(base=base, dimensions={}, include_proactive=False),
    )
    tuned = search.tuned_config(tune_trials, alpha=TUNING_ALPHA, seed=seed)
    tuned = tuned.with_updates(
        seasonal_period_minutes=MINUTES_PER_DAY, proactive=proactive
    )

    recommender = CaasperRecommender(tuned)
    result = simulate_trace(
        trace, recommender, _simulator_config(max_cores, initial)
    )
    return SimulationResult(
        name=container_id,
        demand=result.demand,
        usage=result.usage,
        limits=result.limits,
        events=result.events,
        metrics=result.metrics,
        detail={"config": tuned},
    )


@dataclass(frozen=True)
class Fig14Result:
    """Per-container results, keyed by container id."""

    results: dict[str, SimulationResult]

    def table_rows(self) -> list[list[object]]:
        """Table 3's rows, in container-id order."""
        rows = []
        for container_id in sorted(self.results):
            metrics = self.results[container_id].metrics
            rows.append(
                [
                    container_id,
                    metrics.average_slack,
                    metrics.num_scalings,
                    metrics.average_insufficient_cpu,
                    metrics.throttled_observation_pct,
                ]
            )
        return rows


def run(
    container_ids: tuple[str, ...] = ALIBABA_CONTAINER_IDS,
    tune_trials: int = 30,
    seed: int = 0,
) -> Fig14Result:
    """Evaluate every requested container trace."""
    return Fig14Result(
        results={
            container_id: evaluate_container(
                container_id, tune_trials=tune_trials, seed=seed
            )
            for container_id in container_ids
        }
    )


def render(result: Fig14Result, charts: bool = False) -> str:
    """Table 3 plus (optionally) the Figure 14 panels."""
    lines = [
        "Figure 14 / Table 3: Alibaba workload traces (synthesized)",
        "(paper: avg slack 0.15-3.94, scalings 38-443, "
        "throttled obs 0-1.21%)",
        "",
        format_table(
            [
                "workload",
                "avg_slack",
                "num_scalings",
                "avg_insuff_cpu",
                "throttled_obs_%",
            ],
            result.table_rows(),
        ),
    ]
    if charts:
        for container_id in sorted(result.results):
            run_result = result.results[container_id]
            lines.append("")
            lines.append(
                render_series(
                    run_result.usage,
                    run_result.limits,
                    title=f"--- {container_id} ---",
                )
            )
    return "\n".join(lines)
