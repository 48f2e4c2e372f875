"""Cross-module pipeline integrations.

End-to-end paths that chain several subsystems the way a downstream
user would: CSV ingest → rescale → sweep; live run → decision audit;
grid tuning → preference replay; doppler profile → CaaSPER ceiling.
"""

import numpy as np
import pytest

from repro.analysis import explain_decisions
from repro.core import CaasperConfig, CaasperRecommender
from repro.doppler import ResourceUsageProfile, SkuCatalog, sku_pvp_curve
from repro.obs import Observer
from repro.sim import SimulatorConfig, SweepConfig, run_sweep, simulate_trace
from repro.sim.live import LiveSystemConfig, simulate_live
from repro.cluster.controller import ControlLoopConfig
from repro.cluster.scaler import ScalerConfig
from repro.db.service import DbServiceConfig
from repro.trace import CpuTrace
from repro.tuning import GridSearch
from repro.workloads import (
    load_alibaba_csv,
    rescale_millicores,
    workday,
    workweek,
)
from repro.workloads.base import TraceWorkload


class TestCsvToSweepPipeline:
    def test_ingest_rescale_sweep(self, tmp_path):
        """Alibaba-style CSV → per-minute trace → §6.3 rescale → sweep."""
        rng = np.random.default_rng(7)
        rows = []
        for minute in range(300):
            for cid, level in (("c_x", 30.0), ("c_y", 70.0)):
                jitter = rng.normal(0, 3)
                rows.append(
                    f"{minute * 60},{cid},{max(level + jitter, 0):.2f}"
                )
        path = tmp_path / "usage.csv"
        path.write_text("\n".join(rows) + "\n")

        traces = []
        for cid in ("c_x", "c_y"):
            raw = load_alibaba_csv(path, cid, host_cores=4.0)
            traces.append(rescale_millicores(raw, target_max_cores=12))

        outcome = run_sweep(traces, SweepConfig(min_cores=1))
        assert set(outcome.results) == {"c_x", "c_y"}
        for result in outcome.results.values():
            assert result.metrics.minutes == 300
            # Rescaled peak ~12 cores; guardrails covered it.
            assert result.limits.max() <= 12 * 1.3 + 1
        table = outcome.table()
        assert "c_x" in table and "c_y" in table


class TestLiveRunToAudit:
    def test_live_run_explains_itself(self):
        """Full substrate run, then the R6 audit trail of its decisions."""
        recommender = CaasperRecommender(
            CaasperConfig(max_cores=8, c_min=2, quantile=0.90, m_high=0.05)
        )
        observer = Observer()
        simulate_live(
            TraceWorkload(workday(sigma=0.08)),
            recommender,
            LiveSystemConfig(
                service=DbServiceConfig(replicas=3, initial_cores=6),
                control=ControlLoopConfig(
                    decision_interval_minutes=10,
                    scaler=ScalerConfig(min_cores=2, max_cores=8),
                ),
            ),
            observer=observer,
        )
        audit = explain_decisions(recommender, observer)
        assert "decision audit" in audit
        # The workday run must contain both directions.
        assert "scale_up" in audit
        assert "walk_down" in audit or "scale_down" in audit


class TestGridToReplay:
    def test_grid_tuned_config_replays(self):
        """Grid-tune on a coarse trace, replay the winner at full res."""
        demand = workweek(weeks=1, sigma=0.05, seed=5)
        coarse = demand.resampled(10)
        search = GridSearch(
            coarse,
            SimulatorConfig(
                initial_cores=6,
                min_cores=1,
                max_cores=10,
                decision_interval_minutes=1,
                resize_delay_minutes=1,
            ),
            CaasperConfig(max_cores=10, c_min=1),
            {"m_low": [0.3, 0.5], "scale_down_headroom": [0.0, 0.2]},
        )
        outcome = search.run()
        best = outcome.best_for_alpha(0.1).config

        replay = simulate_trace(
            demand,
            CaasperRecommender(best),
            SimulatorConfig(initial_cores=6, min_cores=1, max_cores=10),
        )
        served = 1 - replay.metrics.total_insufficient_cpu / demand.samples.sum()
        assert served > 0.9
        # The autoscaler tracks the weekday/weekend asymmetry: weekend
        # limits sit below the weekday peak.
        weekday_peak = replay.limits[: 5 * 24 * 60].max()
        weekend_mean = replay.limits[5 * 24 * 60 :].mean()
        assert weekend_mean < weekday_peak

    def test_doppler_ceiling_feeds_caasper(self):
        """Pick the SKU with Doppler, use its cores as CaaSPER's R."""
        demand = workday(sigma=0.08)
        profile = ResourceUsageProfile.synthesize(demand, seed=0)
        catalog = SkuCatalog.vm_family([2, 4, 8, 16], memory_gb_per_core=8.0)
        sku = sku_pvp_curve(profile, catalog).cheapest_meeting(0.99)
        assert sku is not None
        max_cores = int(sku.capacity("cpu"))

        result = simulate_trace(
            demand,
            CaasperRecommender(
                CaasperConfig(max_cores=max_cores, c_min=2)
            ),
            SimulatorConfig(
                initial_cores=min(6, max_cores),
                min_cores=2,
                max_cores=max_cores,
            ),
        )
        assert result.limits.max() <= max_cores
        served = 1 - result.metrics.total_insufficient_cpu / demand.samples.sum()
        assert served > 0.95
