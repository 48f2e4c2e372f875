"""Integration tests over the paper-experiment modules.

Each experiment is executed (with reduced search sizes where a full run
would be slow) and its paper shape claims asserted. These are the
tests-level mirror of the benchmark harness.
"""

import pytest

from repro.experiments import (
    EXPERIMENTS,
    correctness,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
)


@pytest.fixture(scope="module")
def fig3_result():
    return fig3.run()


@pytest.fixture(scope="module")
def fig9_result():
    return fig9.run()


@pytest.fixture(scope="module")
def fig10_result():
    return fig10.run()


@pytest.fixture(scope="module")
def fig11_result():
    return fig11.run()


@pytest.fixture(scope="module")
def search_population():
    return fig12.run(trials=40, seed=0, resample_minutes=10)


class TestFig3:
    def test_slack_ordering(self, fig3_result):
        """Control > VPA > CaaSPER on slack; OpenShift starves."""
        r = fig3_result
        assert r.vpa.metrics.total_slack < r.control.metrics.total_slack
        assert r.caasper.metrics.total_slack < r.vpa.metrics.total_slack

    def test_caasper_slack_reduction_near_paper(self, fig3_result):
        assert 0.6 <= fig3_result.caasper_slack_reduction <= 0.9

    def test_vpa_slack_reduction_near_paper(self, fig3_result):
        assert 0.35 <= fig3_result.vpa_slack_reduction <= 0.75

    def test_openshift_throttles_severely(self, fig3_result):
        r = fig3_result
        assert r.openshift.metrics.throttled_observation_pct > 30.0
        assert r.served_fraction(r.openshift) < 0.7

    def test_caasper_serves_nearly_everything(self, fig3_result):
        assert fig3_result.served_fraction(fig3_result.caasper) > 0.95

    def test_control_never_scales(self, fig3_result):
        assert fig3_result.control.metrics.num_scalings == 0

    def test_render(self, fig3_result):
        text = fig3.render(fig3_result, charts=False)
        assert "k8s-vpa" in text and "caasper" in text


class TestFig4:
    def test_scale_up_from_inflection(self):
        result = fig4.run()
        decision = result.decision
        assert decision.branch == "scale_up"
        # The paper's example: 3 cores -> 6 cores in one step.
        assert 5 <= result.scaled_to <= 7
        assert decision.slope >= 3.0

    def test_post_scale_curve_healthy(self):
        result = fig4.run()
        new_cores = result.decision.target_cores
        assert result.post_scale_curve.slope_at(new_cores) < 3.0

    def test_render(self):
        assert "inflection" in fig4.render(fig4.run())


class TestFig5:
    def test_throttled_slope_much_steeper(self):
        result = fig5.run()
        assert result.slope_a > 3.0
        assert result.slope_b < 2.0
        assert result.slope_a > 3 * max(result.slope_b, 0.1)

    def test_render(self):
        assert "Workload A" in fig5.render(fig5.run())


class TestFig6:
    def test_sf_curve_monotone_concave(self):
        result = fig6.run()
        for skew in result.skews:
            values = result.values[skew]
            diffs = values[1:] - values[:-1]
            assert (diffs >= -1e-12).all()
            # Concavity: increments shrink.
            assert diffs[-1] <= diffs[1] + 1e-12

    def test_higher_skew_scales_harder(self):
        result = fig6.run()
        mid = len(result.slopes) // 2
        ordered = [result.values[s][mid] for s in sorted(result.skews)]
        assert ordered == sorted(ordered)

    def test_render(self):
        assert "scaling factor" in fig6.render(fig6.run())


class TestFig7:
    def test_under_provisioned_scales_up(self):
        result = fig7.run()
        assert result.under_decision.branch == "scale_up"
        assert result.under_decision.delta > 0

    def test_over_provisioned_walks_down_deeply(self):
        result = fig7.run()
        assert result.over_decision.branch == "walk_down"
        # The paper: "scaling down by almost 8 cores" from 12.
        assert result.over_decision.delta <= -6

    def test_render(self):
        assert "flat" in fig7.render(fig7.run())


class TestFig8:
    def test_window_regimes(self):
        result = fig8.run()
        assert not result.period1.used_forecast
        assert result.period2.used_forecast
        assert result.before_spike.window.max() > 10.0

    def test_render(self):
        assert "Eq. 4" in fig8.render(fig8.run())


class TestFig9:
    def test_slack_reduced_meaningfully(self, fig9_result):
        assert 0.25 <= fig9_result.slack_reduction <= 0.55

    def test_cheaper_than_control(self, fig9_result):
        assert fig9_result.price_ratio < 1.0

    def test_throughput_preserved(self, fig9_result):
        assert fig9_result.throughput_ratio > 0.97

    def test_latency_within_margin(self, fig9_result):
        control = fig9_result.control.detail["transactions"]
        caasper = fig9_result.caasper.detail["transactions"]
        assert caasper["avg_latency_ms"] < 1.3 * control["avg_latency_ms"]

    def test_a_handful_of_scalings(self, fig9_result):
        # Paper: 3 resizings over the 12 hours (ours may differ slightly).
        assert 2 <= fig9_result.caasper.metrics.num_scalings <= 10

    def test_render(self, fig9_result):
        assert "Table 1" in fig9.render(fig9_result, charts=False)


class TestFig10:
    def test_both_modes_cut_slack_sharply(self, fig10_result):
        assert fig10_result.reactive_slack_reduction > 0.55
        assert fig10_result.proactive_slack_reduction > 0.55

    def test_price_in_paper_band(self, fig10_result):
        """Abstract: cost reduced to 49%-74% of original."""
        assert 0.40 <= fig10_result.reactive_price_ratio <= 0.75
        assert 0.40 <= fig10_result.proactive_price_ratio <= 0.75

    def test_proactive_avoids_spike_throttling(self, fig10_result):
        reactive_day2 = fig10_result.spike_day_throttling(fig10_result.reactive)
        proactive_day2 = fig10_result.spike_day_throttling(
            fig10_result.proactive
        )
        assert proactive_day2 < 0.25 * max(reactive_day2, 1.0)

    def test_throughput_parity(self, fig10_result):
        control = fig10_result.control.detail["transactions"]["total_completed"]
        for run in (fig10_result.reactive, fig10_result.proactive):
            completed = run.detail["transactions"]["total_completed"]
            assert completed > 0.97 * control

    def test_render(self, fig10_result):
        assert "cyclical" in fig10.render(fig10_result, charts=False)


class TestFig11:
    def test_performance_run_preserves_throughput(self, fig11_result):
        ratio = fig11_result.throughput_ratio(fig11_result.prefer_performance)
        assert ratio > 0.95

    def test_savings_run_trades_throughput_for_price(self, fig11_result):
        r = fig11_result
        savings_thrpt = r.throughput_ratio(r.prefer_savings)
        perf_thrpt = r.throughput_ratio(r.prefer_performance)
        assert savings_thrpt < perf_thrpt
        assert savings_thrpt > 0.8  # ~10% loss in the paper

    def test_price_ordering(self, fig11_result):
        r = fig11_result
        perf_price = r.price_ratio(r.prefer_performance)
        savings_price = r.price_ratio(r.prefer_savings)
        assert savings_price < perf_price < 1.0

    def test_savings_latency_penalty(self, fig11_result):
        r = fig11_result
        control_lat = r.control.detail["transactions"]["avg_latency_ms"]
        savings_lat = r.prefer_savings.detail["transactions"]["avg_latency_ms"]
        assert savings_lat > control_lat

    def test_median_latency_stable(self, fig11_result):
        """Paper: medians ~35ms across all three runs."""
        r = fig11_result
        medians = [
            run.detail["transactions"]["median_latency_ms"]
            for run in r.all_results()
        ]
        assert max(medians) < 1.25 * min(medians)

    def test_render(self, fig11_result):
        assert "preferences" in fig11.render(fig11_result, charts=False)


class TestFig12:
    def test_population_shows_tradeoff(self, search_population):
        outcome = search_population.outcome
        frontier = search_population.pareto_indices
        assert len(frontier) >= 2
        # Along the frontier, slack down means throttling up.
        slack = outcome.slack_values()
        throttle = outcome.throttle_values()
        ordered = sorted(frontier, key=lambda i: slack[i])
        assert throttle[ordered[0]] >= throttle[ordered[-1]]

    def test_proactive_population_has_more_slack(self, search_population):
        assert (
            search_population.proactive_mean_slack()
            > search_population.reactive_mean_slack()
        )

    def test_render(self, search_population):
        assert "Pareto" in fig12.render(search_population)


class TestFig13:
    def test_alpha_monotonicity(self):
        result = fig13.run(trials=40, seed=0, resample_minutes=10)
        alphas = sorted(result.best_by_alpha)
        slacks = [result.best_by_alpha[a].total_slack for a in alphas]
        throttles = [
            result.best_by_alpha[a].total_insufficient_cpu for a in alphas
        ]
        # As alpha increases: slack non-increasing, throttling non-decreasing.
        assert all(b <= a + 1e-9 for a, b in zip(slacks, slacks[1:]))
        assert all(b >= a - 1e-9 for a, b in zip(throttles, throttles[1:]))

    def test_render(self):
        result = fig13.run(trials=20, seed=0, resample_minutes=10)
        assert "alpha" in fig13.render(result)


class TestFig14:
    def test_single_container_metrics_in_band(self):
        result = fig14.evaluate_container("c_10235", tune_trials=10)
        metrics = result.metrics
        assert metrics.average_slack < 4.5
        assert metrics.throttled_observation_pct < 5.0
        assert metrics.num_scalings > 5

    def test_noisier_container_scales_more_under_same_config(self):
        """Table 3's shape claim isolated from per-trace tuning: under an
        identical configuration, the jittery c_26742 triggers more
        scalings than the smooth c_48113."""
        from repro.core import CaasperConfig, CaasperRecommender
        from repro.sim import SimulatorConfig, simulate_trace
        from repro.workloads import alibaba_trace

        def scalings(container_id):
            trace = alibaba_trace(container_id)
            # Normalize scale so only the *shape* differs.
            trace = trace.scaled(3.0 / max(trace.mean(), 1e-9))
            rec = CaasperRecommender(CaasperConfig(max_cores=16, c_min=1))
            result = simulate_trace(
                trace,
                rec,
                SimulatorConfig(
                    initial_cores=4,
                    min_cores=1,
                    max_cores=16,
                    decision_interval_minutes=10,
                    resize_delay_minutes=5,
                ),
            )
            return result.metrics.num_scalings

        assert scalings("c_48113") < scalings("c_26742")

    def test_run_and_render_subset(self):
        result = fig14.run(container_ids=("c_4043",), tune_trials=5)
        text = fig14.render(result)
        assert "c_4043" in text


class TestCorrectness:
    def test_simulator_equivalent_to_live(self):
        result = correctness.run()
        assert result.equivalent
        assert abs(result.ttest.mean_difference) < 1.0

    def test_render(self):
        assert "t-test" in correctness.render(correctness.run())


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {
            "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
            "fig10", "fig11", "fig12", "fig13", "fig14", "correctness",
        }

    def test_every_module_has_run_and_render(self):
        for module in EXPERIMENTS.values():
            assert callable(module.run)
            assert callable(module.render)
