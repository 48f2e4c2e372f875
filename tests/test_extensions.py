"""Tests for the paper's future-work extensions (§8).

- in-place resize without restart (K8s [32], footnote 10);
- AR(p) and Fourier-regression forecasters;
- prediction intervals and the confidence prefilter.
"""

import numpy as np
import pytest

from repro.baselines import FixedRecommender
from repro.cluster import Cluster, EventKind, EventLog
from repro.cluster.controller import ControlLoopConfig
from repro.cluster.scaler import ScalerConfig
from repro.core import CaasperConfig, ProactiveWindowBuilder
from repro.db import DBaaSService, DbServiceConfig
from repro.errors import ConfigError, ForecastError
from repro.forecast import (
    ARForecaster,
    FourierRegressionForecaster,
    make_forecaster,
)
from repro.forecast.base import _normal_quantile
from repro.sim.live import LiveSystemConfig, simulate_live
from repro.trace import MINUTES_PER_DAY, CpuTrace
from repro.workloads import cyclical_days
from repro.workloads.base import TraceWorkload
from repro.workloads.synthetic import noisy


class TestInPlaceResize:
    def make_service(self, in_place):
        cluster = Cluster.small()
        service = DBaaSService(
            DbServiceConfig(
                replicas=3, initial_cores=4, in_place_resize=in_place
            ),
            cluster.scheduler,
            cluster.events,
        )
        return service, cluster

    def test_limits_effective_immediately(self):
        service, cluster = self.make_service(in_place=True)
        from repro.cluster.resources import ResourceSpec

        service.operator.begin_update(
            ResourceSpec.whole_cores(6, 8 * 1024), 10, cluster.events
        )
        assert service.client_visible_cores == 6.0
        assert not service.operator.update_in_progress

    def test_no_restarts_no_failovers(self):
        service, cluster = self.make_service(in_place=True)
        from repro.cluster.resources import ResourceSpec

        service.operator.begin_update(
            ResourceSpec.whole_cores(6, 8 * 1024), 10, cluster.events
        )
        assert cluster.events.count(EventKind.POD_RESTART_STARTED) == 0
        assert cluster.events.count(EventKind.FAILOVER) == 0
        assert service.stateful_set.all_serving()

    def test_footnote_10_no_dropped_transactions(self):
        """'Neither the scale-up lag nor failed transactions occur.'"""

        def run(in_place):
            return simulate_live(
                TraceWorkload(
                    noisy(CpuTrace.constant(2.0, 120), sigma=0.05, seed=3)
                ),
                FixedRecommender(6),
                LiveSystemConfig(
                    service=DbServiceConfig(
                        replicas=3, initial_cores=4, in_place_resize=in_place
                    ),
                    control=ControlLoopConfig(
                        decision_interval_minutes=10,
                        scaler=ScalerConfig(min_cores=2, max_cores=8),
                    ),
                    retry_dropped_txns=False,
                ),
            )

        rolling = run(in_place=False)
        in_place = run(in_place=True)
        assert rolling.detail["transactions"]["total_dropped"] > 0
        assert in_place.detail["transactions"]["total_dropped"] == 0
        # No scale-up lag: the in-place resize lands the same minute.
        event = in_place.events[0]
        assert event.enacted_minute == event.decided_minute


class TestARForecaster:
    def test_persists_constant_series(self):
        history = CpuTrace.constant(3.0, 200)
        predicted = ARForecaster(order=6).forecast(history, 30)
        np.testing.assert_allclose(predicted, 3.0, atol=0.05)

    def test_tracks_oscillation(self):
        t = np.arange(600, dtype=float)
        history = CpuTrace(3.0 + 2.0 * np.sin(2 * np.pi * t / 60))
        predicted = ARForecaster(order=30).forecast(history, 60)
        actual = 3.0 + 2.0 * np.sin(2 * np.pi * (600 + np.arange(60)) / 60)
        assert np.mean(np.abs(predicted - actual)) < 0.8

    def test_never_negative(self):
        history = CpuTrace(np.linspace(3.0, 0.05, 100))
        assert (ARForecaster(order=4).forecast(history, 200) >= 0).all()

    def test_needs_enough_history(self):
        with pytest.raises(ForecastError):
            ARForecaster(order=50).forecast(CpuTrace.constant(1.0, 60), 10)

    def test_validation(self):
        with pytest.raises(ForecastError):
            ARForecaster(order=0)
        with pytest.raises(ForecastError):
            ARForecaster(order=10, fit_window_minutes=5)


class TestFourierForecaster:
    def test_captures_daily_cycle(self):
        demand = cyclical_days(days=3, sigma=0.05, seed=1)
        history = demand.window(0, 2 * MINUTES_PER_DAY)
        actual = demand.samples[2 * MINUTES_PER_DAY :]
        predicted = FourierRegressionForecaster(
            period_minutes=MINUTES_PER_DAY, harmonics=6
        ).forecast(history, len(actual))
        assert np.mean(np.abs(predicted - actual)) < 1.2

    def test_captures_trend(self):
        t = np.arange(2000, dtype=float)
        history = CpuTrace(1.0 + 0.002 * t)
        predicted = FourierRegressionForecaster(period_minutes=500).forecast(
            history, 100
        )
        assert predicted[-1] > history.samples[-1]

    def test_validation(self):
        with pytest.raises(ForecastError):
            FourierRegressionForecaster(period_minutes=1)
        with pytest.raises(ForecastError):
            FourierRegressionForecaster(period_minutes=10, harmonics=5)

    def test_registered(self):
        forecaster = make_forecaster("fourier", period_minutes=100)
        assert forecaster.name == "fourier"
        assert make_forecaster("ar").name == "ar"


class TestForecastIntervals:
    def test_interval_brackets_point_forecast(self):
        demand = cyclical_days(days=3, sigma=0.1, seed=2)
        forecaster = FourierRegressionForecaster(
            period_minutes=MINUTES_PER_DAY
        )
        interval = forecaster.forecast_interval(demand, 60, confidence=0.9)
        assert (interval.lower <= interval.mean + 1e-9).all()
        assert (interval.mean <= interval.upper + 1e-9).all()
        assert (interval.lower >= 0).all()

    def test_higher_confidence_widens_band(self):
        demand = cyclical_days(days=3, sigma=0.1, seed=2)
        forecaster = FourierRegressionForecaster(
            period_minutes=MINUTES_PER_DAY
        )
        narrow = forecaster.forecast_interval(demand, 60, confidence=0.5)
        wide = forecaster.forecast_interval(demand, 60, confidence=0.99)
        assert wide.relative_width() > narrow.relative_width()

    def test_noisier_history_widens_band(self):
        calm = cyclical_days(days=3, sigma=0.02, seed=3)
        noisy_trace = cyclical_days(days=3, sigma=0.4, seed=3)
        forecaster = FourierRegressionForecaster(
            period_minutes=MINUTES_PER_DAY
        )
        calm_band = forecaster.forecast_interval(calm, 60)
        noisy_band = forecaster.forecast_interval(noisy_trace, 60)
        assert noisy_band.relative_width() > calm_band.relative_width()

    def test_interval_requires_history(self):
        with pytest.raises(ForecastError):
            ARForecaster(order=4).forecast_interval(
                CpuTrace.constant(1.0, 30), 29
            )

    def test_confidence_validation(self):
        with pytest.raises(ForecastError):
            ARForecaster().forecast_interval(
                CpuTrace.constant(1.0, 500), 10, confidence=1.5
            )

    def test_normal_quantile_accuracy(self):
        from scipy.stats import norm

        for p in (0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999):
            assert _normal_quantile(p) == pytest.approx(
                float(norm.ppf(p)), abs=1e-6
            )


class TestConfidencePrefilter:
    def make_config(self, **kwargs):
        defaults = dict(
            max_cores=16,
            proactive=True,
            seasonal_period_minutes=MINUTES_PER_DAY,
            forecaster="fourier",
            forecast_horizon_minutes=60,
            history_tail_minutes=30,
        )
        defaults.update(kwargs)
        return CaasperConfig(**defaults)

    def test_upper_band_used_when_confident(self):
        demand = cyclical_days(days=2, sigma=0.1, seed=4)
        point = ProactiveWindowBuilder(self.make_config()).build(demand.samples)
        conservative = ProactiveWindowBuilder(
            self.make_config(forecast_confidence=0.95)
        ).build(demand.samples)
        assert point.used_forecast and conservative.used_forecast
        # The conservative window's forecast tail sits above the point one.
        assert (
            conservative.window[-60:].mean() > point.window[-60:].mean()
        )

    def test_quality_gate_blocks_noisy_forecasts(self):
        rng = np.random.default_rng(5)
        # Seasonal gate satisfied but the signal is nearly pure noise.
        noise = rng.uniform(0.1, 8.0, 2 * MINUTES_PER_DAY)
        gated = ProactiveWindowBuilder(
            self.make_config(
                forecast_confidence=0.9, forecast_quality_gate=0.3
            )
        ).build(noise)
        assert not gated.used_forecast

    def test_quality_gate_passes_clean_forecasts(self):
        demand = cyclical_days(days=2, sigma=0.03, seed=6)
        passed = ProactiveWindowBuilder(
            self.make_config(
                forecast_confidence=0.9, forecast_quality_gate=0.5
            )
        ).build(demand.samples)
        assert passed.used_forecast

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            CaasperConfig(forecast_confidence=1.5)
        with pytest.raises(ConfigError):
            CaasperConfig(forecast_quality_gate=0.5)  # needs confidence
        with pytest.raises(ConfigError):
            CaasperConfig(
                forecast_confidence=0.9, forecast_quality_gate=-1.0
            )
