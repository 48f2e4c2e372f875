"""Tests for the Eq. 4 proactive window combination."""

import numpy as np
import pytest

from repro.core import CaasperConfig, ProactiveWindowBuilder
from repro.forecast.base import Forecaster
from repro.errors import ForecastError


def config(**kwargs):
    defaults = dict(
        max_cores=16,
        proactive=True,
        seasonal_period_minutes=100,
        forecast_horizon_minutes=20,
        history_tail_minutes=30,
        window_minutes=40,
    )
    defaults.update(kwargs)
    return CaasperConfig(**defaults)


class ConstantForecaster(Forecaster):
    """Predicts a fixed level; records invocation."""

    name = "constant-test"

    def __init__(self, level: float):
        self.level = level
        self.calls = 0

    def forecast(self, history, horizon):
        self.calls += 1
        return np.full(horizon, self.level)


class FailingForecaster(Forecaster):
    name = "failing-test"

    def forecast(self, history, horizon):
        raise ForecastError("never enough history")


class TestActivationGate:
    def test_reactive_before_one_period(self, daily_trace):
        builder = ProactiveWindowBuilder(config())
        short_history = daily_trace.samples[:50]  # < period of 100
        combined = builder.build(short_history)
        assert not combined.used_forecast
        assert combined.forecast_minutes == 0

    def test_proactive_after_one_period(self, daily_trace):
        builder = ProactiveWindowBuilder(
            config(), forecaster=ConstantForecaster(2.0)
        )
        history = daily_trace.samples[:150]
        combined = builder.build(history)
        assert combined.used_forecast
        assert combined.forecast_minutes == 20

    def test_disabled_when_not_proactive(self, daily_trace):
        builder = ProactiveWindowBuilder(config(proactive=False))
        combined = builder.build(daily_trace.samples)
        assert not combined.used_forecast

    def test_ready_reflects_gate(self, daily_trace):
        builder = ProactiveWindowBuilder(config())
        assert not builder.ready(daily_trace.samples[:50])
        assert builder.ready(daily_trace.samples[:200])


class TestWindowComposition:
    def test_combined_window_layout(self, daily_trace):
        forecaster = ConstantForecaster(9.0)
        builder = ProactiveWindowBuilder(config(), forecaster=forecaster)
        history = daily_trace.samples[:200]
        combined = builder.build(history)
        # Observed tail (30) + horizon (20).
        assert combined.window.size == 50
        assert combined.observed_minutes == 30
        # The tail of the combined window is the forecast.
        np.testing.assert_allclose(combined.window[-20:], 9.0)
        # The head is the observed history tail.
        np.testing.assert_allclose(combined.window[:30], history[-30:])

    def test_history_array_stays_writable(self, daily_trace):
        history = daily_trace.samples[:200].copy()
        combined = ProactiveWindowBuilder(config()).build(history)
        assert combined.used_forecast
        assert history.flags.writeable

    def test_reactive_window_is_trailing_window_minutes(self, daily_trace):
        builder = ProactiveWindowBuilder(config(proactive=False))
        combined = builder.build(daily_trace.samples)
        assert combined.window.size == 40
        np.testing.assert_allclose(combined.window, daily_trace.samples[-40:])

    def test_forecaster_failure_falls_back_to_reactive(self, daily_trace):
        builder = ProactiveWindowBuilder(
            config(), forecaster=FailingForecaster()
        )
        combined = builder.build(daily_trace.samples)
        assert not combined.used_forecast
        assert combined.window.size == 40


class TestPeriodDetection:
    def test_auto_detects_period_when_none(self, daily_trace):
        builder = ProactiveWindowBuilder(
            config(seasonal_period_minutes=None),
            forecaster=ConstantForecaster(1.0),
        )
        combined = builder.build(daily_trace.samples)
        assert combined.used_forecast

    def test_no_seasonality_stays_reactive(self):
        rng = np.random.default_rng(0)
        white_noise = rng.uniform(1.0, 2.0, 600)
        builder = ProactiveWindowBuilder(config(seasonal_period_minutes=None))
        combined = builder.build(white_noise)
        assert not combined.used_forecast
