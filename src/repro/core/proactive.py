"""Proactive window combination (§4.3, Figure 8, Eq. 4).

Proactive CaaSPER does not change Algorithm 1; it changes the algorithm's
*input*. The observed reactive window (e.g. the last 40 minutes) is
combined with a forecast horizon of length ``o_f`` to form the new window
of length ``o_n``:

    a(t) = AUTOSCALE(CoreCount_cur,
                     {X_{T-(o_n - o_f)} .. X_{T-1}},    # observed tail
                     {X̂_T .. X̂_{T + o_f - 1}})          # forecast horizon

Activation rules (Figure 8):

- period 1 (no full seasonal period of history yet) → reactive only;
- from period 2 on, the forecaster has enough history and its horizon is
  appended; the observed tail can be shortened (``history_tail_minutes``)
  to "give less weight to historical data and rely more on predictions".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ForecastError
from ..forecast.base import Forecaster
from ..forecast.registry import make_forecaster
from ..forecast.seasonal import detect_period
from ..obs.spans import span
from ..trace import CpuTrace
from .config import CaasperConfig

__all__ = ["ProactiveWindowBuilder", "CombinedWindow"]


def _as_trace(history: np.ndarray) -> CpuTrace:
    """The history as a trace for the forecaster and period detection.

    Built over a view: the trace marks its samples read-only, and that
    must not reach the caller's array.
    """
    return CpuTrace(history.view(), name="history")


@dataclass(frozen=True, eq=False)
class CombinedWindow:
    """The Eq. 4 input window plus its provenance (for interpretability).

    Attributes
    ----------
    window:
        The combined window handed to Algorithm 1, as a 1-D float array.
    observed_minutes:
        Length of the observed tail included.
    forecast_minutes:
        Length of the appended forecast horizon (0 when reactive).
    used_forecast:
        True when a forecast actually contributed.
    """

    window: np.ndarray
    observed_minutes: int
    forecast_minutes: int
    used_forecast: bool


class ProactiveWindowBuilder:
    """Builds Algorithm 1 inputs, appending forecasts when possible.

    Parameters
    ----------
    config:
        Supplies the forecaster name, horizon ``o_f``, observed tail
        length ``o_n − o_f`` and the seasonal-period activation gate.
    forecaster:
        Optional pre-built forecaster (overrides the registry lookup);
        used by tests and by callers plugging custom predictors.

    Attributes
    ----------
    fault_gate:
        Optional injection seam (set by :mod:`repro.faults`): a callable
        invoked just before each forecast attempt. Raising
        :class:`~repro.errors.ForecastError` from it degrades that
        decision to the plain reactive window via the existing §4.3
        fallback — injected forecaster failures take exactly the organic
        failure path.
    """

    def __init__(
        self,
        config: CaasperConfig,
        forecaster: Forecaster | None = None,
    ) -> None:
        self.config = config
        self.fault_gate = None
        self._forecaster = forecaster
        self._detected_period: int | None = None

    def _resolve_period(self, history: np.ndarray) -> int | None:
        """Seasonal period: configured value, else ACF auto-detection."""
        if self.config.seasonal_period_minutes is not None:
            return self.config.seasonal_period_minutes
        if self._detected_period is None:
            self._detected_period = detect_period(_as_trace(history))
        return self._detected_period

    def _resolve_forecaster(self, period: int | None) -> Forecaster:
        if self._forecaster is not None:
            return self._forecaster
        kwargs = {}
        if self.config.forecaster in ("naive", "holt_winters", "fourier"):
            kwargs["period_minutes"] = period
        self._forecaster = make_forecaster(self.config.forecaster, **kwargs)
        return self._forecaster

    def ready(self, history: np.ndarray) -> bool:
        """True once one full seasonal period of history is available."""
        if not self.config.proactive:
            return False
        period = self._resolve_period(history)
        if period is None:
            return False
        return history.size >= period

    def build(self, history: np.ndarray) -> CombinedWindow:
        """Produce the Algorithm 1 input window from the retained usage.

        ``history`` is the retained usage, oldest first, as a 1-D float
        array; only the forecaster sees it as a
        :class:`~repro.trace.CpuTrace`. Falls back to the plain reactive
        window whenever proactive mode is off, the seasonality gate is
        closed, the forecaster declines (insufficient history) or the
        §8 quality gate rejects its band — never fails the decision
        itself.
        """
        config = self.config
        if self.ready(history):
            horizon = self._forecast(_as_trace(history))
            if horizon is not None:
                tail = min(history.size, config.history_tail_minutes)
                return CombinedWindow(
                    window=np.concatenate([history[-tail:], horizon]),
                    observed_minutes=tail,
                    forecast_minutes=int(horizon.size),
                    used_forecast=True,
                )
        observed = min(history.size, config.window_minutes)
        return CombinedWindow(
            window=history[-observed:],
            observed_minutes=observed,
            forecast_minutes=0,
            used_forecast=False,
        )

    def _forecast(self, history: CpuTrace) -> np.ndarray | None:
        """The forecast horizon, or ``None`` to stay reactive this decision."""
        config = self.config
        forecaster = self._resolve_forecaster(self._resolve_period(history.samples))
        try:
            if self.fault_gate is not None:
                self.fault_gate()
            if config.forecast_confidence is None:
                with span(f"forecast.{forecaster.name}.predict"):
                    return forecaster.forecast(
                        history, config.forecast_horizon_minutes
                    )
            with span(f"forecast.{forecaster.name}.predict_interval"):
                interval = forecaster.forecast_interval(
                    history,
                    config.forecast_horizon_minutes,
                    confidence=config.forecast_confidence,
                )
        except ForecastError:
            return None
        gate = config.forecast_quality_gate
        if gate is not None and interval.relative_width() > gate:
            # §8 prefilter: the model's band is too wide to trust.
            return None
        # Conservative: feed the upper band into Algorithm 1 so uncertain
        # forecasts err toward capacity.
        return interval.upper
