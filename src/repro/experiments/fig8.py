"""Figure 8: input-data preprocessing for proactive CaaSPER (§4.3).

The figure illustrates how Algorithm 1's input window is assembled over
time:

- period 1: no full seasonality period of history → reactive only;
- period 2+: the observed tail (length ``o_n − o_f``) is concatenated
  with the forecasting horizon (length ``o_f``) into the combined new
  window.

The experiment replays a cyclical workload and snapshots the window
composition at three moments — early in period 1, mid period 2, and just
before a known demand spike — verifying each regime of the figure.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import CaasperConfig, ProactiveWindowBuilder
from ..core.proactive import CombinedWindow
from ..trace import MINUTES_PER_DAY
from ..workloads import cyclical_days

__all__ = ["run", "render", "Fig8Result"]


@dataclass(frozen=True)
class Fig8Result:
    """Window snapshots across the Figure 8 timeline."""

    config: CaasperConfig
    period1: CombinedWindow
    period2: CombinedWindow
    before_spike: CombinedWindow
    spike_hour: float


def run(
    forecast_horizon_minutes: int = 60,
    history_tail_minutes: int = 40,
) -> Fig8Result:
    """Snapshot the Eq. 4 window at the figure's three moments."""
    demand = cyclical_days(days=2)
    config = CaasperConfig(
        max_cores=16,
        proactive=True,
        seasonal_period_minutes=MINUTES_PER_DAY,
        forecast_horizon_minutes=forecast_horizon_minutes,
        history_tail_minutes=history_tail_minutes,
        window_minutes=40,
    )

    def window_at(minute: int) -> CombinedWindow:
        builder = ProactiveWindowBuilder(config)
        return builder.build(demand.samples[:minute])

    spike_hour = 13.0
    return Fig8Result(
        config=config,
        period1=window_at(6 * 60),                         # mid period 1
        period2=window_at(MINUTES_PER_DAY + 8 * 60),       # mid period 2
        before_spike=window_at(
            MINUTES_PER_DAY + int(spike_hour * 60) - 10    # 10 min early
        ),
        spike_hour=spike_hour,
    )


def _describe(label: str, window: CombinedWindow) -> str:
    mode = "proactive" if window.used_forecast else "reactive"
    return (
        f"  {label:<22} {mode:<9} observed={window.observed_minutes:>3} min"
        f"  forecast={window.forecast_minutes:>3} min"
        f"  window max={window.window.max():5.2f} cores"
    )


def render(result: Fig8Result) -> str:
    """The three regimes of Figure 8."""
    o_f = result.config.forecast_horizon_minutes
    o_n = result.config.history_tail_minutes + o_f
    return "\n".join(
        [
            "Figure 8: input preprocessing for proactive CaaSPER (Eq. 4)",
            f"(o_f = {o_f} min forecasting horizon; combined window "
            f"o_n = {o_n} min)",
            "",
            _describe("period 1 (no history):", result.period1),
            _describe("period 2 (cyclical):", result.period2),
            _describe(
                f"10 min before {result.spike_hour:.0f}:00 spike:",
                result.before_spike,
            ),
            "",
            "  period 1 stays reactive; from period 2 the combined window",
            "  appends the forecast — and just before the daily spike the",
            "  window max already carries the spike capacity.",
        ]
    )
