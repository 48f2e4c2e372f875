#!/usr/bin/env python
"""Comparing the pluggable forecasters (§4.3).

Fits every registered forecaster on two days of a cyclical workload and
scores its prediction of day 3 (mean absolute error), then shows how
proactive CaaSPER's combined window (Eq. 4) differs from the reactive
one just before a demand spike — the moment where forecasting pays.

Run:  python examples/forecasting.py
"""

import numpy as np

from repro import CaasperConfig, ProactiveWindowBuilder
from repro.forecast import available_forecasters, make_forecaster
from repro.trace import MINUTES_PER_DAY
from repro.workloads import cyclical_days


def main() -> None:
    demand = cyclical_days(days=3)
    history = demand.window(0, 2 * MINUTES_PER_DAY)
    actual_day3 = demand.samples[2 * MINUTES_PER_DAY :]

    print("forecaster accuracy on day 3 (fit on days 1-2):")
    for name in available_forecasters():
        kwargs = (
            {"period_minutes": MINUTES_PER_DAY}
            if name in ("naive", "holt_winters")
            else {}
        )
        forecaster = make_forecaster(name, **kwargs)
        predicted = forecaster.forecast(history, len(actual_day3))
        mae = float(np.mean(np.abs(predicted - actual_day3)))
        print(f"  {name:14s} MAE = {mae:5.2f} cores")
    print()

    # Eq. 4 in action: just before the daily 13:00 spike on day 3, the
    # reactive window sees only calm recent usage, while the combined
    # window already contains the forecasted spike.
    spike_minute = 2 * MINUTES_PER_DAY + 12 * 60 + 50
    history_before_spike = demand.samples[:spike_minute]

    config = CaasperConfig(
        max_cores=16,
        proactive=True,
        seasonal_period_minutes=MINUTES_PER_DAY,
        forecast_horizon_minutes=60,
        history_tail_minutes=30,
    )
    builder = ProactiveWindowBuilder(config)
    combined = builder.build(history_before_spike)

    reactive_view = history_before_spike[-config.window_minutes :]
    print("10 minutes before the day-3 spike:")
    print(f"  reactive window max:  {reactive_view.max():5.2f} cores")
    print(f"  combined window max:  {combined.window.max():5.2f} cores "
          f"({combined.forecast_minutes} forecast minutes appended)")
    print("  -> the combined window's PvP-curve already demands the "
          "spike capacity, so CaaSPER scales up before the load arrives")


if __name__ == "__main__":
    main()
