"""Figure 8: the Eq. 4 input window over the proactive timeline.

Paper shape: period 1 operates reactively (no full seasonality period of
history); from period 2 the combined window of length ``o_n`` appends
the forecasting horizon ``o_f`` to the observed tail — and just before a
recurring spike, the combined window already carries the spike capacity
while the purely observed window does not.
"""

from conftest import timed_variant, write_bench_json

from repro.experiments import fig8


def test_fig8_window_composition(once):
    walls: dict[str, float] = {}
    result = once(timed_variant(walls, "fig8", fig8.run))
    print()
    print(fig8.render(result))

    # Period 1: reactive only, exactly the reactive window length.
    assert not result.period1.used_forecast
    assert result.period1.forecast_minutes == 0
    assert result.period1.observed_minutes == result.config.window_minutes

    # Period 2: the combined window o_n = tail + o_f.
    assert result.period2.used_forecast
    assert result.period2.forecast_minutes == (
        result.config.forecast_horizon_minutes
    )
    assert result.period2.window.size == (
        result.config.history_tail_minutes
        + result.config.forecast_horizon_minutes
    )

    # The pre-spike snapshot: the observed head is calm, the forecast
    # tail carries the upcoming ~12-core spike.
    window = result.before_spike.window
    observed_head = window[: result.before_spike.observed_minutes]
    forecast_tail = window[result.before_spike.observed_minutes :]
    assert observed_head.max() < 9.0
    assert forecast_tail.max() > 10.0

    write_bench_json(
        "fig8_window_composition",
        wall_seconds=walls,
        kcn={},
        extra={
            "period1_window_minutes": result.period1.window.size,
            "period2_window_minutes": result.period2.window.size,
            "forecast_horizon_minutes": (
                result.config.forecast_horizon_minutes
            ),
            "pre_spike_forecast_peak": float(forecast_tail.max()),
        },
    )
