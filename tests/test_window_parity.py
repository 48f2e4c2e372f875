"""The engine's Algorithm 1 window equals the Eq. 4 window builder's.

``repro.engine.batch`` builds every consult window (one lane or a
cohort of lanes) with one array function over cohort geometry; the
scalar reference is ``ProactiveWindowBuilder(config).build(history)``
with the naive seasonal forecaster, fed the history a
``CaasperRecommender`` would retain at that minute. The two must agree
bit for bit on both sides of the seasonal gate, with an observed tail
longer than the retained history, and once the history is capped at
``history_capacity``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import CaasperConfig, CaasperRecommender, ProactiveWindowBuilder
from repro.core.recommender import history_capacity
from repro.engine.batch import _build_cohorts, _consult_window
from repro.engine.jobs import EngineJob
from repro.sim import SimulatorConfig
from repro.trace import CpuTrace


def _config(proactive, period, window, horizon, tail):
    return CaasperConfig(
        max_cores=16,
        proactive=proactive,
        seasonal_period_minutes=period,
        window_minutes=window,
        forecast_horizon_minutes=horizon,
        history_tail_minutes=tail,
    )


@st.composite
def consults(draw):
    """A config, a usage series and a decision minute inside it."""
    config = _config(
        draw(st.booleans()),
        draw(st.integers(2, 30)),
        draw(st.integers(2, 60)),
        draw(st.integers(1, 40)),
        draw(st.integers(1, 120)),
    )
    period = config.seasonal_period_minutes
    capacity = history_capacity(config)
    minute = draw(
        st.sampled_from(
            # minute + 1 = period - 1, period, period + 1; at and past capacity.
            [period - 2, period - 1, period, capacity - 1, capacity, 2 * capacity]
        )
        | st.integers(0, 3 * capacity)
    )
    minute = max(minute, 0)
    seed = draw(st.integers(0, 2**16))
    length = minute + 1 + draw(st.integers(0, 5))
    usage = np.random.default_rng(seed).uniform(0.0, 12.0, length)
    return config, usage, minute


def _reference(config, usage, minute):
    retained = usage[max(0, minute + 1 - history_capacity(config)) : minute + 1]
    return ProactiveWindowBuilder(config).build(retained).window


def _check(config, usage, minute):
    expected = _reference(config, usage, minute)
    (cohort,) = _build_cohorts(
        [EngineJob.from_config(CpuTrace(usage), config, SimulatorConfig(4))]
    )
    lane = _consult_window(cohort, usage, ..., minute)
    assert lane.tobytes() == expected.tobytes()

    rows = np.stack([usage * 0.5, usage])
    cohort_windows = _consult_window(cohort, rows, np.array([1, 0]), minute)
    assert cohort_windows[0].tobytes() == expected.tobytes()
    halved = _reference(config, usage * 0.5, minute)
    assert cohort_windows[1].tobytes() == halved.tobytes()

    recommender = CaasperRecommender(config)
    for at, value in enumerate(usage[: minute + 1].tolist()):
        recommender.observe(at, value, 4)
    assert recommender.decision_window().tobytes() == expected.tobytes()


@settings(max_examples=150, deadline=None)
@given(consults())
# Gate edge: minute + 1 = period - 1, period, period + 1.
@example((_config(True, 24, 10, 6, 5), np.linspace(0.0, 9.0, 30), 22))
@example((_config(True, 24, 10, 6, 5), np.linspace(0.0, 9.0, 30), 23))
@example((_config(True, 24, 10, 6, 5), np.linspace(0.0, 9.0, 30), 24))
# Observed tail longer than the history retained (tail 100 > 25 minutes).
@example((_config(True, 24, 10, 30, 100), np.linspace(9.0, 0.0, 30), 24))
# History at capacity (3 periods = 72 minutes) and the tail capped by it.
@example((_config(True, 24, 10, 30, 100), np.linspace(0.0, 9.0, 200), 71))
@example((_config(True, 24, 10, 30, 100), np.linspace(0.0, 9.0, 200), 150))
def test_engine_window_matches_the_window_builder(consult):
    _check(*consult)
