"""Tests for the CaasperRecommender façade."""

import numpy as np
import pytest

from repro.core import CaasperConfig, CaasperRecommender
from repro.errors import ConfigError, TraceError
from repro.obs import Observer
from repro.sim import SimulatorConfig, simulate_trace
from repro.trace import CpuTrace


def recommender(**kwargs):
    defaults = dict(max_cores=16, c_min=2)
    defaults.update(kwargs)
    return CaasperRecommender(CaasperConfig(**defaults))


def feed(rec, values, limit, start=0):
    for offset, value in enumerate(values):
        rec.observe(start + offset, float(value), limit)


class TestObservation:
    def test_history_accumulates(self):
        rec = recommender()
        feed(rec, [1.0, 2.0, 3.0], limit=4)
        assert rec.usage_window().tolist() == [1.0, 2.0, 3.0]

    def test_rejects_negative_usage(self):
        with pytest.raises(TraceError):
            recommender().observe(0, -1.0, 4)

    def test_rejects_nan_usage(self):
        with pytest.raises(TraceError):
            recommender().observe(0, float("nan"), 4)

    def test_rejects_time_running_backwards(self):
        rec = recommender()
        rec.observe(5, 1.0, 4)
        with pytest.raises(ConfigError):
            rec.observe(3, 1.0, 4)

    def test_same_minute_overwrites(self):
        rec = recommender()
        rec.observe(0, 1.0, 4)
        rec.observe(0, 2.0, 4)
        assert rec.usage_window().tolist() == [2.0]

    def test_history_bounded_for_reactive(self):
        rec = recommender(window_minutes=10)
        feed(rec, range(100), limit=4)
        assert rec.usage_window().size == 10

    def test_history_bounded_for_proactive(self):
        rec = recommender(
            proactive=True, seasonal_period_minutes=50, window_minutes=10
        )
        feed(rec, np.ones(500), limit=4)
        assert rec.usage_window().size == 150  # 3 periods

    def test_reset_clears_everything(self):
        rec = recommender()
        feed(rec, [1.0, 2.0], limit=4)
        rec.decide(4)
        assert rec.last_decision is not None
        rec.reset()
        assert rec.last_decision is None
        assert rec.recommend(0, 4) == 4  # no history -> keep current


class TestRecommendation:
    def test_no_history_keeps_current(self):
        assert recommender().recommend(0, 6) == 6

    def test_no_history_respects_c_min(self):
        assert recommender(c_min=4).recommend(0, 1) == 4

    def test_scales_up_pinned_workload(self, pinned_trace):
        rec = recommender()
        feed(rec, pinned_trace.samples, limit=3)
        assert rec.recommend(len(pinned_trace), 3) > 3

    def test_scales_down_idle_workload(self, idle_trace):
        rec = recommender()
        feed(rec, idle_trace.samples, limit=12)
        assert rec.recommend(len(idle_trace), 12) < 12

    def test_decisions_recorded(self, pinned_trace):
        # The recommender keeps its latest derivation; an attached
        # observer records one decision event per consult.
        rec = recommender()
        observer = Observer()
        simulate_trace(
            pinned_trace,
            rec,
            SimulatorConfig(initial_cores=3, min_cores=2, max_cores=16),
            observer=observer,
        )
        events = observer.decisions()
        assert events
        assert events[0].branch == "scale_up"
        last = rec.last_decision
        assert last is not None
        assert (events[-1].branch, events[-1].target_cores) == (
            last.branch,
            last.target_cores,
        )

    def test_keep_decisions_false(self, pinned_trace):
        # The recommender no longer keeps a trail of every decision (the
        # old keep_decisions=False mode is now the only one); the most
        # recent derivation is still retained, and reset clears it.
        rec = recommender()
        feed(rec, pinned_trace.samples, limit=3)
        rec.recommend(len(pinned_trace), 3)
        assert not hasattr(rec, "decisions")
        assert rec.last_decision is not None
        assert rec.last_decision.branch == "scale_up"
        rec.reset()
        assert rec.last_decision is None

    def test_proactive_name(self):
        assert recommender(proactive=True).name == "caasper-proactive"
        assert recommender().name == "caasper"


class TestProactiveIntegration:
    def test_forecast_drives_prescaling(self):
        """A seasonal spike in history should pre-scale before it recurs."""
        period = 200
        rec = recommender(
            proactive=True,
            seasonal_period_minutes=period,
            forecast_horizon_minutes=40,
            history_tail_minutes=20,
        )
        # Period 1: quiet except a spike to ~10 cores at phase 100-140.
        spike_phase = range(100, 140)
        for minute in range(period):
            usage = 10.0 if minute in spike_phase else 1.0
            rec.observe(minute, usage, 12)
        # Period 2, just before the spike phase: history shows calm, but
        # the forecast horizon contains last period's spike.
        for minute in range(period, period + 90):
            rec.observe(minute, 1.0, 12)
        target = rec.recommend(period + 90, 3)
        assert target > 3  # pre-scaled despite calm recent usage


class TestDecisionWindow:
    @pytest.fixture
    def traces_built(self, monkeypatch):
        """Every ``CpuTrace`` constructed while the fixture is active."""
        built = []
        validate = CpuTrace.__post_init__

        def counting(trace):
            built.append(trace)
            validate(trace)

        monkeypatch.setattr(CpuTrace, "__post_init__", counting)
        return built

    @pytest.mark.parametrize(
        "kwargs, minutes, most",
        [
            ({}, 100, 0),
            ({"proactive": True, "seasonal_period_minutes": 50}, 30, 0),
            ({"proactive": True, "seasonal_period_minutes": 50}, 200, 1),
        ],
        ids=["reactive", "pre-gate", "past-gate"],
    )
    def test_builds_at_most_the_forecaster_trace(
        self, traces_built, kwargs, minutes, most
    ):
        rec = recommender(**kwargs)
        feed(rec, np.linspace(1.0, 6.0, minutes), limit=4)
        window = rec.decision_window()
        assert isinstance(window, np.ndarray) and window.ndim == 1
        assert len(traces_built) <= most
