"""Property-based byte-identity of the batch engine vs the scalar oracle.

The engine's contract (docs/ENGINE.md) is not "close": every
:class:`~repro.engine.batch.BatchEngine` lane must serialize to the
*same canonical JSON bytes* as the scalar ``simulate_trace`` run it
replaces — demand, usage, limits, scaling events, and metrics included.
Hypothesis drives randomized configurations (all rounding modes,
reactive and proactive-naive, ragged trace lengths, heterogeneous
per-lane configs and simulator environments) against that contract.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.config import CaasperConfig, RoundingMode
from repro.core.recommender import CaasperRecommender
from repro.engine import BatchEngine, EngineJob
from repro.fleet.codec import canonical_json
from repro.sim import BillingModel, SimulatorConfig, simulate_trace
from repro.trace import CpuTrace


def blob(result) -> bytes:
    """Canonical serialization of everything a simulation produced."""
    return canonical_json(
        {
            "name": result.name,
            "demand": result.demand.tolist(),
            "usage": result.usage.tolist(),
            "limits": result.limits.tolist(),
            "events": [list(dataclasses.astuple(e)) for e in result.events],
            "metrics": dataclasses.asdict(result.metrics),
        }
    )


def oracle(trace, config, sim):
    """The scalar reference run the engine must reproduce exactly."""
    return simulate_trace(trace, CaasperRecommender(config), sim)


samples_arrays = arrays(
    dtype=float,
    shape=st.integers(min_value=1, max_value=130),
    elements=st.floats(min_value=0.0, max_value=24.0, allow_nan=False),
)

configs = st.builds(
    CaasperConfig,
    s_high=st.floats(min_value=1.0, max_value=5.0),
    s_low=st.floats(min_value=0.0, max_value=0.9),
    m_high=st.floats(min_value=0.0, max_value=0.5),
    m_low=st.floats(min_value=0.0, max_value=0.6),
    sf_max_up=st.integers(min_value=1, max_value=12),
    sf_max_down=st.integers(min_value=1, max_value=8),
    c_min=st.integers(min_value=1, max_value=3),
    max_cores=st.integers(min_value=8, max_value=48),
    quantile=st.floats(min_value=0.5, max_value=1.0),
    window_minutes=st.integers(min_value=2, max_value=50),
    slope_scale=st.sampled_from([5.0, 10.0, 20.0]),
    rounding=st.sampled_from(list(RoundingMode)),
    scale_down_headroom=st.floats(min_value=0.0, max_value=0.3),
    proactive=st.booleans(),
    # Small periods so proactive lanes actually reach seasonal history
    # inside short hypothesis traces.
    seasonal_period_minutes=st.integers(min_value=20, max_value=80),
    forecast_horizon_minutes=st.integers(min_value=1, max_value=40),
    history_tail_minutes=st.integers(min_value=1, max_value=60),
)

simulators = st.builds(
    SimulatorConfig,
    initial_cores=st.integers(min_value=2, max_value=12),
    min_cores=st.integers(min_value=1, max_value=2),
    max_cores=st.integers(min_value=16, max_value=64),
    decision_interval_minutes=st.integers(min_value=1, max_value=15),
    resize_delay_minutes=st.integers(min_value=0, max_value=15),
    cooldown_minutes=st.integers(min_value=0, max_value=20),
    billing=st.builds(
        BillingModel,
        period_minutes=st.sampled_from([15, 60]),
        price_per_core_period=st.just(1.0),
    ),
)


class TestBatchEngineParity:
    @given(
        batch=st.lists(samples_arrays, min_size=1, max_size=4),
        config=configs,
        sim=simulators,
    )
    @settings(max_examples=40, deadline=None)
    def test_shared_config_ragged_batch(self, batch, config, sim):
        """One config, ragged lane lengths: every lane is byte-identical."""
        traces = [
            CpuTrace(samples, name=f"lane-{i}") for i, samples in enumerate(batch)
        ]
        jobs = [EngineJob.from_config(t, config, sim) for t in traces]
        results = BatchEngine().run(jobs)
        assert len(results) == len(traces)
        for trace, got in zip(traces, results):
            assert blob(got) == blob(oracle(trace, config, sim))

    @given(
        lanes=st.lists(
            st.tuples(samples_arrays, configs, simulators),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_heterogeneous_lanes(self, lanes):
        """Per-lane configs and environments: cohorts stay byte-identical."""
        jobs = []
        expected = []
        for i, (samples, config, sim) in enumerate(lanes):
            trace = CpuTrace(samples, name=f"lane-{i}")
            jobs.append(EngineJob.from_config(trace, config, sim))
            expected.append(oracle(trace, config, sim))
        results = BatchEngine().run(jobs)
        for got, want in zip(results, expected):
            assert blob(got) == blob(want)

    @given(samples=samples_arrays, config=configs, sim=simulators)
    @settings(max_examples=40, deadline=None)
    def test_single_lane_fast_path(self, samples, config, sim):
        """A batch of one takes the single-lane path — same contract."""
        trace = CpuTrace(samples, name="solo")
        [got] = BatchEngine().run([EngineJob.from_config(trace, config, sim)])
        assert blob(got) == blob(oracle(trace, config, sim))
