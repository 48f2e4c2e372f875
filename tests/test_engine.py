"""Unit and seam tests for the vectorized batch engine.

test_engine_parity.py owns the randomized byte-identity property; this
file covers everything around it — degenerate batches, the numpy-floor
guard, certification fallbacks, kernel selection, engine/scalar store
interop, the batch-level observability event, and parity at the sweep
and tuning seams (capacity's kernel-vs-scalar parity lives in
test_capacity_determinism.py).
"""

import dataclasses

import numpy as np
import pytest

import repro.engine as engine_pkg
import repro.engine.batch as batch_module
import repro.engine.kernel as kernel
from repro.baselines import MovingAverageRecommender
from repro.core.config import CaasperConfig
from repro.core.recommender import CaasperRecommender
from repro.engine import (
    BatchEngine,
    EngineError,
    EngineJob,
    engine_job_for,
    vectorizable,
)
from repro.errors import ConfigError
from repro.fleet.codec import canonical_json
from repro.obs import JsonlSink, Observer, RingBufferSink, read_events
from repro.obs.events import EngineBatchEvent
from repro.sim import SimulatorConfig, simulate_trace
from repro.sim.sweep import SweepConfig, default_recommender_factory, run_sweep
from repro.store import ResultStore, cached_simulate
from repro.store.keys import simulate_key
from repro.trace import CpuTrace
from repro.tuning import GridSearch, RandomSearch


def blob(result) -> bytes:
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


def bumpy_trace(minutes: int, seed: int, name: str) -> CpuTrace:
    rng = np.random.default_rng(seed)
    t = np.arange(minutes)
    samples = 3.0 + 2.5 * np.sin(2 * np.pi * t / 97.0) + rng.uniform(0, 2, minutes)
    return CpuTrace(np.maximum(samples, 0.0), name)


def oracle(trace, config, sim):
    return simulate_trace(trace, CaasperRecommender(config), sim)


CONFIG = CaasperConfig(max_cores=16)
SIM = SimulatorConfig(initial_cores=4, max_cores=16)


def jobs_for(traces, config=CONFIG, sim=SIM):
    return [EngineJob.from_config(t, config, sim) for t in traces]


def record_batch_rows(monkeypatch):
    """Patch the engine's ``decide_batch``; the row count of each call."""
    rows: list[int] = []
    real = batch_module.decide_batch

    def recording(window, *args, **kwargs):
        rows.append(window.shape[0])
        return real(window, *args, **kwargs)

    monkeypatch.setattr(batch_module, "decide_batch", recording)
    return rows


class TestEdgeCases:
    def test_empty_batch(self):
        assert BatchEngine().run([]) == []

    def test_batch_of_one(self):
        trace = bumpy_trace(240, 1, "one")
        [got] = BatchEngine().run(jobs_for([trace]))
        assert blob(got) == blob(oracle(trace, CONFIG, SIM))

    def test_single_minute_traces(self):
        # No decision minute ever fires: usage is min(demand, initial).
        traces = [CpuTrace(np.array([v]), f"m{i}") for i, v in enumerate((0.5, 7.0))]
        results = BatchEngine().run(jobs_for(traces))
        for trace, got in zip(traces, results):
            assert blob(got) == blob(oracle(trace, CONFIG, SIM))
            assert got.events == ()
            assert got.limits.tolist() == [float(SIM.initial_cores)]

    def test_ragged_batch_with_degenerate_lanes(self):
        traces = [
            bumpy_trace(1, 2, "len-1"),
            bumpy_trace(2, 3, "len-2"),
            bumpy_trace(301, 4, "len-301"),
        ]
        results = BatchEngine().run(jobs_for(traces))
        for trace, got in zip(traces, results):
            assert blob(got) == blob(oracle(trace, CONFIG, SIM))


class TestNumpyFloorGuard:
    def test_old_numpy_rejected(self, monkeypatch):
        monkeypatch.setattr(np, "__version__", "1.21.5")
        with pytest.raises(EngineError, match="requires numpy >= 1.24"):
            engine_pkg._check_numpy()

    def test_current_numpy_accepted(self):
        engine_pkg._check_numpy()

    def test_floor_matches_certified_probes(self):
        # The import-time certification ran and the probes report it.
        replica, axis = kernel.certify()
        assert replica == engine_pkg.replications_certified()
        assert axis == engine_pkg.axis_reductions_certified()


class TestCertificationFallbacks:
    def test_uncertified_axis_reductions_stay_identical(self, monkeypatch):
        # With axis reductions decertified every row degrades to the
        # single-lane kernel — the contract must not move an inch.
        monkeypatch.setattr(kernel, "_AXIS_OK", False)
        rows = record_batch_rows(monkeypatch)
        traces = [bumpy_trace(200, s, f"ax{s}") for s in range(3)]
        for trace, got in zip(traces, BatchEngine().run(jobs_for(traces))):
            assert blob(got) == blob(oracle(trace, CONFIG, SIM))
        assert rows == []

    def test_uncertified_replications_stay_identical(self, monkeypatch):
        # Without the fast single-lane reductions the kernels use the
        # oracle's own numpy calls. Slower, still byte-identical.
        monkeypatch.setattr(kernel, "_REPLICA_OK", False)
        traces = [bumpy_trace(200, s + 10, f"rep{s}") for s in range(3)]
        for trace, got in zip(traces, BatchEngine().run(jobs_for(traces))):
            assert blob(got) == blob(oracle(trace, CONFIG, SIM))

    def test_unexpressible_config_falls_back_to_scalar(self):
        config = CaasperConfig(
            max_cores=16, proactive=True, forecast_confidence=0.9
        )
        assert not vectorizable(config)
        trace = bumpy_trace(1500, 5, "conf")
        [got] = BatchEngine().run(jobs_for([trace], config=config))
        assert blob(got) == blob(oracle(trace, config, SIM))


class TestEligibility:
    def test_fresh_caasper_recommender_qualifies(self):
        trace = bumpy_trace(60, 6, "fresh")
        recommender = CaasperRecommender(CONFIG)
        job = engine_job_for(trace, recommender, SIM)
        assert job is not None
        assert job.config == CONFIG
        assert job.name == recommender.name

    def test_subclass_and_baselines_stay_scalar(self):
        trace = bumpy_trace(60, 7, "other")

        class Tweaked(CaasperRecommender):
            pass

        assert engine_job_for(trace, Tweaked(CONFIG), SIM) is None
        assert engine_job_for(trace, MovingAverageRecommender(), SIM) is None

    def test_observed_history_disqualifies(self):
        trace = bumpy_trace(60, 8, "warm")
        recommender = CaasperRecommender(CONFIG)
        recommender.observe(0, 2.0, 4)
        assert engine_job_for(trace, recommender, SIM) is None


class TestStoreInterop:
    def test_engine_writes_what_the_scalar_path_reads(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        trace = bumpy_trace(240, 9, "interop")
        BatchEngine().run(jobs_for([trace]), store=store)
        probe = CaasperRecommender(CONFIG)
        key = simulate_key(trace, probe, SIM)
        hit = store.get(key, "simulate")
        assert hit is not None
        assert blob(hit) == blob(oracle(trace, CONFIG, SIM))
        # And the scalar entry point decodes it transparently.
        scalar = cached_simulate(trace, probe, SIM, store=store)
        assert blob(scalar) == blob(hit)

    def test_engine_hits_scalar_written_entries(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        traces = [bumpy_trace(240, 10 + s, f"hit{s}") for s in range(3)]
        for trace in traces:
            cached_simulate(trace, CaasperRecommender(CONFIG), SIM, store=store)
        ring = RingBufferSink(capacity=8)
        engine = BatchEngine(observer=Observer(sinks=[ring]))
        results = engine.run(jobs_for(traces), store=store)
        [event] = ring.of_kind("engine_batch")
        assert event.cache_hits == len(traces)
        assert event.vector_lanes == 0
        for trace, got in zip(traces, results):
            assert blob(got) == blob(oracle(trace, CONFIG, SIM))


class TestObservability:
    def test_engine_batch_event_and_counters(self):
        ring = RingBufferSink(capacity=8)
        observer = Observer(sinks=[ring])
        engine = BatchEngine(observer=observer)
        scalar_config = CaasperConfig(
            max_cores=16, proactive=True, forecast_confidence=0.9
        )
        traces = [bumpy_trace(120, 20 + s, f"obs{s}") for s in range(3)]
        jobs = jobs_for(traces[:2]) + jobs_for([traces[2]], config=scalar_config)
        engine.run(jobs)
        [event] = ring.of_kind("engine_batch")
        assert event.lanes == 3
        assert event.vector_lanes == 2
        assert event.scalar_lanes == 1
        assert event.cohorts == 1
        assert event.elapsed_seconds >= 0.0
        metrics = observer.metrics
        assert metrics.counter("engine_lanes_total").value() == 3.0
        assert metrics.counter("engine_vector_lanes_total").value() == 2.0
        assert metrics.counter("engine_scalar_fallback_lanes_total").value() == 1.0

    def test_engine_batch_event_roundtrips_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        original = EngineBatchEvent(
            minute=0,
            lanes=5,
            vector_lanes=4,
            scalar_lanes=1,
            cache_hits=2,
            cohorts=3,
            elapsed_seconds=0.125,
        )
        with JsonlSink(path) as sink:
            sink.accept(original)
        [restored] = read_events(path)
        assert restored == original


class TestIntegrationSeams:
    def test_run_sweep_engine_parity(self):
        traces = [bumpy_trace(300, 30 + s, f"sweep{s}") for s in range(3)]
        config = SweepConfig(min_cores=1)
        factory = default_recommender_factory(CaasperConfig(), config)
        serial = run_sweep(traces, config, factory)
        vector = run_sweep(traces, config, factory, engine=BatchEngine())
        assert sorted(serial.results) == sorted(vector.results)
        for name in serial.results:
            assert blob(vector.results[name]) == blob(serial.results[name])

    def test_run_sweep_refuses_engine_with_observer(self):
        traces = [bumpy_trace(120, 40, "observed")]
        with pytest.raises(ConfigError, match="engine=.*observer="):
            run_sweep(traces, engine=BatchEngine(), observer=Observer())

    def test_random_search_engine_parity(self):
        search = RandomSearch(bumpy_trace(300, 33, "tune"), SimulatorConfig(4))
        serial = search.run(12, seed=7)
        vector = search.run(12, seed=7, engine=BatchEngine())
        assert vector.trials == serial.trials

    def test_grid_search_engine_parity(self):
        grid = GridSearch(
            bumpy_trace(300, 34, "grid"),
            SimulatorConfig(4),
            CaasperConfig(),
            {"window_minutes": [20, 40], "quantile": [0.9, 0.95]},
        )
        serial = grid.run()
        vector = grid.run(engine=BatchEngine())
        assert vector.trials == serial.trials


class TestKernelSelection:
    def test_one_lane_cohorts_skip_decide_batch(self, monkeypatch):
        rows = record_batch_rows(monkeypatch)
        # Two lanes share a cohort; the other two are one-lane cohorts.
        configs = [
            CONFIG,
            CONFIG.with_updates(s_high=2.0),
            CaasperConfig(max_cores=16, window_minutes=20),
            CaasperConfig(max_cores=12),
        ]
        traces = [bumpy_trace(240, 50 + i, f"sel{i}") for i in range(len(configs))]
        jobs = [EngineJob.from_config(t, c, SIM) for t, c in zip(traces, configs)]
        for trace, config, got in zip(traces, configs, BatchEngine().run(jobs)):
            assert blob(got) == blob(oracle(trace, config, SIM))
        assert rows, "the shared cohort never reached decide_batch"
        assert min(rows) > 1, "a one-row window went through decide_batch"
