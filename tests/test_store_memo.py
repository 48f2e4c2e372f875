"""Memoised entry points: byte-identity across cold, warm, and uncached.

The acceptance bar for the result store (docs/STORE.md): a cache hit
must decode to a result whose canonical JSON equals recomputation's,
``store=None`` must stay bit-identical to not having the store at all,
and a damaged blob must degrade to a recompute — under every entry
point (``simulate_trace``, ``run_sweep``, the tuning searches, the
fleet runner), every worker count, and interleaved hit/miss orders.
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest

from repro.core.config import CaasperConfig
from repro.core.recommender import CaasperRecommender
from repro.fleet import FleetRunner
from repro.fleet.codec import canonical_json, encode
from repro.fleet.plans import sweep_outcome, sweep_plan
from repro.obs import Observer
from repro.sim.simulator import SimulatorConfig, simulate_trace
from repro.sim.sweep import SweepConfig, run_sweep
from repro.store import ResultStore
from repro.store.memo import cached_simulate, cached_trial
from repro.trace import CpuTrace
from repro.tuning.grid import GridSearch
from repro.tuning.search import RandomSearch
from repro.workloads.traces import paper_trace


def _trace(name: str = "memo-trace", minutes: int = 240, seed: int = 3) -> CpuTrace:
    rng = np.random.default_rng(seed)
    return CpuTrace(samples=rng.uniform(1.0, 6.0, minutes), name=name)


def _recommender() -> CaasperRecommender:
    return CaasperRecommender(CaasperConfig(max_cores=16))


def _sim_config() -> SimulatorConfig:
    return SimulatorConfig(initial_cores=4, max_cores=16)


def _canon(value) -> str:
    return canonical_json(encode(value))


class TestCachedSimulate:
    def test_cold_and_warm_byte_identical_to_uncached(self, tmp_path):
        trace = _trace()
        baseline = simulate_trace(trace, _recommender(), _sim_config())

        cold_store = ResultStore(tmp_path / "cas")
        cold = cached_simulate(trace, _recommender(), _sim_config(), store=cold_store)
        assert cold_store.stats.misses == 1 and cold_store.stats.puts == 1

        warm_store = ResultStore(tmp_path / "cas")  # fresh handle: disk hit
        warm = cached_simulate(trace, _recommender(), _sim_config(), store=warm_store)
        assert warm_store.stats.hits == 1 and warm_store.stats.puts == 0

        assert _canon(cold) == _canon(baseline)
        assert _canon(warm) == _canon(baseline)

    def test_store_none_is_plain_call_through(self, tmp_path):
        trace = _trace()
        baseline = simulate_trace(trace, _recommender(), _sim_config())
        through_seam = cached_simulate(
            trace, _recommender(), _sim_config(), store=None
        )
        assert _canon(through_seam) == _canon(baseline)

    def test_unsignable_recommender_recomputes_and_writes_nothing(self, tmp_path):
        from repro.forecast import make_forecaster

        trace = _trace()
        store = ResultStore(tmp_path / "cas")
        uncacheable = CaasperRecommender(
            CaasperConfig(proactive=True, max_cores=16),
            forecaster=make_forecaster("naive"),
        )
        result = cached_simulate(trace, uncacheable, _sim_config(), store=store)
        baseline = CaasperRecommender(
            CaasperConfig(proactive=True, max_cores=16),
            forecaster=make_forecaster("naive"),
        )
        assert _canon(result) == _canon(
            simulate_trace(trace, baseline, _sim_config())
        )
        assert len(store) == 0  # nothing cached, nothing looked up
        assert store.stats.lookups == 0

    def test_poisoned_blob_recomputes_identically_and_heals(self, tmp_path):
        trace = _trace()
        store = ResultStore(tmp_path / "cas")
        cold = cached_simulate(trace, _recommender(), _sim_config(), store=store)
        blob = next(iter(store._blob_files().values()))
        blob.write_bytes(b'{"checksum": "poisoned"')

        recovered = cached_simulate(
            trace, _recommender(), _sim_config(), store=store
        )
        assert _canon(recovered) == _canon(cold)
        assert store.stats.misses == 2  # initial + post-poison
        # The recompute healed the slot: a third call is a clean hit.
        warm = cached_simulate(trace, _recommender(), _sim_config(), store=store)
        assert store.stats.hits == 1
        assert _canon(warm) == _canon(cold)

    def test_hit_skips_the_simulation_loop(self, tmp_path):
        trace = _trace()
        store = ResultStore(tmp_path / "cas")
        cached_simulate(trace, _recommender(), _sim_config(), store=store)
        observer = Observer()
        cached_simulate(
            trace, _recommender(), _sim_config(), observer=observer, store=store
        )
        assert len(observer.events_of_kind("cache_hit")) == 1
        assert observer.events_of_kind("decision") == []  # no sim trail


class TestCachedTrial:
    def test_cold_warm_uncached_byte_identical(self, tmp_path):
        trace = _trace()
        config = CaasperConfig(max_cores=16)
        store = ResultStore(tmp_path / "cas")
        uncached = cached_trial(config, trace, _sim_config())
        cold = cached_trial(config, trace, _sim_config(), store=store)
        warm = cached_trial(config, trace, _sim_config(), store=store)
        assert _canon(cold) == _canon(uncached)
        assert _canon(warm) == _canon(uncached)
        assert store.stats.hits == 1 and store.stats.misses == 1


class TestSweepThroughStore:
    TRACES = ("fig3-square-wave", "fig9-workday", "fig10-cyclical")

    def _traces(self):
        return [paper_trace(name) for name in self.TRACES]

    def test_cold_warm_and_none_byte_identical(self, tmp_path):
        traces = self._traces()
        config = SweepConfig(min_cores=2)
        uncached = run_sweep(traces, config)

        cold_store = ResultStore(tmp_path / "cas")
        cold = run_sweep(traces, config, store=cold_store)
        assert cold_store.stats.misses == len(traces)

        warm_store = ResultStore(tmp_path / "cas")
        warm = run_sweep(traces, config, store=warm_store)
        assert warm_store.stats.hits == len(traces)
        assert warm_store.stats.hit_rate == 1.0

        oracle = _canon(uncached.results)
        assert _canon(cold.results) == oracle
        assert _canon(warm.results) == oracle

    def test_warm_sweep_is_5x_faster_than_cold(self, tmp_path):
        """The acceptance criterion: ≥5× on a ≥3-named-trace sweep."""
        traces = self._traces()
        config = SweepConfig(min_cores=2)

        start = time.perf_counter()
        cold = run_sweep(traces, config, store=ResultStore(tmp_path / "cas"))
        cold_wall = time.perf_counter() - start

        start = time.perf_counter()
        warm = run_sweep(traces, config, store=ResultStore(tmp_path / "cas"))
        warm_wall = time.perf_counter() - start

        assert _canon(warm.results) == _canon(cold.results)
        assert cold_wall >= 5 * warm_wall, (
            f"warm sweep not ≥5× faster: cold={cold_wall:.3f}s "
            f"warm={warm_wall:.3f}s ({cold_wall / warm_wall:.1f}×)"
        )

    def test_partial_overlap_only_simulates_new_traces(self, tmp_path):
        traces = self._traces()
        config = SweepConfig(min_cores=2)
        run_sweep(traces[:2], config, store=ResultStore(tmp_path / "cas"))
        store = ResultStore(tmp_path / "cas")
        outcome = run_sweep(traces, config, store=store)
        assert store.stats.hits == 2 and store.stats.misses == 1
        assert _canon(outcome.results) == _canon(run_sweep(traces, config).results)


class TestTuningThroughStore:
    def test_random_search_cold_warm_none_identical(self, tmp_path):
        search = RandomSearch(_trace(), _sim_config())
        uncached = search.run(trials=4, seed=11)
        store = ResultStore(tmp_path / "cas")
        cold = search.run(trials=4, seed=11, store=store)
        warm = search.run(trials=4, seed=11, store=store)
        assert store.stats.hits == 4 and store.stats.misses == 4
        assert _canon(cold.trials) == _canon(uncached.trials)
        assert _canon(warm.trials) == _canon(uncached.trials)

    def test_grid_search_cold_warm_none_identical(self, tmp_path):
        grid = {"s_high": [2.0, 3.0], "m_low": [0.3, 0.4]}
        search = GridSearch(
            _trace(), _sim_config(), CaasperConfig(max_cores=16), grid
        )
        uncached = search.run()
        store = ResultStore(tmp_path / "cas")
        cold = search.run(store=store)
        warm = search.run(store=store)
        assert store.stats.hits == len(search) and store.stats.misses == len(search)
        assert _canon(cold.trials) == _canon(uncached.trials)
        assert _canon(warm.trials) == _canon(uncached.trials)

    def test_random_and_grid_share_trial_blobs(self, tmp_path):
        """The key is (config, demand, simulator) — the search that
        produced a trial is irrelevant, so overlapping searches share."""
        demand, sim = _trace(), _sim_config()
        base = CaasperConfig(max_cores=16)
        store = ResultStore(tmp_path / "cas")
        GridSearch(demand, sim, base, {"s_high": [3.0]}).run(store=store)
        # The grid's single cell is exactly `base`: evaluating it again
        # through the other driver must hit.
        before = store.stats.hits
        RandomSearch(demand, sim).evaluate(base, store=store)
        assert store.stats.hits == before + 1


class TestFleetThroughStore:
    TRACES = ("fig3-square-wave", "fig9-workday", "fig10-cyclical")

    def _plan(self):
        traces = [paper_trace(name) for name in self.TRACES]
        return sweep_plan(traces, config=SweepConfig(min_cores=2))

    def test_serial_cold_then_parallel_warm_identical(self, tmp_path):
        plan = self._plan()
        oracle = _canon(sweep_outcome(FleetRunner(workers=1).run(plan)).results)

        cold_store = ResultStore(tmp_path / "cas")
        cold = FleetRunner(workers=1, store=cold_store).run(plan)
        assert cold_store.stats.misses == 3 and cold_store.stats.puts == 3
        assert _canon(sweep_outcome(cold).results) == oracle

        for workers in (1, 2, 4):
            warm_store = ResultStore(tmp_path / "cas")
            warm = FleetRunner(workers=workers, store=warm_store).run(plan)
            assert warm_store.stats.hits == 3, f"workers={workers}"
            assert warm_store.stats.misses == 0
            assert _canon(sweep_outcome(warm).results) == oracle, (
                f"workers={workers} warm run diverged"
            )

    def test_parallel_workers_write_back_through_the_store(self, tmp_path):
        """A cold parallel run populates the store from the workers, so
        a later serial run hits without ever having computed locally."""
        plan = self._plan()
        cold_store = ResultStore(tmp_path / "cas")
        cold = FleetRunner(workers=2, store=cold_store).run(plan)
        assert ResultStore(tmp_path / "cas").verify()["corrupt"] == []

        warm_store = ResultStore(tmp_path / "cas")
        warm = FleetRunner(workers=1, store=warm_store).run(plan)
        assert warm_store.stats.hits == 3 and warm_store.stats.misses == 0
        assert _canon(sweep_outcome(warm).results) == _canon(
            sweep_outcome(cold).results
        )

    def test_gc_budget_applied_after_run(self, tmp_path):
        plan = self._plan()
        store = ResultStore(tmp_path / "cas", max_bytes=0)
        FleetRunner(workers=1, store=store).run(plan)
        assert len(store) == 0  # everything evicted post-run
        assert store.stats.evictions == 3

    def test_hits_short_circuit_before_dispatch(self, tmp_path):
        plan = self._plan()
        FleetRunner(workers=1, store=ResultStore(tmp_path / "cas")).run(plan)
        observer = Observer()
        store = ResultStore(tmp_path / "cas")
        FleetRunner(workers=2, store=store, observer=observer).run(plan)
        # Every job settled from the parent-side cache: the observer saw
        # three hits and the runner recorded zero elapsed seconds.
        assert len(observer.events_of_kind("cache_hit")) == 3
        snapshot = observer.metrics.snapshot()
        assert snapshot["store_hits_total"]["values"] == {'{kind="simulate"}': 3.0}


class TestInterleavedOrders:
    """Property: any interleaving of hits and misses over a shared store
    leaves every result byte-identical to its uncached baseline."""

    @pytest.mark.parametrize("order_seed", [0, 1, 2, 3])
    def test_shuffled_hit_miss_interleavings(self, tmp_path, order_seed):
        traces = [_trace(f"t{i}", minutes=120, seed=i) for i in range(3)]
        configs = [
            CaasperConfig(max_cores=16),
            CaasperConfig(max_cores=16, s_high=2.0),
        ]
        jobs = [(t, c) for t in traces for c in configs]
        baselines = {
            (t.name, c.s_high): _canon(cached_trial(c, t, _sim_config()))
            for t, c in jobs
        }
        # Duplicate every job so hits interleave with misses, then
        # shuffle with a seeded RNG (per DET002 discipline).
        sequence = jobs * 2
        random.Random(order_seed).shuffle(sequence)
        store = ResultStore(tmp_path / "cas")
        for t, c in sequence:
            result = cached_trial(c, t, _sim_config(), store=store)
            assert _canon(result) == baselines[(t.name, c.s_high)]
        assert store.stats.hits == len(jobs)  # each duplicate hit once
        assert store.stats.misses == len(jobs)
