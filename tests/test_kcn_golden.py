"""Golden K/C/N corpus: the byte-identity oracle for the simulation paths.

Small, seeded, unobserved runs through every route a CaaSPER decision
can take — the single-lane engine path, the batched engine with one-lane
and many-lane cohorts (with and without certified axis reductions), the
engine seams of the sweep and the tuning search, a serial fleet sweep,
every capacity scenario, and the live control loops: the plain
``ControlLoop`` of ``simulate_live``, the hardened loop under every
chaos scenario, and a headless ``caasper serve`` plane. Each run's
results are reduced to the sha256 of their canonical JSON
(:func:`repro.fleet.codec.canonical_json`, or
:meth:`~repro.capacity.results.CapacityResult.canonical_json`; a live
run contributes its metrics, usage and limits, a serve run its
``ledger_digest``) and compared with ``tests/golden/kcn_corpus.json``.

A refactor of the decision kernels, the engine or the seams must leave
every digest as it is. To re-record the corpus after an *intended*
output change, run ``PYTHONPATH=src python tests/test_kcn_golden.py
--write`` and say in the change why the outputs moved.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

import repro.engine.kernel as kernel
from repro.capacity import make_capacity_scenario, run_capacity
from repro.capacity.scenarios import capacity_scenario_names
from repro.core import CaasperRecommender
from repro.core.config import CaasperConfig, RoundingMode
from repro.engine import BatchEngine, EngineJob
from repro.experiments import fig9
from repro.faults.scenarios import make_scenario, scenario_names
from repro.fleet import FleetRunner, sweep_plan
from repro.fleet.codec import canonical_json
from repro.fleet.plans import sweep_outcome
from repro.serve import ServeConfig, ServeHarness
from repro.sim import SimulatorConfig
from repro.sim.live import simulate_live
from repro.sim.sweep import SweepConfig, run_sweep
from repro.trace import CpuTrace
from repro.tuning import RandomSearch
from repro.workloads import workday
from repro.workloads.base import TraceWorkload

CORPUS_PATH = Path(__file__).parent / "golden" / "kcn_corpus.json"

REACTIVE = CaasperConfig(max_cores=16)
PROACTIVE = CaasperConfig(
    max_cores=16,
    proactive=True,
    seasonal_period_minutes=60,
    forecast_horizon_minutes=20,
    history_tail_minutes=30,
)
SIM = SimulatorConfig(initial_cores=4, max_cores=16)


def _trace(minutes: int, seed: int, name: str, peak: float = 5.0) -> CpuTrace:
    """Seasonal demand with noise: crosses core boundaries both ways."""
    rng = np.random.default_rng(seed)
    t = np.arange(minutes)
    samples = peak * (0.55 + 0.35 * np.sin(2 * np.pi * t / 60.0))
    samples = samples + rng.uniform(0.0, peak * 0.3, minutes)
    return CpuTrace(np.maximum(samples, 0.0), name)


def _ragged_jobs() -> list[EngineJob]:
    """Heterogeneous lanes: two shared cohorts plus one-lane cohorts."""
    shared = CaasperConfig(max_cores=16, window_minutes=40)
    lanes = [
        (shared, SIM),
        (shared.with_updates(s_high=2.0, rounding=RoundingMode.CEIL), SIM),
        (shared.with_updates(m_low=0.5, c_min=2), SimulatorConfig(2, max_cores=16)),
        (CaasperConfig(max_cores=16, window_minutes=20), SIM),
        (CaasperConfig(max_cores=12, quantile=0.9), SimulatorConfig(3, max_cores=12)),
        (
            CaasperConfig(max_cores=16, slope_scale=20.0),
            SimulatorConfig(4, max_cores=16, resize_delay_minutes=2),
        ),
        (PROACTIVE, SIM),
        (PROACTIVE.with_updates(s_low=0.2), SIM),
        (
            PROACTIVE.with_updates(forecast_horizon_minutes=10),
            SimulatorConfig(4, max_cores=16, decision_interval_minutes=5),
        ),
    ]
    lengths = (240, 97, 180, 240, 150, 61, 240, 200, 130)
    return [
        EngineJob.from_config(
            _trace(minutes, 40 + lane, f"ragged-{lane}", peak=4.0 + lane), config, sim
        )
        for lane, ((config, sim), minutes) in enumerate(zip(lanes, lengths))
    ]


def _sweep_traces() -> list[CpuTrace]:
    """Eight traces; their per-trace ceilings are partly shared."""
    peaks = (2.0, 2.0, 2.0, 5.0, 5.0, 8.0, 11.0, 14.0)
    return [
        _trace(180, 60 + index, f"sweep-{index}", peak=peak)
        for index, peak in enumerate(peaks)
    ]


# ---------------------------------------------------------------------------
# The runs. Each returns the canonical JSON of its results.


def run_one_reactive_lane() -> str:
    job = EngineJob.from_config(_trace(240, 1, "one-reactive"), REACTIVE, SIM)
    return canonical_json(BatchEngine().run([job]))


def run_one_proactive_lane() -> str:
    job = EngineJob.from_config(_trace(240, 2, "one-proactive"), PROACTIVE, SIM)
    return canonical_json(BatchEngine().run([job]))


def run_ragged_batch() -> str:
    return canonical_json(BatchEngine().run(_ragged_jobs()))


def run_ragged_batch_uncertified() -> str:
    saved = kernel._AXIS_OK
    kernel._AXIS_OK = False
    try:
        return canonical_json(BatchEngine().run(_ragged_jobs()))
    finally:
        kernel._AXIS_OK = saved


def run_sweep_engine() -> str:
    outcome = run_sweep(_sweep_traces(), SweepConfig(), engine=BatchEngine())
    return canonical_json(outcome.results)


def run_random_search_engine() -> str:
    search = RandomSearch(_trace(240, 3, "tune"), SimulatorConfig(4, max_cores=16))
    return canonical_json(search.run(24, seed=5, engine=BatchEngine()).trials)


def run_fleet_sweep() -> str:
    plan = sweep_plan(_sweep_traces(), config=SweepConfig(), name="golden-kcn")
    outcome = FleetRunner().run(plan).require_success()
    return canonical_json(sweep_outcome(outcome).results)


def _capacity_run(name: str) -> Callable[[], str]:
    def run() -> str:
        scenario = make_capacity_scenario(name, seed=2, minutes=120, pods=16)
        return run_capacity(scenario).canonical_json()

    return run


LIVE_START = 90  # the light → heavy step of the workday falls mid-run
LIVE_MINUTES = 360  # long enough for every chaos scenario to move K/C/N


def _live_run(scenario: str | None) -> Callable[[], str]:
    """Fig. 9's live setup for a short horizon, optionally under chaos."""

    def run() -> str:
        demand = workday(sigma=0.08).window(LIVE_START, LIVE_START + LIVE_MINUTES)
        faults = (
            make_scenario(scenario, seed=1, horizon_minutes=LIVE_MINUTES)
            if scenario is not None
            else None
        )
        result = simulate_live(
            TraceWorkload(demand),
            CaasperRecommender(fig9.caasper_config()),
            fig9.live_config(),
            faults=faults,
        )
        return canonical_json(
            {
                "metrics": result.metrics,
                "usage": result.usage,
                "limits": result.limits,
            }
        )

    return run


def run_serve_headless() -> str:
    harness = ServeHarness(
        6,
        config=ServeConfig(seed=4, fsync_journal=False),
        seed=4,
        scenario="component-crash",
        scenario_minutes=150,
        crash_rate=0.02,
        crash_horizon_ticks=150,
        trace_minutes=150,
    )
    harness.run(150)
    return harness.plane.ledger_digest()


def run_serve_proactive_past_gate() -> str:
    # Long enough that the proactive tenants pass their 1440-minute
    # forecast gate and the component-crash scenario's forecaster and
    # recommender faults fire against the serve consult path.
    harness = ServeHarness(
        8,
        config=ServeConfig(fsync_journal=False),
        seed=2,
        scenario="component-crash",
        scenario_minutes=2000,
    )
    harness.run(1600)
    return canonical_json(
        {
            "ledger_digest": harness.plane.ledger_digest(),
            "audit": harness.plane.audit(),
        }
    )


RUNS: dict[str, Callable[[], str]] = {
    "engine-one-reactive-lane": run_one_reactive_lane,
    "engine-one-proactive-lane": run_one_proactive_lane,
    "engine-ragged-batch": run_ragged_batch,
    "engine-ragged-batch-uncertified": run_ragged_batch_uncertified,
    "sweep-engine": run_sweep_engine,
    "random-search-engine": run_random_search_engine,
    "fleet-sweep-serial": run_fleet_sweep,
    **{
        f"capacity-{name}": _capacity_run(name)
        for name in capacity_scenario_names()
    },
    "live-plain": _live_run(None),
    **{f"live-chaos-{name}": _live_run(name) for name in scenario_names()},
    "serve-headless": run_serve_headless,
    "serve-proactive-past-gate": run_serve_proactive_past_gate,
}


def digest(name: str) -> str:
    """Run one corpus entry; the sha256 of its canonical JSON."""
    return hashlib.sha256(RUNS[name]().encode("utf-8")).hexdigest()


def _load_corpus() -> dict[str, str]:
    return json.loads(CORPUS_PATH.read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def _hard_timeout(hard_timeout):
    yield


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_corpus(name):
    assert digest(name) == _load_corpus()[name]


def test_corpus_lists_every_run():
    assert sorted(_load_corpus()) == sorted(RUNS)


def test_live_entries_are_pairwise_distinct():
    # A chaos entry that digests like the fault-free run could not tell a
    # change to the hardened path's outcomes from none.
    live = {
        name: value
        for name, value in _load_corpus().items()
        if name.startswith("live-")
    }
    assert len(live) == 1 + len(scenario_names())
    assert len(set(live.values())) == len(live)


def test_uncertified_batch_matches_certified_digest():
    # Axis reductions only pick a kernel; the outputs never move.
    corpus = _load_corpus()
    assert (
        corpus["engine-ragged-batch-uncertified"] == corpus["engine-ragged-batch"]
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_kcn_golden.py --write")
    corpus = {name: digest(name) for name in sorted(RUNS)}
    CORPUS_PATH.parent.mkdir(parents=True, exist_ok=True)
    CORPUS_PATH.write_text(
        json.dumps(corpus, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {CORPUS_PATH} ({len(corpus)} runs)")
