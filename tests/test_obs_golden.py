"""Golden observability corpus: the byte-identity oracle for ``repro.obs``.

Seven small, seeded, observed runs between them emit every registered
event kind. For each run four outputs are reduced to sha256 digests and
compared with ``tests/golden/obs_corpus.json``:

- ``trace_jsonl`` — :func:`~repro.obs.tracing.render_trace_jsonl` of the
  run's events;
- ``events`` — every event's ``to_dict()`` as sorted-key JSON (stamped
  or not), one per line, with the wall-clock ``elapsed_seconds`` dropped;
- ``metrics`` — ``metrics.render_text()`` without the three wall-clock
  histogram families;
- ``report`` — the ``caasper report`` text for the run's JSONL log.

A refactor of the observability layer must leave every digest as it
is. To re-record the corpus after an *intended* output change, run
``PYTHONPATH=src python tests/test_obs_golden.py --write`` and say in
the change why the outputs moved.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import Callable

import pytest

from repro.baselines.moving_average import MovingAverageRecommender
from repro.capacity import make_capacity_scenario, run_capacity
from repro.core.config import CaasperConfig
from repro.core.recommender import CaasperRecommender
from repro.engine import BatchEngine, EngineJob
from repro.faults.scenarios import make_scenario
from repro.fleet import FleetRunner, sweep_plan
from repro.fleet.jobs import FleetPlan, ProbeJob
from repro.obs import JsonlSink, Observer, load_trace
from repro.obs.events import _EVENT_TYPES, ObsEvent
from repro.obs.tracing import render_trace_jsonl
from repro.report import build_fleet_report, render_text
from repro.serve.config import ServeConfig
from repro.serve.harness import ServeHarness
from repro.sim.live import LiveSystemConfig, simulate_live
from repro.sim.simulator import SimulatorConfig, simulate_trace
from repro.sim.sweep import SweepConfig, run_sweep
from repro.store import ResultStore
from repro.trace import CpuTrace
from repro.workloads.base import TraceWorkload
from repro.workloads.synthetic import cyclical_days, noisy, square_wave

CORPUS_PATH = Path(__file__).parent / "golden" / "obs_corpus.json"

#: Histogram families whose values are wall-clock measurements.
WALL_CLOCK_FAMILIES = (
    "recommender_seconds",
    "sim_step_seconds",
    "fleet_job_seconds",
)


def _small_traces(count: int, minutes: int = 200) -> list[CpuTrace]:
    return [
        noisy(
            CpuTrace.constant(1.5 + index, minutes, f"golden-{index}"),
            sigma=0.15,
            seed=11 + index,
        )
        for index in range(count)
    ]


# ---------------------------------------------------------------------------
# The runs. Each drives one observer through public entry points only.


def run_simulate(observer: Observer, workdir: Path) -> None:
    """CaaSPER (full derivation) and a baseline (opaque) on one trace."""
    trace = square_wave(total_hours=10.0)
    config = SimulatorConfig(initial_cores=4, max_cores=16)
    simulate_trace(
        trace,
        CaasperRecommender(CaasperConfig(max_cores=16, c_min=2)),
        config,
        observer=observer,
    )
    simulate_trace(
        trace,
        MovingAverageRecommender(min_cores=2, max_cores=16),
        config,
        observer=observer,
    )


def run_chaos(observer: Observer, workdir: Path) -> None:
    """Kitchen-sink faults: safe mode, retries, rollback, quarantine."""
    trace = cyclical_days(days=1, name="chaos-cyclical").window(0, 720)
    workload = TraceWorkload(trace)
    simulate_live(
        workload,
        CaasperRecommender(CaasperConfig(c_min=2, max_cores=16)),
        LiveSystemConfig(),
        observer=observer,
        faults=make_scenario(
            "kitchen-sink", seed=0, horizon_minutes=workload.minutes
        ),
    )


def run_fleet(observer: Observer, workdir: Path) -> None:
    """Started/finished/failed jobs, a journaled resume and relayed runs."""
    journal = workdir / "fleet.jsonl"
    probes = FleetPlan(
        jobs=(ProbeJob("p0", behaviour="ok"), ProbeJob("p1", behaviour="raise")),
        name="probe",
        seed=0,
    )
    FleetRunner(workers=1, journal_path=journal, observer=observer).run(probes)
    FleetRunner(
        workers=1, journal_path=journal, resume=True, observer=observer
    ).run(probes)
    FleetRunner(workers=1, observer=observer).run(
        sweep_plan(_small_traces(2), config=SweepConfig(), name="relay")
    )


def run_store(observer: Observer, workdir: Path) -> None:
    """Cold misses, two warm passes of disk hits, then GC to empty."""
    root = workdir / "cas"
    traces = _small_traces(2)
    run_sweep(traces, observer=observer, store=ResultStore(root))
    warm = ResultStore(root)
    run_sweep(traces, observer=observer, store=warm)
    run_sweep(traces, observer=observer, store=warm)
    with observer.trace("simulate:golden-store-gc"):
        warm.gc(max_bytes=0, observer=observer)


def run_engine(observer: Observer, workdir: Path) -> None:
    """Vector lanes, a scalar-fallback lane, then a store-served batch."""
    traces = _small_traces(3, minutes=120)
    config = CaasperConfig(max_cores=16)
    scalar_config = CaasperConfig(
        max_cores=16, proactive=True, forecast_confidence=0.9
    )
    sim = SimulatorConfig(initial_cores=4, max_cores=16)
    jobs = [EngineJob.from_config(t, config, sim) for t in traces[:2]]
    jobs.append(EngineJob.from_config(traces[2], scalar_config, sim))
    store = ResultStore(workdir / "cas")
    with observer.trace("simulate:golden-engine"):
        engine = BatchEngine(observer=observer)
        engine.run(jobs)
        engine.run(jobs, store=store)
        engine.run(jobs, store=store)


def run_capacity_scenario(observer: Observer, workdir: Path) -> None:
    """Placement, pending pods, node pool, drains, contention, faults."""
    scenario = make_capacity_scenario(
        "capacity-chaos", seed=0, minutes=120, pods=40
    )
    run_capacity(scenario, observer=observer)


def run_serve(observer: Observer, workdir: Path) -> None:
    """Shed, reject, trip breakers, restart, quarantine, recover, drain."""
    tenants, ticks, seed = 8, 120, 1
    config = ServeConfig(
        queue_capacity=4,
        global_sample_cap=2 * tenants,
        breaker_failure_threshold=2,
        breaker_open_ticks=10,
        quarantine_restarts=2,
        quarantine_window_ticks=120,
        quarantine_release_ticks=20,
        snapshot_interval_ticks=40,
        drain_max_ticks=16,
        seed=seed,
        fsync_journal=False,
    )
    harness = ServeHarness(
        tenants,
        config=config,
        state_dir=str(workdir / "serve"),
        observer=observer,
        seed=seed,
        scenario="component-crash",
        scenario_minutes=ticks,
        crash_rate=0.05,
        crash_horizon_ticks=ticks,
        trace_minutes=ticks,
    )
    harness.run(ticks // 2)
    harness.crash()
    harness.reopen()
    harness.run(ticks // 2)
    harness.plane.ingest("nobody", [1.0])
    harness.plane.drain("golden")
    harness.plane.ingest("t000", [1.0])


RUNS: dict[str, Callable[[Observer, Path], None]] = {
    "simulate": run_simulate,
    "chaos": run_chaos,
    "fleet": run_fleet,
    "store": run_store,
    "engine": run_engine,
    "capacity": run_capacity_scenario,
    "serve": run_serve,
}


# ---------------------------------------------------------------------------
# Digesting


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _event_lines(events: list[ObsEvent]) -> str:
    lines = []
    for event in events:
        payload = event.to_dict()
        payload.pop("elapsed_seconds", None)
        lines.append(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    return "".join(line + "\n" for line in lines)


def _deterministic_metrics(text: str) -> str:
    dropped = tuple(
        prefix
        for family in WALL_CLOCK_FAMILIES
        for prefix in (
            f"# HELP {family} ",
            f"# TYPE {family} ",
            f"{family}_bucket",
            f"{family}_sum",
            f"{family}_count",
        )
    )
    return "".join(
        line + "\n"
        for line in text.splitlines()
        if not line.startswith(dropped)
    )


def _report_text(jsonl: str, workdir: Path) -> str:
    path = workdir / "events.jsonl"
    path.write_text(jsonl, encoding="utf-8")
    read = load_trace(path)
    assert not read.skipped, read.skipped
    return render_text(build_fleet_report(read.events))


def observe(name: str) -> dict[str, object]:
    """Run one corpus entry and digest its four outputs."""
    events: list[ObsEvent] = []
    log = io.StringIO()
    observer = Observer(sinks=(events.append, JsonlSink(log)))
    with tempfile.TemporaryDirectory() as scratch:
        workdir = Path(scratch)
        RUNS[name](observer, workdir)
        observer.close()
        report = _report_text(log.getvalue(), workdir)
    return {
        "kinds": sorted({event.kind for event in events}),
        "events": len(events),
        "sha256": {
            "trace_jsonl": _sha(render_trace_jsonl(events)),
            "events": _sha(_event_lines(events)),
            "metrics": _sha(
                _deterministic_metrics(observer.metrics.render_text())
            ),
            "report": _sha(report),
        },
    }


def _load_corpus() -> dict[str, dict[str, object]]:
    return json.loads(CORPUS_PATH.read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def _hard_timeout(hard_timeout):
    yield


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_corpus(name):
    expected = _load_corpus()[name]
    assert observe(name) == expected


def test_corpus_covers_every_event_kind():
    corpus = _load_corpus()
    assert sorted(corpus) == sorted(RUNS)
    covered = {kind for entry in corpus.values() for kind in entry["kinds"]}
    missing = sorted(set(_EVENT_TYPES) - covered)
    assert not missing, f"event kinds no corpus run emits: {missing}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_obs_golden.py --write")
    corpus = {name: observe(name) for name in sorted(RUNS)}
    CORPUS_PATH.parent.mkdir(parents=True, exist_ok=True)
    CORPUS_PATH.write_text(
        json.dumps(corpus, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {CORPUS_PATH} ({len(corpus)} runs)")
