"""Fleet runner scaling: serial vs process-parallel sweep wall-clock.

Not a paper figure — this measures the repo's own `repro.fleet` runtime
(see `docs/FLEET.md`). A multi-trace sweep is embarrassingly parallel,
so with enough cores the wall-clock should divide by roughly the worker
count once spawn startup is amortized. On single- or dual-core runners
the parallel run pays the spawn tax without the parallelism, so the
speedup assertion is gated on having at least four usable cores; the
determinism assertion (parallel merge byte-identical to serial) holds
everywhere and is always enforced.
"""

import os
import time

from conftest import kcn_of, write_bench_json

from repro.fleet import FleetRunner, sweep_outcome, sweep_plan
from repro.fleet.codec import canonical_json, encode
from repro.sim.sweep import SweepConfig, run_sweep
from repro.trace import CpuTrace
from repro.workloads.traces import paper_trace, paper_trace_names


def _usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _traces():
    # Every paper trace, twice over with distinct names: enough work per
    # worker for the pool spawn to amortize.
    traces = []
    for repeat in range(2):
        for name in paper_trace_names():
            trace = paper_trace(name)
            traces.append(
                CpuTrace(
                    samples=trace.samples,
                    name=f"{trace.name}-r{repeat}",
                    start_minute=trace.start_minute,
                )
            )
    return traces


def _sweep(traces, workers):
    config = SweepConfig(min_cores=2)
    if workers == 1:
        return run_sweep(traces, config=config)
    plan = sweep_plan(traces, config=config)
    return sweep_outcome(FleetRunner(workers=workers).run(plan).require_success())


def test_fleet_scaling(once):
    traces = _traces()
    cores = _usable_cores()

    start = time.perf_counter()
    serial = _sweep(traces, workers=1)
    serial_wall = time.perf_counter() - start

    walls = {1: serial_wall}
    outcomes = {}
    for workers in (2, 4):
        start = time.perf_counter()
        outcomes[workers] = _sweep(traces, workers=workers)
        walls[workers] = time.perf_counter() - start

    # Benchmark the best parallel configuration for the timing record.
    best = min((2, 4), key=lambda w: walls[w])
    once(_sweep, traces, workers=best)

    print()
    print(f"fleet scaling over {len(traces)} traces ({cores} cores usable)")
    print(f"{'workers':>7}  {'wall (s)':>9}  {'speedup':>7}")
    for workers in (1, 2, 4):
        speedup = serial_wall / walls[workers]
        print(f"{workers:>7}  {walls[workers]:>9.2f}  {speedup:>6.2f}x")

    # Determinism: the parallel merge is byte-identical to serial.
    oracle = canonical_json(encode(serial.results))
    for workers, outcome in outcomes.items():
        assert canonical_json(encode(outcome.results)) == oracle, (
            f"workers={workers} diverged from the serial sweep"
        )

    # Speedup claim only where the hardware can express it.
    if cores >= 4:
        assert serial_wall / walls[4] >= 2.0, (
            f"expected >=2x speedup at 4 workers on {cores} cores, got "
            f"{serial_wall / walls[4]:.2f}x"
        )

    def _totals(outcome):
        kcn = {"K": 0.0, "C": 0.0, "N": 0.0}
        for result in outcome.results.values():
            for axis, value in kcn_of(result).items():
                kcn[axis] += value
        return kcn

    write_bench_json(
        "fleet_scaling",
        wall_seconds={f"workers={w}": walls[w] for w in (1, 2, 4)},
        kcn={
            "workers=1": _totals(serial),
            **{f"workers={w}": _totals(o) for w, o in outcomes.items()},
        },
        cache_hit_rate=None,  # no result store in this benchmark
        extra={
            "traces": len(traces),
            "usable_cores": cores,
            "speedup_at_4_workers": serial_wall / walls[4],
        },
    )
