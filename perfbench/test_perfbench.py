"""Self-tests of the benchmark at tiny sizes.

Run from the root of a checkout with::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from layers import HOOKS, LAYER_METRICS, Hook, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, make_workload  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

TINY = {
    "cluster-day": {"pods": 24, "minutes": 60},
    "tuning-search": {"trials": 6, "days": 1},
    "sweep-store": {"traces": 5, "days": 1},
    "serve-fleet": {"tenants": 12, "ticks": 15},
}


def _run_tiny(name: str, tmp_path: Path, traced: bool, reps: int = 2):
    workload = make_workload(name, **TINY[name])
    inputs = workload.build(3, tmp_path)
    checker = run.Checker(workload, 3)
    tracer = Tracer() if traced else None
    results = [checker.run(inputs, tracer, f"t{index}") for index in range(reps)]
    return workload, checker, tracer, results


def test_metric_names_and_units_are_well_formed():
    names = list(run.END_TO_END) + list(LAYER_METRICS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for unit in list(run.END_TO_END.values()) + list(LAYER_METRICS.values()):
        assert UNIT.match(unit), unit


def test_benchmark_json_matches_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert spec["paths"] == ["perfbench"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, tmp_path):
    workload, checker, tracer, reps = _run_tiny(name, tmp_path, traced=True)
    assert checker.failed == 0, checker.problems
    assert checker.attempted == 2
    assert len(set(checker.digests)) == 1  # same seed, same output
    assert tracer.absent == []

    metrics = run.end_to_end(reps, 1.0, checker)
    for metric, unit in run.END_TO_END.items():
        value, emitted_unit = metrics[metric]
        assert emitted_unit == unit
        assert value > 0, metric
    assert metrics["failed_frac"] == (0.0, "ratio")

    layers = layer_metrics(tracer, overhead_ratio=1.0)
    assert set(layers) == set(LAYER_METRICS)
    assert all(isinstance(value, (int, float)) for value in layers.values())


def test_layers_are_attributed_to_their_workloads(tmp_path):
    sizes = TINY["tuning-search"]
    _, _, tracer, _ = _run_tiny("tuning-search", tmp_path / "t", traced=True, reps=1)
    layers = layer_metrics(tracer, 1.0)
    assert layers["kernel.lanes_per_call"] == 1.0  # one cohort per sampled config
    assert layers["engine.cohorts"] == sizes["trials"]
    assert layers["store.put.calls"] == 0

    sizes = TINY["sweep-store"]
    _, _, tracer, _ = _run_tiny("sweep-store", tmp_path / "s", traced=True, reps=1)
    layers = layer_metrics(tracer, 1.0)
    assert layers["store.put.calls"] == sizes["traces"]  # cold pass writes
    assert layers["store.get.calls"] == 2 * sizes["traces"]  # both passes look up
    assert layers["store.hit_ratio"] == 0.5  # warm pass hits everything
    assert layers["store.put.bytes"] > 0

    sizes = TINY["serve-fleet"]
    _, _, tracer, _ = _run_tiny("serve-fleet", tmp_path / "v", traced=True, reps=1)
    layers = layer_metrics(tracer, 1.0)
    assert layers["serve.step_tick.calls"] == sizes["ticks"]
    assert layers["serve.tenant.step.calls"] == sizes["ticks"] * sizes["tenants"]
    assert layers["serve.journal.append.calls"] > 0
    assert layers["capacity.engine.calls"] == 0

    _, _, tracer, _ = _run_tiny("cluster-day", tmp_path / "c", traced=True, reps=1)
    layers = layer_metrics(tracer, 1.0)
    assert layers["capacity.engine.calls"] == 1
    assert layers["capacity.engine.self_s"] < layers["capacity.engine.s"]
    assert layers["recommender.observe.calls"] > 0
    assert layers["serve.step_tick.calls"] == 0


def test_a_perturbed_digest_raises_failed_frac(tmp_path):
    workload = make_workload("cluster-day", **TINY["cluster-day"])
    inputs = workload.build(3, tmp_path)
    checker = run.Checker(workload, 3)
    reps = [checker.run(inputs, None, "good")]
    assert checker.failed == 0
    checker.expected = "0" * len(checker.expected)  # what a changed program produces
    reps.append(checker.run(inputs, None, "bad"))
    metrics = run.end_to_end(reps, 1.0, checker)
    assert metrics["failed_frac"] == (0.5, "ratio")
    assert any("digest" in problem for problem in checker.problems)


def test_a_raising_repetition_counts_as_failed(tmp_path):
    workload = make_workload("cluster-day", **TINY["cluster-day"])
    checker = run.Checker(workload, 3)
    assert checker.run({}, None, "no-inputs") is None
    assert (checker.attempted, checker.failed) == (1, 1)


def test_a_missing_entry_point_is_reported_absent():
    from repro.capacity import engine

    hooks = HOOKS + (
        Hook("gone.module", ("repro.no_such_module:run",)),
        Hook("gone.method", ("repro.capacity.engine:ClusterEngine._simulate_lane",)),
        Hook("gone.class", ("repro.capacity.engine:NoSuchEngine.run",)),
    )
    original = engine.ClusterEngine.run
    tracer = Tracer(hooks)
    with tracer:
        assert engine.ClusterEngine.run is not original
    assert engine.ClusterEngine.run is original  # uninstalled cleanly
    assert tracer.absent == [
        "repro.no_such_module:run",
        "repro.capacity.engine:ClusterEngine._simulate_lane",
        "repro.capacity.engine:NoSuchEngine.run",
    ]
    layers = layer_metrics(tracer, 1.0)
    assert layers["trace.absent_targets"] == 3


def test_self_time_excludes_wrapped_children():
    tracer = Tracer(())
    outer, inner = Hook("outer", ()), Hook("inner", ())

    def child():
        return sum(range(20000))

    def parent():
        return tracer.call(inner, child, (), {}) + sum(range(20000))

    tracer.call(outer, parent, (), {})
    stats = tracer.stats
    assert stats["outer"]["calls"] == stats["inner"]["calls"] == 1
    assert stats["outer"]["self_s"] == pytest.approx(
        stats["outer"]["s"] - stats["inner"]["s"]
    )


def test_tail_percentile_is_nearest_rank():
    ticks = [index / 1000 for index in range(1, 121)]  # 1..120 ms
    assert run._tail_ms(ticks, 0.90) == pytest.approx(108.0)
    assert sum(tick * 1e3 > 108.0 for tick in ticks) >= 10


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cluster-day",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
