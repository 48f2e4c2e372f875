"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cluster-day --seed 3 --seconds 30 --trace 0

The program under test is the checkout's ``src/repro``; the benchmark
imports it from there and refuses to run without it. ``--seed`` makes
the workload's inputs; the program receives only those inputs.

A run has three phases:

1. Set-up: ``import repro`` plus building the workload's inputs, timed
   in this process and in four fresh interpreters started one after the
   other; ``setup_s`` is the median of the five.
2. Timed phase: whole repetitions of the workload, back to back, until
   another one would take their timed seconds past ``--seconds`` (at
   least one). With ``--trace 1`` there are exactly two repetitions,
   one untraced and one with the per-layer wrappers of ``layers.py``
   installed; their ratio is ``trace.overhead_ratio``.
3. Checks, outside the timed part of each repetition: the output digest
   against ``reference.json`` (or, for a seed without a reference,
   against the run's first repetition) and the workload's own oracle
   checks. A repetition that mismatches or raises counts as failed.

Every run prints each end-to-end metric by name with its unit, writes a
record (commit, versions, ``nproc``, seed, sizes, metrics, per-layer
stats and spans) to ``.perfbench/records/``, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``; the metrics are the
end-to-end ones with ``--trace 0`` and the per-layer ones with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Rep, Workload, make_workload  # noqa: E402

#: End-to-end metrics every workload reports (name -> unit). These are
#: the ones ``BENCHMARK.json`` bounds.
END_TO_END = {
    "tenant_minutes_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Setting-up samples per run: this process plus fresh interpreters.
SETUP_SAMPLES = 5

REFERENCE = HERE / "reference.json"


def _tail_ms(ticks: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``ticks`` (seconds) in milliseconds."""
    ordered = sorted(ticks)
    rank = max(math.ceil(fraction * len(ordered)), 1)
    return ordered[rank - 1] * 1e3


def load_reference(workload: Workload) -> dict[str, Any]:
    """Reference digests for ``workload`` at its current sizes, if any."""
    if not REFERENCE.is_file():
        return {}
    data = json.loads(REFERENCE.read_text())
    entry = data.get("workloads", {}).get(workload.name, {})
    if entry.get("sizes") != workload.sizes:
        return {}
    return entry.get("digests", {})


def setup(workload: Workload, seed: int, workdir: Path) -> tuple[float, dict]:
    """Import the program and build the inputs; returns (seconds, inputs)."""
    import importlib

    start = perf_counter()
    for module in workload.modules:
        importlib.import_module(module)
    inputs = workload.build(seed, workdir)
    return perf_counter() - start, inputs


def setup_in_fresh_interpreter(workload: str, seed: int, root: Path) -> float:
    """One set-up sample from a new interpreter, run to completion."""
    done = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--setup-only",
        ],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


class Checker:
    """Digest and oracle checks of each repetition, outside its timing."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.expected = load_reference(workload).get(str(seed))
        self.referenced = self.expected is not None
        self.attempted = 0
        self.failed = 0
        self.digests: list[str] = []
        self.problems: list[str] = []
        #: Peak RSS through set-up and the first repetition, taken before
        #: its checks, so the checks' own memory is not counted.
        self.peak_rss_mb = 0.0

    def run(self, inputs: dict, tracer: Tracer | None, run_id: str) -> Rep | None:
        """One repetition, checked; ``None`` if it raised."""
        self.attempted += 1
        try:
            self.workload.prepare(inputs)
            gc.collect()  # the last repetition's garbage is not this one's cost
            if tracer is None:
                rep = self.workload.run(inputs)
            else:
                with tracer:
                    rep = tracer.root("rep", run_id, lambda: self.workload.run(inputs))
            if not self.peak_rss_mb:
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            digest, problems = self.workload.verify(inputs, rep)
        except Exception:  # noqa: BLE001 - a raising repetition is a failed operation
            self.failed += 1
            self.problems.append(traceback.format_exc())
            print(self.problems[-1], file=sys.stderr)
            return None
        self.digests.append(digest)
        if self.expected is None:
            self.expected = digest
        if digest != self.expected:
            problems.append(f"digest {digest} != expected {self.expected}")
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            for problem in problems:
                print(f"FAILED: {problem}", file=sys.stderr)
        rep.output = None  # drop the (possibly large) output once checked
        return rep


def timed_reps(
    checker: Checker,
    inputs: dict,
    seconds: float,
) -> list[Rep]:
    """Back-to-back repetitions until the next would take the timed
    seconds (checks excluded) past ``seconds``; at least the workload's
    ``min_reps``."""
    reps: list[Rep] = []
    attempts = 0
    while True:
        rep = checker.run(inputs, None, str(attempts))
        attempts += 1
        if rep is not None:
            reps.append(rep)
        if not reps and attempts < 3:
            continue  # a raising program gets three tries before the run gives up
        timed = sum(rep.wall_s for rep in reps)
        if reps and (
            len(reps) < checker.workload.min_reps
            or timed + timed / len(reps) <= seconds
        ):
            continue
        return reps


def stamp(args: argparse.Namespace, workload: Workload, root: Path) -> dict:
    """Where and on what this record was measured."""
    import numpy

    commit, dirty = "unknown", None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
            dirty = bool(
                subprocess.run(
                    ["git", "status", "--porcelain", "--untracked-files=no"],
                    cwd=root, capture_output=True, text=True, timeout=30, check=True,
                ).stdout.strip()
            )
        except (OSError, subprocess.SubprocessError):
            pass
    held_out = None
    if REFERENCE.is_file():
        held_out = json.loads(REFERENCE.read_text()).get("held_out_seed")
    return {
        "workload": workload.name,
        "seed": args.seed,
        "held_out_seed": held_out,
        "sizes": workload.sizes,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def end_to_end(
    reps: list[Rep], setup_s: float, checker: Checker
) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric this workload has: name -> (value, unit)."""
    throughput = statistics.median([rep.work / rep.wall_s for rep in reps])
    metrics = {
        "tenant_minutes_per_s": (throughput, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (checker.peak_rss_mb, "MB"),
        "failed_frac": (checker.failed / checker.attempted, "ratio"),
    }
    for phase in ("cold_pass_s", "warm_pass_s"):
        if any(phase in rep.phases for rep in reps):
            metrics[phase] = (statistics.median([rep.phases[phase] for rep in reps]), "s")
    ticks = [tick for rep in reps for tick in rep.ticks_s]
    if ticks:
        metrics["tick_p50_ms"] = (statistics.median(ticks) * 1e3, "ms")
        if len(ticks) >= 100:  # at least ten ticks beyond the 90th percentile
            metrics["tick_p90_ms"] = (_tail_ms(ticks, 0.90), "ms")
        offered = sum(rep.offered for rep in reps)
        refused = sum(rep.refused for rep in reps)
        metrics["refused_frac"] = (refused / offered if offered else 0.0, "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="time one set-up, print its seconds and exit (used for setup_s samples)",
    )
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {src / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    workload = make_workload(args.workload)
    workdir = root / ".perfbench" / "work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        first_setup, inputs = setup(workload, args.seed, workdir)
        if args.setup_only:
            print(repr(first_setup))
            return 0
        import repro

        if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
            print(f"imported repro from {repro.__file__}, not {src}", file=sys.stderr)
            return 2
        samples = [first_setup] + [
            setup_in_fresh_interpreter(args.workload, args.seed, root)
            for _ in range(SETUP_SAMPLES - 1)
        ]

        checker = Checker(workload, args.seed)
        tracer = None
        if args.trace:
            # Exactly one repetition each way, so per-layer counts are
            # per repetition and repeat exactly from run to run.
            tracer = Tracer()
            untraced = checker.run(inputs, None, "untraced")
            traced = checker.run(inputs, tracer, "traced")
            if untraced is None or traced is None:
                print("a repetition failed; no per-layer metrics", file=sys.stderr)
                return 1
            reps = [untraced]
            overhead = traced.wall_s / untraced.wall_s
        else:
            reps = timed_reps(checker, inputs, args.seconds)
            if not reps:
                print("every repetition failed; no metrics", file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        for parent in (workdir.parent, workdir.parent.parent):
            try:
                parent.rmdir()
            except OSError:
                break

    metrics = end_to_end(reps, statistics.median(samples), checker)
    record: dict[str, Any] = {
        "stamp": stamp(args, workload, root),
        "setup_samples_s": samples,
        "rep_walls_s": [rep.wall_s for rep in reps],
        "tick_samples": sum(len(rep.ticks_s) for rep in reps),
        "referenced": checker.referenced,
        "digests": checker.digests,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "problems": checker.problems,
        "end_to_end": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    reference = "yes" if checker.referenced else "none, checked against the first repetition"
    print(f"# {workload.name} seed={args.seed} sizes={workload.sizes} "
          f"reps={len(reps)} reference={reference}")
    for name, (value, unit) in metrics.items():
        note = f"  (n={record['tick_samples']} ticks)" if name.startswith("tick_") else ""
        print(f"{name} = {value:.6g} {unit}{note}")

    if tracer is not None:
        per_layer = layer_metrics(tracer, overhead)
        record["per_layer"] = {
            name: {"value": per_layer[name], "unit": unit}
            for name, unit in LAYER_METRICS.items()
        }
        record["traced_rep_wall_s"] = traced.wall_s
        record["absent_targets"] = tracer.absent
        record["spans"] = [
            {"name": n, "start": s, "end": e, "span": i, "parent": p, "run": r}
            for n, s, e, i, p, r in tracer.spans
        ]
        for target in tracer.absent:
            print(f"absent: {target}")
        print(f"trace.overhead_ratio = {overhead:.6g} ratio")
        result_metrics = record["per_layer"]
    else:
        result_metrics = {name: record["end_to_end"][name] for name in END_TO_END}

    records = root / ".perfbench" / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record: {path.relative_to(root)}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
