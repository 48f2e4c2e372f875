"""The four benchmark workloads: inputs from a seed, one timed repetition,
and the checks that the program's outputs are right.

Each workload is a closed loop driven from one process: the next call
starts only when the previous one has returned. Nothing here imports
``repro`` at module level, so the runner can time the program's import
as part of set-up.

- ``cluster-day``: a 1000-pod, 1440-minute ``cluster-day`` capacity run.
- ``tuning-search``: a 256-trial random search on one seeded day through
  the batch engine, no store (every trial is its own cohort).
- ``sweep-store``: 256 seeded one-day traces swept through the batch
  engine into a fresh result store (cold pass), then read back through
  a new handle (warm pass).
- ``serve-fleet``: a 1000-tenant serve plane with the fsynced journal
  on, driven tick by tick for 60 ticks (a fresh plane each repetition).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

__all__ = ["Rep", "Workload", "WORKLOADS", "make_workload"]

DAY = 1440


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Rep:
    """One timed repetition of a workload.

    ``wall_s`` is the timed part only; ``work`` is the simulated
    control-loop minutes it covered (tenants x minutes, trials x minutes,
    traces x minutes x passes, tenants x ticks).
    """

    wall_s: float
    work: float
    output: Any
    phases: dict[str, float] = field(default_factory=dict)
    ticks_s: list[float] = field(default_factory=list)
    offered: int = 0
    refused: int = 0


class Workload:
    """Base: sizes, set-up, one repetition, digest and oracle checks."""

    name = ""
    modules: tuple[str, ...] = ("repro",)
    #: Fewest timed repetitions in an untraced run.
    min_reps = 1

    def __init__(self, **sizes: int) -> None:
        self.sizes = sizes

    def build(self, seed: int, workdir: Path) -> dict[str, Any]:
        """The inputs, made from ``seed`` (timed as set-up)."""
        raise NotImplementedError

    def prepare(self, inputs: dict[str, Any]) -> None:
        """Untimed, untraced work one repetition needs before it starts."""

    def run(self, inputs: dict[str, Any]) -> Rep:
        """One repetition; ``Rep.wall_s`` times the workload's calls only."""
        raise NotImplementedError

    def verify(self, inputs: dict[str, Any], rep: Rep) -> tuple[str, list[str]]:
        """``(digest of the output, problems found without a reference)``."""
        raise NotImplementedError


class ClusterDay(Workload):
    name = "cluster-day"
    # repro.capacity imports the engine only inside its vector decide;
    # importing it here keeps the kernel's import-time certify() in set-up.
    modules = ("repro", "repro.capacity", "repro.engine")

    def build(self, seed: int, workdir: Path) -> dict[str, Any]:
        from repro.capacity import make_capacity_scenario

        scenario = make_capacity_scenario(
            "cluster-day",
            seed=seed,
            pods=self.sizes["pods"],
            minutes=self.sizes["minutes"],
        )
        return {"scenario": scenario}

    def run(self, inputs: dict[str, Any]) -> Rep:
        from repro.capacity import run_capacity

        start = perf_counter()
        result = run_capacity(inputs["scenario"])
        wall = perf_counter() - start
        work = self.sizes["pods"] * self.sizes["minutes"]
        return Rep(wall_s=wall, work=work, output=result)

    def verify(self, inputs: dict[str, Any], rep: Rep) -> tuple[str, list[str]]:
        result = rep.output
        problems = []
        if result.tenants != self.sizes["pods"] or len(result.per_tenant) != result.tenants:
            problems.append(f"cluster-day ran {result.tenants} tenants")
        if result.minutes != self.sizes["minutes"]:
            problems.append(f"cluster-day ran {result.minutes} minutes")
        if not 0 < sum(result.utilization_histogram) <= result.node_minutes:
            problems.append("cluster-day utilization histogram exceeds billed node-minutes")
        return _sha(result.canonical_json()), problems


class TuningSearch(Workload):
    name = "tuning-search"
    modules = ("repro", "repro.tuning", "repro.engine")

    def build(self, seed: int, workdir: Path) -> dict[str, Any]:
        from repro.core.config import CaasperConfig
        from repro.sim.simulator import SimulatorConfig
        from repro.tuning import ParameterSpace, RandomSearch
        from repro.workloads.synthetic import cyclical_days

        demand = cyclical_days(days=self.sizes["days"], seed=seed, name="tuning-day")
        search = RandomSearch(
            demand,
            SimulatorConfig(initial_cores=4, min_cores=1, max_cores=16),
            ParameterSpace(base=CaasperConfig(max_cores=16)),
        )
        return {"search": search, "seed": seed}

    def run(self, inputs: dict[str, Any]) -> Rep:
        from repro.engine import BatchEngine

        start = perf_counter()
        outcome = inputs["search"].run(
            self.sizes["trials"], seed=inputs["seed"], engine=BatchEngine()
        )
        wall = perf_counter() - start
        work = self.sizes["trials"] * self.sizes["days"] * DAY
        return Rep(wall_s=wall, work=work, output=outcome)

    @staticmethod
    def _kcn(trial: Any) -> list:
        return [trial.total_slack, trial.total_insufficient_cpu, trial.num_scalings]

    def verify(self, inputs: dict[str, Any], rep: Rep) -> tuple[str, list[str]]:
        """Digest of every trial's K/C/N; the first and last trials are
        also run through the scalar simulator and must match it."""
        trials = rep.output.trials
        digest = _sha(json.dumps([self._kcn(trial) for trial in trials]))
        if len(trials) != self.sizes["trials"]:
            return digest, [f"tuning-search returned {len(trials)} trials"]
        problems = []
        for index in (0, len(trials) - 1):
            scalar = inputs["search"].evaluate(trials[index].config)
            if self._kcn(scalar) != self._kcn(trials[index]):
                problems.append(f"tuning-search trial {index} differs from the scalar run")
        return digest, problems


def _same(left: Any, right: Any) -> bool:
    """Exact equality of result trees: arrays bit for bit, dataclasses
    field by field, containers element by element."""
    import numpy as np

    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return (
            isinstance(left, np.ndarray)
            and isinstance(right, np.ndarray)
            and left.dtype == right.dtype
            and left.shape == right.shape
            and left.tobytes() == right.tobytes()
        )
    if dataclasses.is_dataclass(left) and not isinstance(left, type):
        return type(left) is type(right) and all(
            _same(getattr(left, f.name), getattr(right, f.name))
            for f in dataclasses.fields(left)
        )
    if isinstance(left, dict):
        return (
            isinstance(right, dict)
            and list(left) == list(right)
            and all(_same(left[key], right[key]) for key in left)
        )
    if isinstance(left, (list, tuple)):
        return (
            type(left) is type(right)
            and len(left) == len(right)
            and all(_same(a, b) for a, b in zip(left, right))
        )
    if isinstance(left, float):  # bit for bit: tells -0.0 from 0.0, NaN equals NaN
        return type(left) is type(right) and left.hex() == right.hex()
    return type(left) is type(right) and left == right


def _canonical(outcome: Any) -> str:
    """A sweep outcome's canonical JSON, the byte-identity surface."""
    from repro.fleet.codec import canonical_json, encode

    return canonical_json(encode(outcome.results))


class SweepStore(Workload):
    name = "sweep-store"
    modules = ("repro", "repro.sim.sweep", "repro.store", "repro.engine")

    def build(self, seed: int, workdir: Path) -> dict[str, Any]:
        import numpy as np
        from repro.workloads.synthetic import cyclical_days

        rng = np.random.default_rng(seed)
        traces = []
        for index in range(self.sizes["traces"]):
            base = float(rng.uniform(0.5, 3.0))
            traces.append(
                cyclical_days(
                    days=self.sizes["days"],
                    base_cores=base,
                    peak_cores=base + float(rng.uniform(1.0, 6.0)),
                    spike_cores=float(rng.uniform(6.0, 14.0)),
                    spike_hour=float(rng.uniform(0.0, 23.0)),
                    seed=int(rng.integers(2**31)),
                    name=f"sweep-{index:04d}",
                )
            )
        return {"traces": traces, "workdir": workdir, "passes": 0}

    def run(self, inputs: dict[str, Any]) -> Rep:
        from repro.engine import BatchEngine
        from repro.sim.sweep import run_sweep
        from repro.store import ResultStore

        inputs["passes"] += 1
        root = inputs["workdir"] / f"store-{inputs['passes']}"
        traces = inputs["traces"]
        try:
            start = perf_counter()
            cold = run_sweep(traces, engine=BatchEngine(), store=ResultStore(root))
            middle = perf_counter()
            warm = run_sweep(traces, engine=BatchEngine(), store=ResultStore(root))
            end = perf_counter()
        finally:
            shutil.rmtree(root, ignore_errors=True)
        work = len(traces) * self.sizes["days"] * DAY * 2
        return Rep(
            wall_s=end - start,
            work=work,
            output=(cold, warm),
            phases={"cold_pass_s": middle - start, "warm_pass_s": end - middle},
        )

    def verify(self, inputs: dict[str, Any], rep: Rep) -> tuple[str, list[str]]:
        """Cold == warm == a sweep with no store.

        The no-store sweep runs once per run and its canonical JSON is
        the digest. Each pass is compared with it field by field, arrays
        bit for bit, which implies equal canonical JSON and costs far
        less than serialising every pass.
        """
        if "no_store" not in inputs:
            from repro.engine import BatchEngine
            from repro.sim.sweep import run_sweep

            outcome = run_sweep(inputs["traces"], engine=BatchEngine())
            inputs["no_store"] = (outcome, _sha(_canonical(outcome)))
        oracle, digest = inputs["no_store"]
        problems = []
        for label, outcome in zip(("cold", "warm"), rep.output):
            if not _same(outcome.results, oracle.results):
                problems.append(f"sweep-store {label} pass differs from the no-store sweep")
                digest = _sha(_canonical(outcome))
        return digest, problems


class ServeFleet(Workload):
    name = "serve-fleet"
    modules = ("repro", "repro.serve")
    min_reps = 2  # 120 pooled ticks leave 12 beyond the 90th percentile

    def _harness(self, inputs: dict[str, Any]) -> Any:
        from repro.serve.config import ServeConfig
        from repro.serve.harness import ServeHarness

        inputs["planes"] += 1
        tenants = self.sizes["tenants"]
        # The admission caps of benchmarks/bench_serve_throughput.py; the
        # journal fsyncs every record, as the daemon does by default, and
        # compacts once at the end of each repetition.
        config = ServeConfig(
            queue_capacity=8,
            global_sample_cap=16 * tenants,
            snapshot_interval_ticks=self.sizes["ticks"],
        )
        return ServeHarness(
            tenants,
            config=config,
            state_dir=str(inputs["workdir"] / f"serve-{inputs['planes']}"),
            seed=inputs["seed"],
        )

    def build(self, seed: int, workdir: Path) -> dict[str, Any]:
        inputs: dict[str, Any] = {"seed": seed, "workdir": workdir, "planes": 0}
        self.prepare(inputs)
        return inputs

    def prepare(self, inputs: dict[str, Any]) -> None:
        """A fresh plane and state directory for every repetition."""
        if "ready" not in inputs:
            inputs["ready"] = self._harness(inputs)

    def run(self, inputs: dict[str, Any]) -> Rep:
        harness = inputs.pop("ready")
        plane = harness.plane
        # push_tick drops the admission decisions; keep them so refused
        # samples are counted after each tick's timing, not inside it.
        decisions: list[tuple[dict, dict]] = []
        ingest = plane.ingest_batch

        def keep_decisions(batch: dict) -> dict:
            result = ingest(batch)
            decisions.append((batch, result))
            return result

        plane.ingest_batch = keep_decisions
        offered = refused = 0
        ticks: list[float] = []
        try:
            for _ in range(self.sizes["ticks"]):
                start = perf_counter()
                harness.push_tick(plane.tick)
                plane.step_tick()
                ticks.append(perf_counter() - start)
                for batch, result in decisions:
                    for tenant, samples in batch.items():
                        offered += len(samples)
                        outcome = result[tenant]
                        refused += outcome.shed if outcome.admitted else len(samples)
                decisions.clear()
        finally:
            plane.abandon()  # closes the journal; every record is already durable
            shutil.rmtree(harness.state_dir, ignore_errors=True)
        output = {
            "digest": plane.ledger_digest(),
            "tick": plane.tick,
            "tenants": len(plane.kcn()),
        }
        return Rep(
            wall_s=sum(ticks),
            work=self.sizes["tenants"] * len(ticks),
            output=output,
            ticks_s=ticks,
            offered=offered,
            refused=refused,
        )

    def verify(self, inputs: dict[str, Any], rep: Rep) -> tuple[str, list[str]]:
        problems = []
        if rep.output["tick"] != self.sizes["ticks"]:
            problems.append(f"serve-fleet stopped at tick {rep.output['tick']}")
        if rep.output["tenants"] != self.sizes["tenants"]:
            problems.append(f"serve-fleet served {rep.output['tenants']} tenants")
        return rep.output["digest"], problems


#: Reference shapes; the self-tests build the same workloads smaller.
WORKLOADS: dict[str, tuple[type[Workload], dict[str, int]]] = {
    "cluster-day": (ClusterDay, {"pods": 1000, "minutes": DAY}),
    "tuning-search": (TuningSearch, {"trials": 256, "days": 1}),
    "sweep-store": (SweepStore, {"traces": 256, "days": 1}),
    "serve-fleet": (ServeFleet, {"tenants": 1000, "ticks": 60}),
}


def make_workload(name: str, **sizes: int) -> Workload:
    """The named workload at its reference sizes, with ``sizes`` overrides."""
    cls, default = WORKLOADS[name]
    return cls(**{**default, **sizes})
