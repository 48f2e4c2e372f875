"""Plan builders bridging the fleet runner to the existing runners.

These helpers translate the repo's three batch workloads — multi-trace
sweeps (:mod:`repro.sim.sweep`), tuning searches (:mod:`repro.tuning`)
and chaos scenario runs (:mod:`repro.faults`) — into
:class:`~repro.fleet.jobs.FleetPlan`\\ s, and translate fleet outcomes
back into the outcome types those runners already produce. They are
the one way to fan a batch out across processes. The round trip is
exact: ``sweep_outcome(runner.run(sweep_plan(traces)))`` equals
``run_sweep(traces)`` bit-for-bit, and
``trial_outcome(runner.run(trial_plan(configs, demand, simulator)))``
equals the serial search over the same configs.
"""

from __future__ import annotations

from typing import Sequence

from ..core.config import CaasperConfig
from ..errors import FleetError
from ..sim.results import SimulationResult
from ..sim.simulator import SimulatorConfig
from ..sim.sweep import (
    RecommenderFactory,
    SweepConfig,
    SweepOutcome,
    default_recommender_factory,
    sweep_entry,
)
from ..trace import CpuTrace
from ..tuning.search import SearchOutcome, TrialResult
from .jobs import ChaosJob, FleetPlan, SimulateJob, TrialJob
from .runner import FleetOutcome

__all__ = ["sweep_plan", "sweep_outcome", "trial_plan", "trial_outcome", "chaos_plan"]


def sweep_plan(
    traces: Sequence[CpuTrace],
    config: SweepConfig | None = None,
    recommender_factory: RecommenderFactory | None = None,
    name: str = "sweep",
    seed: int = 0,
) -> FleetPlan:
    """One :class:`~repro.fleet.jobs.SimulateJob` per trace.

    Job ids are the trace names (unique by :func:`~repro.sim.sweep
    .run_sweep`'s own contract), so journals and progress events read
    naturally. Recommenders are built parent-side by the factory —
    exactly as the serial sweep does — and travel to workers by pickle.
    """
    config = config or SweepConfig()
    factory = recommender_factory or default_recommender_factory(config=config)
    jobs = tuple(
        SimulateJob(
            job_id=trace.name,
            trace=trace,
            recommender=factory(trace),
            simulator=config.simulator_for(trace),
        )
        for trace in traces
    )
    return FleetPlan(jobs=jobs, name=name, seed=seed)


def sweep_outcome(outcome: FleetOutcome) -> SweepOutcome:
    """Merge a sweep plan's fleet outcome into a :class:`SweepOutcome`.

    Applies the serial sweep's normalisation
    (:func:`~repro.sim.sweep.sweep_entry`), so serial and fleet sweeps
    compare equal field-for-field.
    """
    results: dict[str, SimulationResult] = {}
    for job_id, result in outcome.results().items():
        if not isinstance(result, SimulationResult):
            raise FleetError(
                f"job {job_id!r} did not return a SimulationResult "
                f"(got {type(result).__name__}); was this a sweep plan?"
            )
        results[job_id] = sweep_entry(job_id, result)
    return SweepOutcome(results=results)


def trial_plan(
    configs: Sequence[CaasperConfig],
    demand: CpuTrace,
    simulator: SimulatorConfig,
    name: str = "trial",
    seed: int = 0,
) -> FleetPlan:
    """One :class:`~repro.fleet.jobs.TrialJob` per tuning config.

    Job ids are positional (``<name>-00042``), so the merged trials keep
    the order of ``configs`` — the order a serial
    :class:`~repro.tuning.search.RandomSearch` or
    :class:`~repro.tuning.grid.GridSearch` run produces.
    """
    jobs = tuple(
        TrialJob(
            job_id=f"{name}-{index:05d}",
            config=config,
            demand=demand,
            simulator=simulator,
        )
        for index, config in enumerate(configs)
    )
    return FleetPlan(jobs=jobs, name=name, seed=seed)


def trial_outcome(outcome: FleetOutcome) -> SearchOutcome:
    """Merge a trial plan's fleet outcome into a :class:`SearchOutcome`,
    trials in plan (config) order."""
    trials: list[TrialResult] = []
    for job_id, trial in outcome.results().items():
        if not isinstance(trial, TrialResult):
            raise FleetError(
                f"job {job_id!r} did not return a TrialResult "
                f"(got {type(trial).__name__}); was this a trial plan?"
            )
        trials.append(trial)
    return SearchOutcome(trials=tuple(trials))


def chaos_plan(
    traces: Sequence[CpuTrace],
    scenario: str = "kitchen-sink",
    recommender_config: CaasperConfig | None = None,
    name: str = "chaos",
    seed: int = 0,
) -> FleetPlan:
    """One hardened live-loop run per trace under a chaos scenario.

    Each job's fault seed derives from the plan seed and the trace name,
    so the same plan injects the same faults on every replay while
    different traces see independent fault streams.
    """
    recommender_config = recommender_config or CaasperConfig(
        c_min=2, max_cores=16
    )
    jobs = tuple(
        ChaosJob(
            job_id=trace.name,
            trace=trace,
            scenario=scenario,
            recommender_config=recommender_config,
        )
        for trace in traces
    )
    return FleetPlan(jobs=jobs, name=name, seed=seed)
