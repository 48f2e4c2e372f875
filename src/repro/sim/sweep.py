"""Multi-trace evaluation sweeps.

The tool a downstream operator actually wants: "run this autoscaler
configuration over *my* fleet's traces and show me the Table-3-style
summary". Generalizes the §6.3 workflow (per-trace tuning optional) to
any set of named demand traces — the built-in paper library, Alibaba CSV
ingests, or arbitrary `CpuTrace`s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from ..analysis.tables import format_table
from ..baselines.base import Recommender
from ..core.config import CaasperConfig
from ..core.recommender import CaasperRecommender
from ..errors import ConfigError, SimulationError
from ..obs.observer import Observer
from ..obs.spans import span
from ..trace import CpuTrace
from .billing import BillingModel
from .results import SimulationResult
from .simulator import SimulatorConfig

# Unused here since the sweep memoises through ``cached_simulate``; kept
# as a module-level name because ``perfbench/layers.py`` resolves its
# ``sim.simulate_trace`` hook target on this module.
from .simulator import simulate_trace  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.batch import BatchEngine
    from ..fleet.runner import FleetRunner
    from ..store.cas import ResultStore

__all__ = ["SweepConfig", "SweepOutcome", "run_sweep", "sweep_entry"]

#: Builds a fresh recommender per trace (recommenders are stateful).
RecommenderFactory = Callable[[CpuTrace], Recommender]


@dataclass(frozen=True)
class SweepConfig:
    """Environment shared by every trace in a sweep.

    Parameters
    ----------
    min_cores:
        Guardrail floor applied everywhere.
    headroom_factor:
        Per-trace ceiling: ``max_cores = ceil(peak × headroom_factor)``
        (the §6.3 "instance max sizes" rule), floored at ``min_cores+1``.
    decision_interval_minutes, resize_delay_minutes:
        Control-loop cadence and resize latency.
    billing:
        Pay-as-you-go model.
    """

    min_cores: int = 1
    headroom_factor: float = 1.3
    decision_interval_minutes: int = 10
    resize_delay_minutes: int = 5
    billing: BillingModel = BillingModel()

    def __post_init__(self) -> None:
        if self.min_cores < 1:
            raise SimulationError("min_cores must be >= 1")
        if self.headroom_factor < 1.0:
            raise SimulationError("headroom_factor must be >= 1")

    def simulator_for(self, trace: CpuTrace) -> SimulatorConfig:
        """Per-trace simulator environment."""
        max_cores = max(
            self.min_cores + 1, int(math.ceil(trace.peak() * self.headroom_factor))
        )
        initial = min(
            max_cores,
            max(self.min_cores, int(math.ceil(trace.samples[: 60].mean()))),
        )
        return SimulatorConfig(
            initial_cores=initial,
            min_cores=self.min_cores,
            max_cores=max_cores,
            decision_interval_minutes=self.decision_interval_minutes,
            resize_delay_minutes=self.resize_delay_minutes,
            billing=self.billing,
        )


@dataclass(frozen=True)
class SweepOutcome:
    """Per-trace results of one sweep, keyed by trace name."""

    results: Mapping[str, SimulationResult]

    def table(self) -> str:
        """The Table-3-style summary across all traces."""
        rows = []
        for name in sorted(self.results):
            metrics = self.results[name].metrics
            rows.append(
                [
                    name,
                    metrics.average_slack,
                    metrics.num_scalings,
                    metrics.average_insufficient_cpu,
                    metrics.throttled_observation_pct,
                    metrics.price,
                ]
            )
        return format_table(
            [
                "workload",
                "avg_slack",
                "num_scalings",
                "avg_insuff_cpu",
                "throttled_obs_%",
                "price",
            ],
            rows,
        )

    def aggregate(self) -> dict[str, float]:
        """Fleet-level means of the Table 3 columns."""
        results = list(self.results.values())
        if not results:
            raise SimulationError("empty sweep")
        n = len(results)
        return {
            "traces": float(n),
            "mean_avg_slack": sum(
                r.metrics.average_slack for r in results
            ) / n,
            "mean_avg_insufficient_cpu": sum(
                r.metrics.average_insufficient_cpu for r in results
            ) / n,
            "mean_throttled_obs_pct": sum(
                r.metrics.throttled_observation_pct for r in results
            ) / n,
            "mean_scalings": sum(
                r.metrics.num_scalings for r in results
            ) / n,
            "total_price": sum(r.metrics.price for r in results),
        }


def default_recommender_factory(
    base: CaasperConfig | None = None,
    config: SweepConfig | None = None,
) -> RecommenderFactory:
    """CaaSPER with the per-trace ceiling wired into its config.

    The recommender's ceiling follows the *sweep's* sizing rule —
    ``max(min_cores + 1, ceil(peak × headroom_factor))`` — so the
    recommender and the simulator guardrails always agree, including for
    non-default :class:`SweepConfig` values (this used to hardcode the
    default ``1.3`` headroom and a floor of 2).
    """
    base = base or CaasperConfig()
    sweep = config or SweepConfig()

    def factory(trace: CpuTrace) -> Recommender:
        max_cores = max(
            sweep.min_cores + 1,
            int(math.ceil(trace.peak() * sweep.headroom_factor)),
        )
        recommender_config = base.with_updates(
            max_cores=max_cores, c_min=min(base.c_min, max_cores)
        )
        return CaasperRecommender(recommender_config)

    return factory


def sweep_entry(name: str, result: SimulationResult) -> SimulationResult:
    """One run as a sweep records it: renamed to ``name``, no ``detail``.

    Every sweep path (serial, engine, fleet) normalises through this, so
    their outcomes compare equal field for field.
    """
    return SimulationResult(
        name=name,
        demand=result.demand,
        usage=result.usage,
        limits=result.limits,
        events=result.events,
        metrics=result.metrics,
    )


def run_sweep(
    traces: Sequence[CpuTrace],
    config: SweepConfig | None = None,
    recommender_factory: RecommenderFactory | None = None,
    observer: Observer | None = None,
    executor: "FleetRunner | None" = None,
    store: "ResultStore | None" = None,
    engine: "BatchEngine | None" = None,
) -> SweepOutcome:
    """Evaluate one recommender family over many traces.

    Parameters
    ----------
    traces:
        Demand traces; names must be unique (they key the outcome).
    config:
        Shared environment (default :class:`SweepConfig`).
    recommender_factory:
        ``trace -> Recommender`` builder; defaults to CaaSPER with a
        per-trace core ceiling.
    observer:
        Optional telemetry sink shared across every per-trace run; each
        trace additionally gets a ``sweep.trace.<name>`` timing span.
        With an ``executor`` the runner is bound to this observer
        (worker telemetry replays into it in plan order), overriding
        any observer the runner was constructed with.
    executor:
        Optional :class:`~repro.fleet.runner.FleetRunner` to shard the
        per-trace simulations across worker processes. ``None`` (the
        default) runs serially in-process; the parallel outcome is
        bit-identical to the serial one for any worker count.
    store:
        Optional :class:`~repro.store.cas.ResultStore` memoising the
        per-trace simulations. Previously computed traces short-circuit
        (byte-identical decoded results); with an ``executor`` the
        runner is rebound to this store and hits skip process dispatch
        entirely. ``store=None`` is exactly the uncached behaviour.
    engine:
        Optional :class:`~repro.engine.batch.BatchEngine` stepping every
        engine-eligible trace in one vectorized batch (byte-identical
        results, see ``docs/ENGINE.md``). Only used on the serial
        in-process path — an ``executor`` runs one scalar job per trace
        instead. Ineligible recommenders fall back per trace. Passing
        an ``observer`` too raises :class:`~repro.errors.ConfigError`:
        per-minute telemetry and per-trace spans need the scalar loop.
    """
    if not traces:
        raise SimulationError("sweep needs at least one trace")
    names = [trace.name for trace in traces]
    if len(set(names)) != len(names):
        raise SimulationError(f"duplicate trace names in sweep: {names}")
    if engine is not None and observer is not None:
        raise ConfigError("run_sweep: engine= and observer= cannot be combined")
    config = config or SweepConfig()
    factory = recommender_factory or default_recommender_factory(config=config)

    if executor is not None:
        from ..fleet.plans import sweep_outcome, sweep_plan

        if observer is not None:
            executor = executor.with_observer(observer)
        if store is not None:
            executor = executor.with_store(store)
        plan = sweep_plan(
            traces, config=config, recommender_factory=factory
        )
        return sweep_outcome(executor.run(plan).require_success())

    from ..store.memo import cached_simulate

    results: dict[str, SimulationResult] = {}
    if engine is not None:
        from ..engine.jobs import engine_job_for

        jobs = []
        job_names: list[str] = []
        for trace in traces:
            recommender = factory(trace)
            job = engine_job_for(trace, recommender, config.simulator_for(trace))
            if job is not None:
                jobs.append(job)
                job_names.append(trace.name)
            else:
                results[trace.name] = cached_simulate(
                    trace, recommender, config.simulator_for(trace), store=store
                )
        for name, result in zip(job_names, engine.run(jobs, store=store)):
            results[name] = result
        return SweepOutcome(
            results={
                trace.name: sweep_entry(trace.name, results[trace.name])
                for trace in traces
            }
        )

    for trace in traces:
        recommender = factory(trace)
        if observer is not None:
            with observer.active(), span(f"sweep.trace.{trace.name}"):
                result = cached_simulate(
                    trace,
                    recommender,
                    config.simulator_for(trace),
                    observer,
                    store=store,
                )
        else:
            result = cached_simulate(
                trace, recommender, config.simulator_for(trace), store=store
            )
        results[trace.name] = sweep_entry(trace.name, result)
    return SweepOutcome(results=results)
