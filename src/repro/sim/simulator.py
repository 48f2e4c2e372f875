"""The trace-driven autoscaling simulator (§5).

Replays the Figure 1 control loop against a static CPU *demand* trace:

1. each minute, cgroup-style capping turns demand into observed usage
   (``usage = min(demand, limits)``) — open loop, unserved demand is lost
   and counted as insufficient CPU;
2. the recommender observes the usage sample;
3. at each decision interval (outside cooldown, with no resize already in
   flight) the recommender is consulted; a changed target schedules a
   resize that takes effect after the configured delay — modelling the
   5–15 minute rolling-update window of §3.1;
4. the three tuning metrics ``K``/``C``/``N`` and the billing total are
   extracted at the end.

"This simulator enables us to [...] simulate autoscaling in scenarios
where the live workload is inaccessible, evaluate against standard
workload traces such as the Alibaba dataset, conduct rapid parameter
tuning, and adjust parameter combinations based on desired slack,
throttling, and scaling frequency."
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from ..baselines.base import Recommender
from ..errors import ConfigError, SimulationError
from ..obs.events import DecisionEvent, ResizeDeferredEvent, ResizeEvent
from ..obs.observer import Observer
from ..obs.spans import span
from ..obs.tracing import simulate_trace_name
from ..trace import CpuTrace
from .billing import BillingModel
from .metrics import SimulationMetrics
from .results import ScalingEvent, SimulationResult

__all__ = ["SimulatorConfig", "simulate_trace"]


@dataclass(frozen=True)
class SimulatorConfig:
    """Environment parameters of a simulated deployment.

    Parameters
    ----------
    initial_cores:
        Limits in force at minute 0.
    min_cores, max_cores:
        Service guardrails enforced by the scaler on every decision
        ("we implemented logic to prevent autoscaling below 2 cores").
    decision_interval_minutes:
        How often the recommender is consulted.
    resize_delay_minutes:
        Minutes between a decision and its effect (rolling update +
        failover; 5–15 for Database A, 3–5 for Database B).
    cooldown_minutes:
        Minimum minutes after an enacted resize before the next decision
        is taken.
    billing:
        The pay-as-you-go billing model applied to the limits series.
    """

    initial_cores: int
    min_cores: int = 1
    max_cores: int = 64
    decision_interval_minutes: int = 10
    resize_delay_minutes: int = 10
    cooldown_minutes: int = 0
    billing: BillingModel = BillingModel()

    def __post_init__(self) -> None:
        if self.min_cores < 1 or self.max_cores < self.min_cores:
            raise ConfigError(
                f"invalid guardrails: min={self.min_cores}, max={self.max_cores}"
            )
        if not self.min_cores <= self.initial_cores <= self.max_cores:
            raise ConfigError(
                f"initial_cores {self.initial_cores} outside "
                f"[{self.min_cores}, {self.max_cores}]"
            )
        if self.decision_interval_minutes < 1:
            raise ConfigError("decision_interval_minutes must be >= 1")
        if self.resize_delay_minutes < 0:
            raise ConfigError("resize_delay_minutes must be >= 0")
        if self.cooldown_minutes < 0:
            raise ConfigError("cooldown_minutes must be >= 0")


def simulate_trace(
    demand: CpuTrace,
    recommender: Recommender,
    config: SimulatorConfig,
    observer: Observer | None = None,
) -> SimulationResult:
    """Replay ``demand`` through ``recommender`` under ``config``.

    Returns the full per-minute series, scaling events and metrics. The
    recommender is *not* reset first — callers own recommender state so
    that warm-started comparisons stay possible.

    ``observer`` (optional) records the full audit trail: one
    :class:`~repro.obs.events.DecisionEvent` per recommender
    consultation, one :class:`~repro.obs.events.ResizeEvent` per enacted
    resize, deferral events for consultations skipped by cooldown or an
    in-flight resize, throttled-minute events, and ``sim_step_seconds``
    timings. Observation never feeds back into the simulation: results
    are identical with and without an observer attached.

    To memoise the run through a result store, call
    :func:`repro.store.memo.cached_simulate` instead.
    """
    minutes = demand.minutes
    demand_series = demand.samples
    usage_series = np.empty(minutes, dtype=float)
    limit_series = np.empty(minutes, dtype=float)

    limit = int(config.initial_cores)
    pending_target: int | None = None
    pending_effective_minute = -1
    last_enacted_minute = -(10**9)
    events: list[ScalingEvent] = []
    pending_decided_minute = -1

    ambient = observer.active() if observer is not None else nullcontext()
    # Open a run-scoped causal trace unless the caller already did; the
    # trace id derives from the demand/recommender names only, so serial
    # and fleet executions of the same run stamp identical ids.
    tracing = (
        observer.trace(simulate_trace_name(demand.name, recommender.name))
        if observer is not None and observer.tracer is None
        else nullcontext()
    )
    with ambient, tracing, span("sim.simulate_trace"):
        for minute in range(minutes):
            step_start = time.perf_counter() if observer is not None else 0.0

            # 1. Enact a pending resize whose delay has elapsed.
            if pending_target is not None and minute >= pending_effective_minute:
                if pending_target != limit:
                    events.append(
                        ScalingEvent(
                            decided_minute=pending_decided_minute,
                            enacted_minute=minute,
                            from_cores=limit,
                            to_cores=pending_target,
                        )
                    )
                    if observer is not None:
                        observer.emit(
                            ResizeEvent(
                                minute=minute,
                                decided_minute=pending_decided_minute,
                                from_cores=limit,
                                to_cores=pending_target,
                            )
                        )
                    limit = pending_target
                    last_enacted_minute = minute
                pending_target = None

            # 2. cgroup capping: observed usage can never exceed limits.
            observed = min(float(demand_series[minute]), float(limit))
            usage_series[minute] = observed
            limit_series[minute] = limit
            recommender.observe(minute, observed, limit)
            if observer is not None:
                observer.sample(
                    minute, float(demand_series[minute]), observed, float(limit)
                )

            # 3. Decision point.
            is_decision_minute = (
                minute > 0 and minute % config.decision_interval_minutes == 0
            )
            in_cooldown = minute - last_enacted_minute < config.cooldown_minutes
            if is_decision_minute and pending_target is None and not in_cooldown:
                consult_start = (
                    time.perf_counter() if observer is not None else 0.0
                )
                target = int(recommender.recommend(minute, limit))
                if target < 1:
                    raise SimulationError(
                        f"{recommender.name} recommended non-positive cores "
                        f"({target}) at minute {minute}"
                    )
                clamped = max(config.min_cores, min(config.max_cores, target))
                if observer is not None:
                    observer.emit(
                        DecisionEvent.from_derivation(
                            minute=minute,
                            recommender=recommender.name,
                            current_cores=limit,
                            raw_target_cores=target,
                            target_cores=clamped,
                            derivation=recommender.last_decision,
                            window_stats=recommender.window_stats(),
                            elapsed_seconds=time.perf_counter() - consult_start,
                        )
                    )
                target = clamped
                if target != limit:
                    pending_target = target
                    pending_decided_minute = minute
                    pending_effective_minute = (
                        minute + config.resize_delay_minutes
                    )
            elif is_decision_minute and observer is not None:
                # The deferral's causal parent is the decision whose
                # resize is in flight (or whose enactment started the
                # cooldown window) — pending_decided_minute tracks it
                # in both cases.
                observer.emit(
                    ResizeDeferredEvent(
                        minute=minute,
                        reason="resize in flight"
                        if pending_target is not None
                        else "cooldown",
                        target_cores=pending_target,
                        decided_minute=pending_decided_minute
                        if pending_decided_minute >= 0
                        else None,
                    )
                )

            if observer is not None:
                observer.step_seconds(time.perf_counter() - step_start)

    price = config.billing.price(limit_series)
    metrics = SimulationMetrics.from_series(
        demand_series, usage_series, limit_series, len(events), price
    )
    return SimulationResult(
        name=recommender.name,
        demand=demand_series.copy(),
        usage=usage_series,
        limits=limit_series,
        events=tuple(events),
        metrics=metrics,
    )
