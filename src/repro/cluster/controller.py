"""The end-to-end control loop of Figure 1.

Wires the numbered components together for one managed database:

  target application (0) → controller/operator (1) → metrics server (2)
  → recommender (3) → decision (4) → scaler (5) → enactment (6)

One :meth:`ControlLoop.step` call advances everything by one minute.
The loop keeps no sample store of its own: the recommender holds the
window it decides on, and an attached observer's metrics registry is
the metrics server of step (2) — it exposes the latest usage and
allocation per target to scrapers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..baselines.base import Recommender
from ..db.service import DBaaSService, ServiceMinute
from ..errors import ConfigError
from ..obs.events import DecisionEvent
from ..obs.observer import Observer
from ..trace import validate_usage_sample
from .events import EventLog
from .scaler import Scaler, ScalerConfig

__all__ = ["ControlLoop", "ControlLoopConfig"]


@dataclass(frozen=True)
class ControlLoopConfig:
    """Control-loop cadence and guardrails.

    Parameters
    ----------
    decision_interval_minutes:
        How often the recommender is consulted.
    scaler:
        Scaler guardrails (min/max cores, cooldown).
    """

    decision_interval_minutes: int = 10
    scaler: ScalerConfig = ScalerConfig()

    def __post_init__(self) -> None:
        if self.decision_interval_minutes < 1:
            raise ConfigError("decision_interval_minutes must be >= 1")


class ControlLoop:
    """One autoscaled database deployment, stepped minute by minute."""

    def __init__(
        self,
        service: DBaaSService,
        recommender: Recommender,
        config: ControlLoopConfig,
        events: EventLog | None = None,
        observer: Observer | None = None,
    ) -> None:
        self.service = service
        self.recommender = recommender
        self.config = config
        self.observer = observer
        self.events = events if events is not None else service.events
        self.scaler = Scaler(
            service.operator, service.scheduler, config.scaler, observer=observer
        )
        self._target_name = service.stateful_set.name
        # The operator reports resize enactment (rolling update finished),
        # closing the decide→enact latency loop in the audit trail.
        if observer is not None:
            service.operator.observer = observer

    def step(self, minute: int, demand_cores: float) -> ServiceMinute:
        """Advance the loop by one minute under the given client demand."""
        observer = self.observer
        step_start = time.perf_counter() if observer is not None else 0.0
        outcome = self.service.step(minute, demand_cores)

        # (1)→(2): the controller publishes primary usage + allocation.
        self._publish(outcome.primary_usage_cores, outcome.client_limit_cores)
        # (2)→(3): the recommender reads the fresh sample.
        self.recommender.observe(
            minute,
            outcome.primary_usage_cores,
            int(round(outcome.client_limit_cores)),
        )
        if observer is not None:
            observer.sample(
                minute,
                demand_cores,
                outcome.primary_usage_cores,
                outcome.client_limit_cores,
            )

        # (3)→(6): periodic decision, safety-checked and enacted.
        if self._is_decision_minute(minute):
            current = int(round(outcome.client_limit_cores))
            target = self._consult(minute, current)
            self.scaler.try_enact(target, minute, self.events)

        if observer is not None:
            observer.step_seconds(time.perf_counter() - step_start)
        return outcome

    def _publish(self, usage_cores: float, limit_cores: float) -> None:
        """Validate one sample and expose it on the observer's registry.

        NaN, infinite or negative usage raises
        :class:`~repro.errors.TraceError` instead of silently poisoning
        the recommender's window. (The resilient loop pre-validates and
        routes corrupt samples to safe-mode before they get here.)
        """
        target = self._target_name
        usage_cores = validate_usage_sample(
            usage_cores, context=f"metrics server target {target!r}"
        )
        if self.observer is None:
            return
        registry = self.observer.metrics
        registry.gauge(
            "metrics_server_usage_cores",
            "Latest published CPU usage per target",
            labelnames=("target",),
        ).set(usage_cores, target=target)
        registry.gauge(
            "metrics_server_limit_cores",
            "Latest published CPU limit per target",
            labelnames=("target",),
        ).set(limit_cores, target=target)
        registry.counter(
            "metrics_server_samples_total",
            "Samples published to the metrics server",
            labelnames=("target",),
        ).inc(target=target)

    def _is_decision_minute(self, minute: int) -> bool:
        """True when the recommender is consulted this minute."""
        return minute > 0 and minute % self.config.decision_interval_minutes == 0

    def _consult(self, minute: int, current: int) -> int:
        """One recommender consultation, with its decision-event audit.

        Returns the raw (pre-guardrail) target; shared with
        :class:`~repro.cluster.resilience.ResilientControlLoop`, which
        wraps this call in its component-quarantine protection.
        """
        observer = self.observer
        consult_start = time.perf_counter() if observer is not None else 0.0
        target = int(self.recommender.recommend(minute, max(current, 1)))
        if observer is not None:
            observer.emit(
                DecisionEvent.from_derivation(
                    minute=minute,
                    recommender=self.recommender.name,
                    current_cores=current,
                    raw_target_cores=target,
                    target_cores=self.scaler.clamp(target),
                    derivation=self.recommender.last_decision,
                    window_stats=self.recommender.window_stats(),
                    elapsed_seconds=time.perf_counter() - consult_start,
                )
            )
        return target
