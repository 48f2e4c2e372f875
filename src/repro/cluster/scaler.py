"""The scaler entity (Figure 1, steps 5–6).

"A scaler entity polls or subscribes to the decision information,
performs health and resource safety checks, and enacts the decision by
instructing the controller to adjust the resource allocation."

Safety checks enforced before a decision is enacted:

- service guardrails (min/max whole cores, R1),
- node capacity: every replica's new spec must be schedulable,
- set health: no enactment while a rolling update is still in flight,
- cooldown between enacted resizes (availability, metric ``N``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..obs.events import ResizeDeferredEvent
from ..obs.observer import Observer
from .events import EventKind, EventLog
from .operator_ import DbOperator
from .scheduler import Scheduler

__all__ = ["Scaler", "ScalerConfig"]


@dataclass(frozen=True)
class ScalerConfig:
    """Scaler guardrails.

    Parameters
    ----------
    min_cores, max_cores:
        Whole-core bounds ("Database A has a mandatory 2-core minimum").
    cooldown_minutes:
        Minimum minutes between enacted resizes.
    availability_budget:
        Optional hard cap on enacted resizes per rolling
        ``availability_window_minutes``. R3 counts scaling frequency as
        an availability cost ("not all systems can scale without
        downtime; frequent scaling is penalized"); the budget turns that
        penalty into an enforced invariant — a flapping recommender
        cannot burn more downtime than the operator allotted.
    availability_window_minutes:
        The rolling window the budget applies to.
    """

    min_cores: int = 2
    max_cores: int = 64
    cooldown_minutes: int = 0
    availability_budget: int | None = None
    availability_window_minutes: int = 60

    def __post_init__(self) -> None:
        if self.min_cores < 1 or self.max_cores < self.min_cores:
            raise ConfigError(
                f"invalid guardrails: min={self.min_cores}, max={self.max_cores}"
            )
        if self.cooldown_minutes < 0:
            raise ConfigError("cooldown_minutes must be >= 0")
        if self.availability_budget is not None and self.availability_budget < 1:
            raise ConfigError(
                "availability_budget must be None or >= 1, got "
                f"{self.availability_budget}"
            )
        if self.availability_window_minutes < 1:
            raise ConfigError("availability_window_minutes must be >= 1")


class Scaler:
    """Enacts recommender decisions on a stateful set via its operator."""

    def __init__(
        self,
        operator: DbOperator,
        scheduler: Scheduler,
        config: ScalerConfig,
        observer: Observer | None = None,
    ) -> None:
        self.operator = operator
        self.scheduler = scheduler
        self.config = config
        self.observer = observer
        #: Optional fault-injection seam (set by the resilient control
        #: loop): consulted before every enactment so chaos plans can
        #: model a resize API that rejects requests.
        self.faults = None
        self._last_enacted_minute: int | None = None
        self._enacted_minutes: list[int] = []
        self.enacted_count = 0
        self.rejected_count = 0

    def clamp(self, cores: int) -> int:
        """Apply the whole-core guardrails to a decision."""
        return max(self.config.min_cores, min(self.config.max_cores, cores))

    def try_enact(self, target_cores: int, minute: int, events: EventLog) -> bool:
        """Run safety checks and start the resize; returns True if started."""
        target_cores = self.clamp(int(target_cores))
        stateful_set = self.operator.stateful_set
        current = stateful_set.spec
        new_spec = current.with_cores(target_cores)
        if new_spec == current:
            return False

        if self.faults is not None and self.faults.actuation_rejects(minute):
            self._reject(minute, events, target_cores, "fault: resize api rejected")
            return False
        if self.operator.update_in_progress:
            self._reject(minute, events, target_cores, "rolling update in flight")
            return False
        if self._last_enacted_minute is not None and (
            minute - self._last_enacted_minute < self.config.cooldown_minutes
        ):
            self._reject(minute, events, target_cores, "cooldown")
            return False
        if self.config.availability_budget is not None:
            window_start = minute - self.config.availability_window_minutes
            recent = sum(
                1 for enacted in self._enacted_minutes if enacted > window_start
            )
            if recent >= self.config.availability_budget:
                self._reject(
                    minute,
                    events,
                    target_cores,
                    f"availability budget exhausted ({recent} resizes in "
                    f"{self.config.availability_window_minutes} min)",
                )
                return False
        unschedulable = [
            pod.name
            for pod in stateful_set.pods
            if not self.scheduler.can_resize(pod, new_spec)
        ]
        if unschedulable:
            self._reject(
                minute,
                events,
                target_cores,
                f"insufficient node capacity for {unschedulable}",
            )
            return False

        events.record(
            minute,
            EventKind.RESIZE_DECIDED,
            stateful_set.name,
            f"resize {current.limit_cores:.0f} -> {target_cores} cores",
            from_cores=current.limit_cores,
            to_cores=target_cores,
            # Correlates this decision with the rolling update it starts
            # (the operator assigns exactly this id in begin_update), so
            # decided/finished events pair by identity even when updates
            # fail, roll back, or are still in flight at run end.
            update_id=self.operator.next_update_id,
        )
        self.operator.begin_update(new_spec, minute, events)
        self._last_enacted_minute = minute
        self._enacted_minutes.append(minute)
        self.enacted_count += 1
        return True

    def _reject(
        self, minute: int, events: EventLog, target_cores: int, reason: str
    ) -> None:
        self.rejected_count += 1
        events.record(
            minute,
            EventKind.RESIZE_REJECTED,
            self.operator.stateful_set.name,
            f"resize to {target_cores} cores rejected: {reason}",
            to_cores=target_cores,
            reason=reason,
        )
        if self.observer is not None:
            # Deferral reasons double as metric labels; keep the
            # availability-budget/capacity variants to a stable stem so
            # the label space stays bounded.
            label = reason.split(" (")[0].split(" for ")[0]
            # The rejected decision was consulted this same minute, so
            # it is the deferral's causal parent.
            self.observer.emit(
                ResizeDeferredEvent(
                    minute=minute,
                    reason=label,
                    target_cores=target_cores,
                    decided_minute=minute,
                )
            )
