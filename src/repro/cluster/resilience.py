"""Hardened control plane: the degradation ladder around Figure 1.

The plain :class:`~repro.cluster.controller.ControlLoop` assumes its
inputs are trustworthy and its actuations land. Production (§2.2) offers
neither: exporters freeze, resize APIs throttle, pod restarts wedge,
recommender processes crash. :class:`ResilientControlLoop` extends the
loop with four defenses, ordered from least to most invasive:

1. **Telemetry safe-mode** — corrupt samples (dropped, NaN, negative,
   injected-stale) never reach the metrics server or the recommender;
   the loop holds the last allocation and counts the dwell time.
2. **Actuation retry** — a rejected enactment is retried with
   exponential backoff plus deterministic jitter until a per-decision
   deadline abandons it (the next consultation supersedes it anyway).
3. **Rollout watchdog** — a rolling update stuck past a timeout is
   aborted and rolled back to the previous known-healthy spec via
   :meth:`~repro.cluster.operator_.DbOperator.abort_update`.
4. **Component quarantine** — a consultation that raises a
   :class:`~repro.errors.ReproError` degrades to hold-last-allocation
   instead of crashing the loop; forecaster failures keep degrading
   through the paper's §4.3 ``ForecastError`` → reactive rule.

Every degradation emits a typed event (:mod:`repro.obs.events`) and
advances a metric, so a chaos run's audit trail shows each injected
fault next to the defense that absorbed it. With ``faults=None`` and a
default :class:`ResilienceConfig`, behaviour differs from the plain loop
only when an enactment is rejected (the retry path) — fault-free happy
paths are bit-identical.

All retry jitter derives from ``ResilienceConfig.seed`` through
throwaway :class:`random.Random` instances, never a shared stream, so a
seeded chaos run replays to an identical event trail.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, TypeVar

from ..baselines.base import Recommender
from ..db.service import DBaaSService, ServiceMinute
from ..errors import ConfigError, ReproError
from ..obs.events import QuarantineEvent, RetryEvent, RollbackEvent, SafeModeEvent
from ..obs.observer import Observer
from .controller import ControlLoop, ControlLoopConfig
from .events import EventLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.injection import FaultInjector

__all__ = ["ResilienceConfig", "ResilientControlLoop", "RetryPolicy"]

_T = TypeVar("_T")


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with bounded jitter for rejected enactments.

    The deterministic part of the delay for retry ``attempt`` (1-based)
    is ``min(base_delay_minutes * multiplier**(attempt-1),
    max_delay_minutes)`` — monotone non-decreasing in ``attempt``.
    Jitter then stretches it by a seeded factor in
    ``[1, 1 + jitter_fraction]``, so concurrent loops never synchronise
    their retries while a given seed still replays exactly.

    Parameters
    ----------
    base_delay_minutes:
        Delay before the first retry.
    multiplier:
        Backoff growth factor per attempt.
    max_delay_minutes:
        Cap on the deterministic delay.
    jitter_fraction:
        Upper bound of the multiplicative jitter (0 disables it).
    deadline_minutes:
        A decision older than this is abandoned rather than retried —
        by then fresher consultations describe the workload better.
    max_total_delay_minutes:
        Optional cap on the *cumulative* delay across attempts. A
        supervisor reusing this policy for restart backoff passes the
        minutes already spent waiting; once the budget is exhausted the
        delay collapses to zero so a misconfigured policy (huge
        multiplier, huge per-attempt cap) can never stall a tenant
        restart forever. ``None`` leaves backoff unbounded in total.
    """

    base_delay_minutes: float = 1.0
    multiplier: float = 2.0
    max_delay_minutes: float = 8.0
    jitter_fraction: float = 0.25
    deadline_minutes: int = 30
    max_total_delay_minutes: float | None = None

    def __post_init__(self) -> None:
        if self.base_delay_minutes <= 0:
            raise ConfigError(
                f"base_delay_minutes must be > 0, got {self.base_delay_minutes}"
            )
        if self.multiplier < 1.0:
            raise ConfigError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if self.max_delay_minutes < self.base_delay_minutes:
            raise ConfigError(
                "max_delay_minutes must be >= base_delay_minutes, got "
                f"{self.max_delay_minutes}"
            )
        if self.jitter_fraction < 0:
            raise ConfigError(
                f"jitter_fraction must be >= 0, got {self.jitter_fraction}"
            )
        if self.deadline_minutes < 1:
            raise ConfigError(
                f"deadline_minutes must be >= 1, got {self.deadline_minutes}"
            )
        if (
            self.max_total_delay_minutes is not None
            and self.max_total_delay_minutes <= 0
        ):
            raise ConfigError(
                "max_total_delay_minutes must be > 0 or None, got "
                f"{self.max_total_delay_minutes}"
            )

    def backoff_minutes(self, attempt: int) -> float:
        """Deterministic (pre-jitter) delay for 1-based ``attempt``."""
        if attempt < 1:
            raise ConfigError(f"attempt must be >= 1, got {attempt}")
        return min(
            self.base_delay_minutes * self.multiplier ** (attempt - 1),
            self.max_delay_minutes,
        )

    def delay_minutes(
        self, attempt: int, key: int = 0, spent_minutes: float = 0.0
    ) -> float:
        """Jittered delay for ``attempt``; pure in ``(attempt, key)``.

        ``key`` folds in whatever identifies the retry stream (the
        resilience seed and the decision minute), so each decision's
        backoff sequence is independent yet replayable.

        ``spent_minutes`` is the cumulative delay already consumed by
        earlier attempts of the same stream. When
        ``max_total_delay_minutes`` is set, the returned delay is
        clamped so ``spent + delay`` never exceeds the budget — an
        exhausted budget yields ``0.0`` (retry immediately).
        """
        base = self.backoff_minutes(attempt)
        if self.jitter_fraction > 0:
            unit = random.Random(int(key) * 1_000_003 + attempt).random()
            base *= 1.0 + self.jitter_fraction * unit
        if self.max_total_delay_minutes is not None:
            remaining = self.max_total_delay_minutes - spent_minutes
            base = min(base, max(0.0, remaining))
        return base


@dataclass(frozen=True)
class ResilienceConfig:
    """Tunables of the hardened loop.

    Parameters
    ----------
    retry:
        Backoff policy for rejected enactments.
    watchdog_timeout_minutes:
        A rolling update still in flight after this many minutes is
        judged stuck and rolled back. Must comfortably exceed the
        longest healthy rollout (replicas × restart minutes).
    seed:
        Root of all retry jitter; a fixed seed makes runs replayable.
    """

    retry: RetryPolicy = RetryPolicy()
    watchdog_timeout_minutes: int = 30
    seed: int = 0

    def __post_init__(self) -> None:
        if self.watchdog_timeout_minutes < 1:
            raise ConfigError(
                "watchdog_timeout_minutes must be >= 1, got "
                f"{self.watchdog_timeout_minutes}"
            )


@dataclass
class _PendingDecision:
    """One rejected decision awaiting its next retry attempt."""

    target_cores: int
    decided_minute: int
    attempt: int
    next_attempt_minute: int


class ResilientControlLoop(ControlLoop):
    """The Figure 1 loop wrapped in the degradation ladder.

    Parameters
    ----------
    resilience:
        Hardening tunables (defaults are production-shaped).
    faults:
        Optional bound :class:`~repro.faults.injection.FaultInjector`.
        When present it is threaded through every substrate seam: the
        scaler (resize rejections), the operator (restart durations),
        the nodes (capacity pressure), the telemetry path and — via
        :meth:`~repro.faults.injection.FaultInjector.bind` — the
        proactive window builder's forecast gate.
    """

    def __init__(
        self,
        service: DBaaSService,
        recommender: Recommender,
        config: ControlLoopConfig,
        events: EventLog | None = None,
        observer: Observer | None = None,
        resilience: ResilienceConfig | None = None,
        faults: "FaultInjector | None" = None,
    ) -> None:
        super().__init__(
            service, recommender, config, events=events, observer=observer
        )
        self.resilience = resilience or ResilienceConfig()
        self.faults = faults
        self.safe_mode = False
        self._safe_mode_entered_minute = 0
        self._pending: _PendingDecision | None = None
        self.safe_mode_minutes = 0
        self.safe_mode_entries = 0
        self.safe_mode_exits = 0
        self.retries_scheduled = 0
        self.retries_succeeded = 0
        self.retries_abandoned = 0
        self.rollbacks = 0
        self.quarantined_consults = 0
        self.quarantine_exits = 0
        self.forecaster_degradations = 0
        self._quarantine_streak = 0
        if faults is not None:
            self.scaler.faults = faults
            service.operator.faults = faults
            faults.bind(
                nodes=service.scheduler.nodes,
                observer=observer,
                recommender=recommender,
            )

    # -- the hardened minute -----------------------------------------------------

    def step(self, minute: int, demand_cores: float) -> ServiceMinute:
        """Advance one minute, absorbing whatever breaks along the way."""
        observer = self.observer
        step_start = time.perf_counter() if observer is not None else 0.0
        if self.faults is not None:
            self.faults.tick(minute, self.events)
        outcome = self.service.step(minute, demand_cores)
        self._watchdog(minute)

        usage: float | None = outcome.primary_usage_cores
        fault_label: str | None = None
        if self.faults is not None:
            usage, fault_label = self.faults.telemetry(minute, usage)
        healthy = (
            fault_label is None
            and usage is not None
            and math.isfinite(usage)
            and usage >= 0
        )
        if healthy:
            self._exit_safe_mode(minute)
            self._publish(usage, outcome.client_limit_cores)
            self.recommender.observe(
                minute, usage, int(round(outcome.client_limit_cores))
            )
        else:
            self._hold_safe_mode(minute, fault_label or "invalid telemetry sample")
        if observer is not None:
            # Ground truth for the K/C accounting — the simulation knows
            # the real usage even when the control plane's telemetry lied.
            observer.sample(
                minute,
                demand_cores,
                outcome.primary_usage_cores,
                outcome.client_limit_cores,
            )

        # Safe-mode holds the last allocation: no consultations, no
        # retries, until telemetry recovers.
        if not self.safe_mode:
            if self._is_decision_minute(minute):
                self._decide(minute, outcome)
            else:
                self._retry_pending(minute)

        if observer is not None:
            observer.step_seconds(time.perf_counter() - step_start)
        return outcome

    # -- telemetry safe-mode -----------------------------------------------------

    def _hold_safe_mode(self, minute: int, reason: str) -> None:
        self.safe_mode_minutes += 1
        if not self.safe_mode:
            self.safe_mode = True
            self.safe_mode_entries += 1
            self._safe_mode_entered_minute = minute
            if self.observer is not None:
                self.observer.emit(
                    SafeModeEvent(minute=minute, reason=reason, action="enter")
                )
        elif self.observer is not None:
            self.observer.update_metrics(
                SafeModeEvent(minute=minute, reason=reason, action="hold")
            )

    def _exit_safe_mode(self, minute: int) -> None:
        if not self.safe_mode:
            return
        self.safe_mode = False
        self.safe_mode_exits += 1
        if self.observer is not None:
            self.observer.emit(
                SafeModeEvent(
                    minute=minute,
                    reason="telemetry recovered",
                    action="exit",
                    minutes_in_safe_mode=minute - self._safe_mode_entered_minute,
                )
            )

    # -- decisions, quarantine and retry ------------------------------------------

    def _decide(self, minute: int, outcome: ServiceMinute) -> None:
        current = int(round(outcome.client_limit_cores))
        target = self._guard_consult(minute, lambda: self._consult(minute, current))
        if target is not None:
            self.enact(minute, target)

    def _guard_consult(self, minute: int, consult: Callable[[], _T]) -> _T | None:
        """The consult half of a decision: ``consult()`` behind quarantine.

        Returns ``None`` when the recommender failed (an injected fault
        or a :class:`~repro.errors.ReproError` from ``consult``): the
        minute degrades to hold-last-allocation. A forecaster fault that
        fired inside the consult is counted here; the consult itself
        already fell back to the reactive window.
        """
        try:
            if self.faults is not None:
                self.faults.maybe_fail(minute, "recommender")
            result = consult()
        except ReproError as exc:
            self.quarantined_consults += 1
            self._quarantine_streak += 1
            if self.observer is not None:
                self.observer.emit(
                    QuarantineEvent(
                        minute=minute,
                        component="recommender",
                        error=str(exc),
                        degraded_to="hold",
                    )
                )
            return None
        if self.faults is not None and self.faults.consume_forecaster_fire():
            self.forecaster_degradations += 1
            if self.observer is not None:
                self.observer.emit(
                    QuarantineEvent(
                        minute=minute,
                        component="forecaster",
                        error="injected forecast failure",
                        degraded_to="reactive",
                    )
                )
        return result

    def enact(self, minute: int, target: int) -> None:
        """The enact half of a decision: act on a consult that landed.

        Counts a quarantine exit, drops any queued retry, and hands the
        raw target to the scaler; a rejected target is retried.
        """
        # The consult landed: a previously-quarantined recommender has
        # recovered, which the summary reports as a quarantine exit.
        if self._quarantine_streak > 0:
            self._quarantine_streak = 0
            self.quarantine_exits += 1
        # A fresh decision supersedes whatever older target was queued.
        self._pending = None
        if self.scaler.try_enact(target, minute, self.events):
            return
        clamped = self.scaler.clamp(target)
        declared = int(round(self.service.stateful_set.spec.limit_cores))
        if clamped == declared:
            return  # no-op decision, nothing was rejected
        self._schedule_retry(minute, clamped, minute, prior_attempts=0)

    def _schedule_retry(
        self,
        minute: int,
        target_cores: int,
        decided_minute: int,
        prior_attempts: int,
    ) -> None:
        policy = self.resilience.retry
        attempt = prior_attempts + 1
        delay = policy.delay_minutes(
            attempt, key=self.resilience.seed * 1_000_003 + decided_minute
        )
        self._pending = _PendingDecision(
            target_cores=target_cores,
            decided_minute=decided_minute,
            attempt=attempt,
            next_attempt_minute=minute + max(1, math.ceil(delay)),
        )
        self.retries_scheduled += 1
        if self.observer is not None:
            self.observer.emit(
                RetryEvent(
                    minute=minute,
                    target_cores=target_cores,
                    attempt=attempt,
                    outcome="scheduled",
                    delay_minutes=delay,
                    decided_minute=decided_minute,
                )
            )

    def _retry_pending(self, minute: int) -> None:
        pending = self._pending
        if pending is None:
            return
        policy = self.resilience.retry
        if minute - pending.decided_minute >= policy.deadline_minutes:
            self._pending = None
            self.retries_abandoned += 1
            if self.observer is not None:
                self.observer.emit(
                    RetryEvent(
                        minute=minute,
                        target_cores=pending.target_cores,
                        attempt=pending.attempt,
                        outcome="abandoned",
                        decided_minute=pending.decided_minute,
                    )
                )
            return
        if minute < pending.next_attempt_minute:
            return
        declared = int(round(self.service.stateful_set.spec.limit_cores))
        if pending.target_cores == declared:
            # The allocation caught up by other means (e.g. an update
            # already rolling out this spec); the retry is satisfied.
            self._pending = None
            return
        if self.scaler.try_enact(pending.target_cores, minute, self.events):
            self.retries_succeeded += 1
            if self.observer is not None:
                self.observer.emit(
                    RetryEvent(
                        minute=minute,
                        target_cores=pending.target_cores,
                        attempt=pending.attempt,
                        outcome="succeeded",
                        decided_minute=pending.decided_minute,
                    )
                )
            self._pending = None
            return
        self._schedule_retry(
            minute,
            pending.target_cores,
            pending.decided_minute,
            prior_attempts=pending.attempt,
        )

    # -- rollout watchdog ----------------------------------------------------------

    def _watchdog(self, minute: int) -> None:
        update = self.service.operator.update
        if update is None:
            return
        stuck = minute - update.started_minute
        if stuck < self.resilience.watchdog_timeout_minutes:
            return
        abandoned_cores = int(round(update.target_spec.limit_cores))
        update_id = update.update_id
        prev = self.service.operator.abort_update(minute, self.events)
        self.rollbacks += 1
        # Don't immediately re-chase the spec that just wedged; the next
        # consultation will re-derive a target from fresh telemetry.
        self._pending = None
        if self.observer is not None:
            self.observer.emit(
                RollbackEvent(
                    minute=minute,
                    update_id=update_id,
                    from_cores=abandoned_cores,
                    to_cores=int(round(prev.limit_cores)),
                    stuck_minutes=stuck,
                )
            )

    # -- supervision support -------------------------------------------------------

    def reset(self) -> None:
        """Clear transient decision state so a supervisor can reuse the loop.

        A supervision tree that restarts a crashed tenant wants the same
        loop object back without a stale pending retry or a safe-mode
        latch from before the crash — both describe a world the restart
        invalidated. Cumulative degradation counters are deliberately
        preserved: they are the tenant's lifetime audit trail, and
        :meth:`summary` keeps reporting across restarts.
        """
        self._pending = None
        self.safe_mode = False
        self._safe_mode_entered_minute = 0
        self._quarantine_streak = 0

    # -- reporting -----------------------------------------------------------------

    def summary(self) -> dict[str, int]:
        """Degradation counters for result ``detail`` blocks."""
        return {
            "safe_mode_minutes": self.safe_mode_minutes,
            "safe_mode_entries": self.safe_mode_entries,
            "safe_mode_exits": self.safe_mode_exits,
            "retries_scheduled": self.retries_scheduled,
            "retries_succeeded": self.retries_succeeded,
            "retries_abandoned": self.retries_abandoned,
            "rollbacks": self.rollbacks,
            "quarantined_consults": self.quarantined_consults,
            "quarantine_exits": self.quarantine_exits,
            "forecaster_degradations": self.forecaster_degradations,
        }
