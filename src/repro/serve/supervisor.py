"""Supervision tree: restart crashed tenant tasks, quarantine flappers.

The plane steps every tenant inside a supervision boundary. A tenant
task that raises anything — an injected crash, a genuine bug — is
captured here instead of taking the daemon down, then handled with the
Erlang-style ladder:

1. **Restart with bounded backoff** — the crash schedules a restart
   after :meth:`~repro.cluster.resilience.RetryPolicy.delay_minutes`
   ticks (exponential, seeded jitter, and — via the policy's
   ``max_total_delay_minutes`` — a hard cap on cumulative backoff so a
   misconfigured policy cannot stall a tenant forever). When the
   backoff elapses the tenant's loop is
   :meth:`~repro.cluster.resilience.ResilientControlLoop.reset` and
   stepping resumes.
2. **Quarantine flapping tenants** — ``quarantine_restarts`` crashes
   inside ``quarantine_window_ticks`` mark the tenant as flapping; it
   stops stepping entirely. After ``quarantine_release_ticks`` it gets
   one more chance (0 = quarantined until an operator intervenes).

Every transition emits a typed event (``tenant_restart`` with
``action=scheduled|completed``, ``tenant_quarantine`` with
``action=enter|exit``) so a degradation audit can pair each crash with
its recovery. All state is keyed on the plane's tick — never the wall
clock — so journal replay reproduces the exact supervision history.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable

from ..errors import ServeError
from ..obs.events import TenantQuarantineEvent, TenantRestartEvent
from ..obs.observer import Observer
from .config import ServeConfig

__all__ = ["Supervisor", "TenantSupervision"]


def _jitter_key(tenant: str, seed: int) -> int:
    """Deterministic per-tenant jitter key (stable across processes)."""
    digest = hashlib.sha256(tenant.encode("utf-8")).digest()
    return (int.from_bytes(digest[:8], "big") ^ seed) & 0x7FFF_FFFF_FFFF_FFFF


@dataclass
class TenantSupervision:
    """Mutable supervision state of one tenant."""

    status: str = "running"  # running | backoff | quarantined
    attempt: int = 0  # restart attempts in the current crash burst
    restarts_total: int = 0
    quarantines_total: int = 0
    resume_tick: int = 0
    backoff_spent: float = 0.0
    quarantined_tick: int = 0
    recent_crashes: list[int] = field(default_factory=list)


class Supervisor:
    """Tick-driven restart/quarantine state machine over all tenants."""

    def __init__(
        self,
        config: ServeConfig,
        observer: Callable[[], Observer | None] = lambda: None,
    ) -> None:
        self.config = config
        self._observer = observer
        self.states: dict[str, TenantSupervision] = {}

    def register(self, tenant: str) -> None:
        if tenant in self.states:
            raise ServeError(f"tenant {tenant!r} already supervised")
        self.states[tenant] = TenantSupervision()

    # -- the per-tick gate ---------------------------------------------------------

    def poll(self, tenant: str, tick: int) -> str:
        """Decide what the plane may do with ``tenant`` this tick.

        Returns ``"run"`` (step normally), ``"resume"`` (backoff or
        quarantine ended — reset the loop, then step) or ``"wait"``
        (still backing off / quarantined).
        """
        state = self.states[tenant]
        if state.status == "quarantined":
            release = self.config.quarantine_release_ticks
            if release and tick - state.quarantined_tick >= release:
                state.status = "running"
                state.attempt = 0
                state.backoff_spent = 0.0
                state.recent_crashes.clear()
                observer = self._observer()
                if observer is not None:
                    observer.emit(
                        TenantQuarantineEvent(minute=tick, tenant=tenant, action="exit")
                    )
                return "resume"
            return "wait"
        if state.status == "backoff":
            if tick >= state.resume_tick:
                state.status = "running"
                observer = self._observer()
                if observer is not None:
                    observer.emit(
                        TenantRestartEvent(
                            minute=tick,
                            tenant=tenant,
                            attempt=state.attempt,
                            action="completed",
                        )
                    )
                return "resume"
            return "wait"
        return "run"

    # -- the crash handler ---------------------------------------------------------

    def on_crash(self, tenant: str, tick: int, error: BaseException) -> str:
        """Capture one tenant crash; returns ``"backoff"`` or ``"quarantined"``."""
        state = self.states[tenant]
        window = self.config.quarantine_window_ticks
        state.recent_crashes = [
            crashed
            for crashed in state.recent_crashes
            if tick - crashed < window
        ]
        if not state.recent_crashes:
            # A fresh crash burst: earlier bursts' backoff no longer
            # counts against the cumulative-delay budget.
            state.attempt = 0
            state.backoff_spent = 0.0
        state.recent_crashes.append(tick)
        state.restarts_total += 1
        observer = self._observer()

        if len(state.recent_crashes) >= self.config.quarantine_restarts:
            state.status = "quarantined"
            state.quarantined_tick = tick
            state.quarantines_total += 1
            if observer is not None:
                observer.emit(
                    TenantQuarantineEvent(
                        minute=tick,
                        tenant=tenant,
                        action="enter",
                        restarts=len(state.recent_crashes),
                    )
                )
            return "quarantined"

        state.attempt += 1
        policy = self.config.restart_policy
        delay = policy.delay_minutes(
            state.attempt,
            key=_jitter_key(tenant, self.config.seed),
            spent_minutes=state.backoff_spent,
        )
        state.backoff_spent += delay
        backoff_ticks = max(1, math.ceil(delay)) if delay > 0 else 1
        state.resume_tick = tick + backoff_ticks
        state.status = "backoff"
        if observer is not None:
            observer.emit(
                TenantRestartEvent(
                    minute=tick,
                    tenant=tenant,
                    attempt=state.attempt,
                    action="scheduled",
                    backoff_ticks=backoff_ticks,
                    error=f"{type(error).__name__}: {error}",
                )
            )
        return "backoff"

    # -- reporting -----------------------------------------------------------------

    def quarantined(self) -> list[str]:
        """Currently quarantined tenants, sorted."""
        return sorted(
            tenant
            for tenant, state in self.states.items()
            if state.status == "quarantined"
        )

    def summary(self) -> dict[str, int]:
        """Deterministic counters for status/audit blocks."""
        states = self.states.values()
        return {
            "restarts": sum(state.restarts_total for state in states),
            "quarantines": sum(state.quarantines_total for state in states),
            "in_backoff": sum(
                1 for state in states if state.status == "backoff"
            ),
            "in_quarantine": sum(
                1 for state in states if state.status == "quarantined"
            ),
        }
