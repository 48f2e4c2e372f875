"""One tenant: a full simulated DBaaS deployment under a hardened loop.

:class:`TenantRuntime` owns everything one tenant needs — a private
cluster, a :class:`~repro.db.service.DBaaSService`, a CaaSPER
recommender and a :class:`~repro.cluster.resilience.ResilientControlLoop`
— plus the serve-layer hardening the single-tenant loop does not have:

- a :class:`~repro.serve.breaker.CircuitBreaker` wrapped around the
  consult path (:class:`GuardedControlLoop` below): while open, decision
  minutes hold the allocation instead of consulting, and the breaker's
  failure accounting reuses the loop's own counters (a quarantined
  consult — the recommender raised a
  :class:`~repro.errors.ReproError` — is a failure, a clean consult a
  success; enactment rejections stay with the retry ladder);
- a deferred decision: a consult that passes its gates is returned
  from :meth:`TenantRuntime.step` as a :class:`DueConsult`, and the
  plane decides it together with the other tenants' consults;
- a seeded crash schedule (``spec.crash_rate``) that raises a
  :class:`~repro.errors.FaultError` *outside* the loop, exercising the
  supervision tree — the schedule is a pure function of (seed, tick),
  so journal replay crashes at exactly the same ticks;
- per-tenant K/C/N accounting (the paper's three metrics) accumulated
  from ground truth, which the crash-recovery tests compare
  byte-for-byte between interrupted and uninterrupted runs.

The tenant steps on its own *minute* counter, which lags the plane's
global tick while the tenant is in restart backoff or quarantine — a
restarted tenant resumes its workload where it crashed, it does not
skip ahead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from ..cluster.cluster import Cluster
from ..cluster.controller import ControlLoopConfig
from ..cluster.resilience import ResilienceConfig, ResilientControlLoop
from ..cluster.scaler import ScalerConfig
from ..core.config import CaasperConfig
from ..core.recommender import CaasperRecommender
from ..db.service import DBaaSService, DbServiceConfig, ServiceMinute
from ..errors import FaultError
from ..faults.scenarios import make_scenario
from .breaker import CircuitBreaker, TransitionCallback
from .config import ServeConfig, TenantSpec

__all__ = ["DueConsult", "GuardedControlLoop", "TenantRuntime"]


@dataclass(frozen=True)
class DueConsult:
    """A consult that passed its breaker and quarantine gates this minute.

    ``current`` is the allocation the consult decides from (at least one
    core) and ``window`` the Algorithm 1 input window
    (:meth:`~repro.core.recommender.CaasperRecommender.decision_window`).
    The plane decides every due consult of a tick in kernel cohorts and
    hands each target to the loop's
    :meth:`~repro.cluster.resilience.ResilientControlLoop.enact`.
    """

    minute: int
    current: int
    window: np.ndarray


class GuardedControlLoop(ResilientControlLoop):
    """A hardened loop whose consult path runs behind a circuit breaker.

    The override is deliberately narrow: everything except the
    decision-minute consult (telemetry validation, safe-mode, retries,
    the watchdog) behaves exactly like the parent. When the breaker
    disallows, the minute degrades to hold-last-allocation — the same
    shape as a quarantined consult, without paying for the consult.

    A consult that gets through is not decided here: the loop builds its
    input window and leaves it in :attr:`due`, and the caller decides it
    (in a cohort with other tenants' consults) and calls :meth:`enact`.
    """

    breaker: CircuitBreaker
    recommender: CaasperRecommender
    due: DueConsult | None = None

    def _decide(self, minute: int, outcome: ServiceMinute) -> None:
        if not self.breaker.allow(minute):
            return
        window = self._guard_consult(minute, self.recommender.decision_window)
        # Only a *failed consult* (the recommender raised a ReproError —
        # quarantine path) is a breaker failure. Enactment rejections are
        # normal operation (cooldown, budget, in-flight update) and the
        # retry ladder owns them.
        if window is None:
            self.breaker.record_failure(minute)
            return
        self.breaker.record_success(minute)
        current = max(int(round(outcome.client_limit_cores)), 1)
        self.due = DueConsult(minute, current, window.samples)

    def reset(self) -> None:
        super().reset()
        self.due = None


class TenantRuntime:
    """One tenant's deployment, loop, breaker and K/C/N ledger."""

    def __init__(
        self,
        spec: TenantSpec,
        config: ServeConfig,
        on_breaker_transition: TransitionCallback | None = None,
    ) -> None:
        self.spec = spec
        self.config = config
        cluster = Cluster.uniform(
            f"serve-{spec.tenant}",
            spec.replicas + 1,
            max(spec.max_cores, 8),
            32,
        )
        service = DBaaSService(
            DbServiceConfig(
                name=spec.tenant,
                replicas=spec.replicas,
                initial_cores=spec.initial_cores,
            ),
            cluster.scheduler,
            cluster.events,
        )
        recommender = CaasperRecommender(
            CaasperConfig(
                c_min=spec.min_cores,
                max_cores=spec.max_cores,
                proactive=spec.proactive,
            ),
        )
        injector = (
            make_scenario(
                spec.scenario,
                seed=spec.seed,
                horizon_minutes=spec.scenario_minutes,
            ).build()
            if spec.scenario
            else None
        )
        self.breaker = CircuitBreaker(
            failure_threshold=config.breaker_failure_threshold,
            open_ticks=config.breaker_open_ticks,
            on_transition=on_breaker_transition,
        )
        self.loop = GuardedControlLoop(
            service,
            recommender,
            ControlLoopConfig(
                decision_interval_minutes=spec.decision_interval_minutes,
                scaler=ScalerConfig(
                    min_cores=spec.min_cores, max_cores=spec.max_cores
                ),
            ),
            events=cluster.events,
            resilience=ResilienceConfig(seed=spec.seed),
            faults=injector,
        )
        self.loop.breaker = self.breaker

        self.minutes_stepped = 0
        self.current_tick = 0
        self.last_demand = 0.0
        self.starved_minutes = 0
        self.crashes = 0
        self.slack = 0.0
        self.insufficient = 0.0
        self.resizes = 0
        self._last_limit: int | None = None

    # -- stepping ------------------------------------------------------------------

    def _crash_due(self, tick: int) -> bool:
        rate = self.spec.crash_rate
        if rate <= 0.0:
            return False
        horizon = self.spec.crash_horizon_ticks
        if horizon and tick >= horizon:
            return False
        draw = random.Random(
            (self.spec.seed + 1) * 1_000_003 + tick * 7919
        ).random()
        return draw < rate

    def step(self, tick: int, sample: float | None) -> DueConsult | None:
        """Advance one tenant-minute up to its consult; may raise into the
        supervisor.

        ``sample`` is the oldest admitted telemetry sample, or ``None``
        when the tenant's queue is empty — the tenant then holds its
        last known demand (the ingestion-side analogue of telemetry
        safe-mode). Returns the consult the minute left due, if any; the
        caller decides it and passes the target to the loop's
        :meth:`~repro.cluster.resilience.ResilientControlLoop.enact`.
        """
        self.current_tick = tick
        if self._crash_due(tick):
            self.crashes += 1
            raise FaultError(
                f"injected tenant crash (tenant={self.spec.tenant}, "
                f"tick={tick})"
            )
        if sample is not None:
            self.last_demand = sample
        else:
            self.starved_minutes += 1
        minute = self.minutes_stepped
        outcome = self.loop.step(minute, self.last_demand)
        self.minutes_stepped += 1

        limit = outcome.client_limit_cores
        self.slack += max(limit - outcome.primary_usage_cores, 0.0)
        self.insufficient += max(self.last_demand - limit, 0.0)
        limit_int = int(round(limit))
        if self._last_limit is not None and limit_int != self._last_limit:
            self.resizes += 1
        self._last_limit = limit_int
        due, self.loop.due = self.loop.due, None
        return due

    def reset(self) -> None:
        """Post-restart cleanup: clear the loop's transient decision state."""
        self.loop.reset()

    # -- reporting -----------------------------------------------------------------

    def kcn(self) -> dict[str, float | int]:
        """The paper's three metrics for this tenant, so far."""
        return {"K": self.slack, "C": self.insufficient, "N": self.resizes}

    def status(self) -> dict[str, object]:
        """Deterministic status block for the HTTP ``/state`` endpoint."""
        return {
            "minute": self.minutes_stepped,
            "kcn": self.kcn(),
            "breaker": self.breaker.summary(),
            "starved_minutes": self.starved_minutes,
            "crashes": self.crashes,
            "resilience": self.loop.summary(),
        }
