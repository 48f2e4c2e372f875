"""Configuration for the multi-tenant serve control plane.

Two frozen dataclasses shape one daemon:

- :class:`ServeConfig` — plane-level robustness knobs (queue bounds,
  admission caps, breaker thresholds, supervisor restart/quarantine
  policy, snapshot cadence). Its :meth:`ServeConfig.signature` is the
  plan-signature analogue of :class:`~repro.fleet.journal.FleetJournal`:
  a state directory written under one signature refuses to resume under
  another, because replaying journaled inputs through differently-tuned
  machinery would silently produce a different world.
- :class:`TenantSpec` — everything that shapes one tenant's loop
  (guardrails, cadence, optional chaos scenario, optional seeded crash
  schedule). A spec is journaled verbatim at registration time so crash
  recovery rebuilds the exact tenant.

Both validate eagerly in ``__post_init__`` (lint rule CFG001) so a
malformed daemon refuses to start instead of misbehaving at tick 40000.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import asdict, dataclass

from ..cluster.resilience import RetryPolicy
from ..errors import ServeError
from ..faults.scenarios import SCENARIOS

__all__ = ["ServeConfig", "TenantSpec"]

#: Tenant names are path/JSON-safe identifiers.
_TENANT_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


@dataclass(frozen=True)
class TenantSpec:
    """Everything that shapes one tenant's hardened control loop.

    Parameters
    ----------
    tenant:
        Unique tenant identifier (``[A-Za-z0-9._-]``, max 64 chars).
    seed:
        Root of the tenant's deterministic streams (chaos schedule,
        retry jitter, crash schedule).
    min_cores, max_cores, initial_cores:
        Scaler guardrails and starting allocation.
    replicas:
        Replica count of the simulated database deployment.
    decision_interval_minutes:
        Consultation cadence of the tenant's control loop.
    proactive:
        Run CaaSPER with the §4.3 proactive window builder.
    scenario:
        Optional :mod:`repro.faults` scenario name driven through the
        tenant's substrate seams (``""`` disables fault injection).
    scenario_minutes:
        Horizon the scenario's fault windows are scaled to.
    crash_rate:
        Per-tick probability that the tenant task crashes *outside* its
        control loop (exercising the supervision tree). The schedule is
        a pure function of ``(seed, tick)``, so replays crash
        identically.
    crash_horizon_ticks:
        Ticks after which the crash schedule goes quiet (0 = never
        quiet). Drills use this to guarantee a recovery tail.
    """

    tenant: str
    seed: int = 0
    min_cores: int = 2
    max_cores: int = 12
    initial_cores: int = 4
    replicas: int = 2
    decision_interval_minutes: int = 10
    proactive: bool = False
    scenario: str = ""
    scenario_minutes: int = 720
    crash_rate: float = 0.0
    crash_horizon_ticks: int = 0

    def __post_init__(self) -> None:
        if not _TENANT_NAME.match(self.tenant):
            raise ServeError(
                f"invalid tenant name {self.tenant!r} "
                "(want [A-Za-z0-9._-], max 64 chars)"
            )
        if not 1 <= self.min_cores <= self.initial_cores <= self.max_cores:
            raise ServeError(
                "need 1 <= min_cores <= initial_cores <= max_cores, got "
                f"{self.min_cores}/{self.initial_cores}/{self.max_cores}"
            )
        if self.replicas < 1:
            raise ServeError(f"replicas must be >= 1, got {self.replicas}")
        if self.decision_interval_minutes < 1:
            raise ServeError(
                "decision_interval_minutes must be >= 1, got "
                f"{self.decision_interval_minutes}"
            )
        if self.scenario and self.scenario not in SCENARIOS:
            raise ServeError(
                f"unknown scenario {self.scenario!r} "
                f"(expected one of {', '.join(sorted(SCENARIOS))})"
            )
        if self.scenario_minutes < 1:
            raise ServeError(
                f"scenario_minutes must be >= 1, got {self.scenario_minutes}"
            )
        if not 0.0 <= self.crash_rate < 1.0:
            raise ServeError(
                f"crash_rate must be in [0, 1), got {self.crash_rate}"
            )
        if self.crash_horizon_ticks < 0:
            raise ServeError(
                "crash_horizon_ticks must be >= 0, got "
                f"{self.crash_horizon_ticks}"
            )

    def to_dict(self) -> dict[str, object]:
        """Flat JSON form for the state journal."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "TenantSpec":
        """Rebuild a spec from its journaled form (strict on keys)."""
        return cls(**payload)  # type: ignore[arg-type]


@dataclass(frozen=True)
class ServeConfig:
    """Plane-level robustness knobs for one daemon.

    Parameters
    ----------
    queue_capacity:
        Bound of each tenant's telemetry queue. A full queue sheds its
        *oldest* samples to admit newer ones (backpressure keeps the
        freshest view of the workload).
    global_sample_cap:
        Total samples queued across all tenants. An ingest that would
        exceed it is rejected outright (the HTTP 429 path) instead of
        shedding someone else's telemetry.
    max_tenants:
        Registration cap; exceeding it is a rejection, not an error.
    breaker_failure_threshold:
        Consecutive consult/actuation failures that open a tenant's
        circuit breaker.
    breaker_open_ticks:
        Ticks an open breaker waits before letting one half-open probe
        consult through.
    restart_policy:
        :class:`~repro.cluster.resilience.RetryPolicy` reused for
        supervisor restart backoff, in *ticks*. Its
        ``max_total_delay_minutes`` bounds the cumulative backoff so a
        misconfigured policy cannot stall a tenant restart forever.
    quarantine_restarts:
        Restarts within ``quarantine_window_ticks`` that mark a tenant
        as flapping and quarantine it (its loop stops stepping).
    quarantine_window_ticks:
        The flap-detection window.
    quarantine_release_ticks:
        Ticks after which a quarantined tenant is released for another
        try (0 = quarantined until operator intervention).
    snapshot_interval_ticks:
        Committed ticks between state compactions (snapshot + journal
        truncation). 0 disables periodic snapshots (drain still takes
        one).
    fsync_journal:
        Fsync every journal record (crash-safety on; throughput
        benchmarks turn it off).
    drain_max_ticks:
        Bound on the extra ticks a graceful drain runs to finish
        queued telemetry before snapshotting.
    seed:
        Root of plane-level deterministic streams (supervisor jitter).
    """

    queue_capacity: int = 32
    global_sample_cap: int = 8192
    max_tenants: int = 10_000
    breaker_failure_threshold: int = 3
    breaker_open_ticks: int = 30
    restart_policy: RetryPolicy = RetryPolicy(
        base_delay_minutes=1.0,
        multiplier=2.0,
        max_delay_minutes=8.0,
        jitter_fraction=0.25,
        deadline_minutes=30,
        max_total_delay_minutes=30.0,
    )
    quarantine_restarts: int = 3
    quarantine_window_ticks: int = 120
    quarantine_release_ticks: int = 60
    snapshot_interval_ticks: int = 120
    fsync_journal: bool = True
    drain_max_ticks: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ServeError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.global_sample_cap < self.queue_capacity:
            raise ServeError(
                "global_sample_cap must be >= queue_capacity, got "
                f"{self.global_sample_cap} < {self.queue_capacity}"
            )
        if self.max_tenants < 1:
            raise ServeError(
                f"max_tenants must be >= 1, got {self.max_tenants}"
            )
        if self.breaker_failure_threshold < 1:
            raise ServeError(
                "breaker_failure_threshold must be >= 1, got "
                f"{self.breaker_failure_threshold}"
            )
        if self.breaker_open_ticks < 1:
            raise ServeError(
                f"breaker_open_ticks must be >= 1, got {self.breaker_open_ticks}"
            )
        if self.quarantine_restarts < 1:
            raise ServeError(
                "quarantine_restarts must be >= 1, got "
                f"{self.quarantine_restarts}"
            )
        if self.quarantine_window_ticks < 1:
            raise ServeError(
                "quarantine_window_ticks must be >= 1, got "
                f"{self.quarantine_window_ticks}"
            )
        if self.quarantine_release_ticks < 0:
            raise ServeError(
                "quarantine_release_ticks must be >= 0, got "
                f"{self.quarantine_release_ticks}"
            )
        if self.snapshot_interval_ticks < 0:
            raise ServeError(
                "snapshot_interval_ticks must be >= 0, got "
                f"{self.snapshot_interval_ticks}"
            )
        if self.drain_max_ticks < 0:
            raise ServeError(
                f"drain_max_ticks must be >= 0, got {self.drain_max_ticks}"
            )

    def signature(self) -> str:
        """Content signature guarding state-directory reuse.

        Same discipline as the fleet journal's plan signature: the
        canonical JSON of every tunable, hashed. Restart-relevant
        machinery changes (a different queue bound, a different breaker
        threshold) change the signature, so a stale state dir fails
        loudly instead of replaying into a different world.
        """
        canonical = json.dumps(asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
