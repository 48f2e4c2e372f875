"""Typed observability events and the sink fan-out bus.

One frozen dataclass per event kind records the audit trail: the
decisions, resizes and throttled minutes the paper's operators rely on
(§4.2, §6), chaos runs and the hardened loop's degradation ladder
(:mod:`repro.faults`), fleet jobs (:mod:`repro.fleet`), the result
store (:mod:`repro.store`), the serve plane (:mod:`repro.serve`), the
cluster-capacity layer (:mod:`repro.capacity`), the batch engine
(:mod:`repro.engine`) and causal trace roots (:mod:`repro.obs.tracing`).
``docs/OBSERVABILITY.md`` lists every kind and when it is emitted.
``minute`` is the simulated minute, except for fleet events (the job's
plan index), store and engine events (0) and serve events (the plane's
tick).

Events are frozen dataclasses with a flat :meth:`ObsEvent.to_dict`
serialisation so any sink — ring buffer, JSONL file, ``logging`` — can
consume them without knowing the concrete type. Every event carries
three optional trace fields (``trace_id``, ``span_id``,
``parent_span_id``) stamped by the observer when a tracer is active;
they are empty strings otherwise.

Each class is the *only* declaration of its event. Besides its fields
it declares, as class data, everything
:meth:`~repro.obs.observer.Observer.emit` needs to handle it: the span
``discriminator`` (a format string over the fields), the causal parent
rule (``caused_by``) and the metric families it updates
(``metrics``, a tuple of :class:`MetricEffect`). Defining the class
also registers its ``kind`` for :func:`event_from_dict`. This module
depends on nothing else in ``repro`` (the rest of the system depends on
*it*).
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, ClassVar, Iterator

__all__ = [
    "MetricEffect",
    "ObsEvent",
    "TraceStartedEvent",
    "DecisionEvent",
    "ResizeEvent",
    "ResizeDeferredEvent",
    "ThrottledMinuteEvent",
    "FaultInjectedEvent",
    "SafeModeEvent",
    "RetryEvent",
    "RollbackEvent",
    "QuarantineEvent",
    "FleetJobStartedEvent",
    "FleetJobFinishedEvent",
    "FleetJobFailedEvent",
    "CacheHitEvent",
    "CacheMissEvent",
    "CacheEvictedEvent",
    "TenantRegisteredEvent",
    "TelemetryShedEvent",
    "AdmissionRejectedEvent",
    "BreakerTransitionEvent",
    "TenantRestartEvent",
    "TenantQuarantineEvent",
    "DrainEvent",
    "StateRecoveredEvent",
    "PodScheduledEvent",
    "PodPendingEvent",
    "NodePoolEvent",
    "NodeDrainEvent",
    "NodeContentionEvent",
    "EngineBatchEvent",
    "EventBus",
    "RingBufferSink",
    "LoggingSink",
    "event_from_dict",
]


@dataclass(frozen=True)
class MetricEffect:
    """One metric family an event updates each time it is emitted.

    ``kind`` is ``counter`` (add the amount), ``gauge`` (set it) or
    ``histogram`` (observe it). The amount is the event attribute named
    by ``value``, or 1 when ``value`` is empty; an attribute that reads
    ``None`` skips the update. ``label`` names the family's one label,
    whose value is the attribute ``label_from`` (default: ``label``).
    ``buckets`` overrides a histogram's default bucket bounds.
    """

    family: str
    help: str
    kind: str = "counter"
    label: str = ""
    label_from: str = ""
    value: str = ""
    buckets: tuple[float, ...] = ()


#: ``kind`` → event class, filled in as each subclass is defined.
_EVENT_TYPES: dict[str, type["ObsEvent"]] = {}


@dataclass(frozen=True)
class ObsEvent:
    """Base observability event: a timestamped, flat-serialisable record.

    The three trace fields are stamped by the observer when a
    :class:`~repro.obs.tracing.Tracer` is active. They are derived from
    seed + trace name + minute (never wall clock), so equal runs stamp
    byte-equal ids. Empty strings mean "untraced".
    """

    #: Serialised type tag; unique per concrete class.
    kind: ClassVar[str] = "event"
    #: Format string over the event's fields that tells apart events of
    #: one kind at one minute; part of the derived span id.
    discriminator: ClassVar[str] = ""
    #: Causal parent rule. ``""``: the run root. ``"decision"``: the
    #: decision at ``decided_minute``. ``"enactment"``: the decision, or
    #: the successful retry, whose enactment started at
    #: ``decided_minute`` (the run root when that reads ``None``).
    caused_by: ClassVar[str] = ""
    #: Metric families the observer updates when this event is emitted.
    metrics: ClassVar[tuple[MetricEffect, ...]] = ()

    minute: int
    trace_id: str = ""
    span_id: str = ""
    parent_span_id: str = ""

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        _EVENT_TYPES[cls.kind] = cls

    def to_dict(self) -> dict[str, Any]:
        """Flat dict form: ``{"kind": ..., <all fields>}``."""
        payload = asdict(self)
        payload["kind"] = self.kind
        return payload


@dataclass(frozen=True)
class TraceStartedEvent(ObsEvent):
    """A run-scoped causal trace opened (:mod:`repro.obs.tracing`).

    ``span_id`` carries the trace's root span; events without a more
    specific causal parent link to it. ``seed`` and ``name`` are the
    inputs the ``trace_id`` was derived from, recorded so an exported
    trace is self-describing.
    """

    kind: ClassVar[str] = "trace_started"

    name: str = ""
    seed: int = 0


@dataclass(frozen=True)
class DecisionEvent(ObsEvent):
    """One recommender consultation, with full derivation when available.

    Opaque recommenders (the baselines) populate only the allocation
    fields and leave the Algorithm 1 derivation (``slope``, ``skew``,
    ``scaling_factor``, ``usage_quantile``) as ``None``; CaaSPER
    recommenders carry the complete §4.2 trail via their
    ``last_decision`` provenance.

    Attributes
    ----------
    recommender:
        Name of the consulted recommender.
    current_cores:
        Allocation in force at consultation time.
    raw_target_cores:
        The recommendation before service guardrails.
    target_cores:
        The recommendation after guardrail clamping.
    branch:
        Algorithm 1 branch (``scale_up``/``scale_down``/``walk_down``/
        ``hold``) or ``"opaque"`` for non-introspectable recommenders.
    clamped:
        True when guardrails changed the recommendation.
    window_stats:
        Optional summary of the observation window the decision saw
        (sample count, mean/max/quantile usage).
    elapsed_seconds:
        Wall-clock cost of the consultation (None when not timed).
    """

    kind: ClassVar[str] = "decision"
    metrics = (
        MetricEffect(
            "decisions_total",
            "Recommender consultations by Algorithm 1 branch",
            label="branch",
        ),
        MetricEffect(
            "recommender_seconds",
            "Wall-clock seconds per recommender consultation",
            kind="histogram",
            label="recommender",
            value="elapsed_seconds",
        ),
    )

    recommender: str = ""
    current_cores: int = 0
    raw_target_cores: int = 0
    target_cores: int = 0
    branch: str = ""
    reason: str = ""
    slope: float | None = None
    skew: float | None = None
    scaling_factor: float | None = None
    usage_quantile: float | None = None
    clamped: bool = False
    window_stats: dict[str, float] | None = None
    elapsed_seconds: float | None = None

    @classmethod
    def from_derivation(
        cls,
        minute: int,
        recommender: str,
        current_cores: int,
        raw_target_cores: int,
        target_cores: int,
        derivation: Any = None,
        window_stats: dict[str, float] | None = None,
        elapsed_seconds: float | None = None,
    ) -> "DecisionEvent":
        """One consultation, its Algorithm 1 trail read off ``derivation``.

        ``derivation`` is the recommender's ``last_decision``
        (:class:`~repro.core.reactive.ReactiveDecision`) when it exposes
        one; opaque recommenders pass ``None`` and get
        ``branch="opaque"``. ``clamped`` records whether the guardrails
        moved ``raw_target_cores``.
        """
        if derivation is None:
            trail: dict[str, Any] = {
                "branch": "opaque",
                "reason": f"{recommender} recommended {raw_target_cores} cores",
            }
        else:
            trail = {
                "branch": derivation.branch,
                "reason": derivation.reason,
                "slope": derivation.slope,
                "skew": derivation.skew,
                "scaling_factor": derivation.raw_scaling_factor,
                "usage_quantile": derivation.usage_quantile,
            }
        return cls(
            minute=minute,
            recommender=recommender,
            current_cores=current_cores,
            raw_target_cores=raw_target_cores,
            target_cores=target_cores,
            clamped=target_cores != raw_target_cores,
            window_stats=window_stats,
            elapsed_seconds=elapsed_seconds,
            **trail,
        )

    @property
    def delta(self) -> int:
        """``target_cores − current_cores`` after guardrails."""
        return self.target_cores - self.current_cores

    @property
    def is_scaling(self) -> bool:
        """True when the (clamped) decision changes the allocation."""
        return self.delta != 0

    @property
    def raw_scaling_factor(self) -> float | None:
        """Alias matching :class:`~repro.core.reactive.ReactiveDecision`."""
        return self.scaling_factor


@dataclass(frozen=True)
class ResizeEvent(ObsEvent):
    """One enacted resize (``minute`` is the enactment minute)."""

    kind: ClassVar[str] = "resize"
    caused_by = "enactment"
    metrics = (
        MetricEffect("resizes_total", "Enacted resizes (metric N)"),
        MetricEffect(
            "resize_latency_minutes",
            "Minutes between a resize decision and its enactment",
            kind="histogram",
            value="latency_minutes",
            # Minutes; the paper's resize window is 5-15 minutes.
            buckets=(0.0, 1.0, 2.0, 5.0, 10.0, 15.0, 30.0, 60.0),
        ),
    )

    decided_minute: int = 0
    from_cores: int = 0
    to_cores: int = 0

    @property
    def latency_minutes(self) -> int:
        """Decide→enact latency (rolling update + failover window)."""
        return self.minute - self.decided_minute

    @property
    def is_scale_up(self) -> bool:
        return self.to_cores > self.from_cores


@dataclass(frozen=True)
class ResizeDeferredEvent(ObsEvent):
    """A resize decision that could not be enacted this minute."""

    kind: ClassVar[str] = "resize_deferred"
    discriminator = "{reason}"
    caused_by = "enactment"
    metrics = (
        MetricEffect(
            "resizes_deferred_total",
            "Resizes deferred or rejected by safety checks",
            label="reason",
        ),
    )

    reason: str = ""
    target_cores: int | None = None
    #: Minute of the decision this deferral answers to (the rejected
    #: decision, or the in-flight one blocking it), when known. It only
    #: picks the causal parent; the stamped ``parent_span_id`` carries
    #: it, so it is left out of the serialised form.
    decided_minute: int | None = field(default=None, compare=False)

    def to_dict(self) -> dict[str, Any]:
        payload = super().to_dict()
        del payload["decided_minute"]
        return payload


@dataclass(frozen=True)
class ThrottledMinuteEvent(ObsEvent):
    """One minute of demand exceeding the enacted limit."""

    kind: ClassVar[str] = "throttled"
    metrics = (
        MetricEffect(
            "insufficient_core_minutes_total",
            "Running total of unserved core-minutes (metric C numerator)",
            value="insufficient_cores",
        ),
        MetricEffect(
            "throttled_minutes_total",
            "Minutes in which demand exceeded the enacted limit",
        ),
    )

    demand_cores: float = 0.0
    limit_cores: float = 0.0

    @property
    def insufficient_cores(self) -> float:
        """Unserved demand during this minute (metric ``C`` contribution)."""
        return max(self.demand_cores - self.limit_cores, 0.0)


@dataclass(frozen=True)
class FaultInjectedEvent(ObsEvent):
    """One injected fault firing (:mod:`repro.faults`).

    Attributes
    ----------
    fault:
        Fault kind label (``telemetry_drop``, ``actuation_reject``,
        ``node_pressure``, ``component_recommender``, ...).
    target:
        What the fault hit (pod/set/component name), when meaningful.
    detail:
        Free-form description of the concrete effect.
    """

    kind: ClassVar[str] = "fault_injected"
    discriminator = "{fault}:{target}"
    metrics = (
        MetricEffect(
            "faults_injected_total",
            "Injected faults by kind",
            label="kind",
            label_from="fault",
        ),
    )

    fault: str = ""
    target: str = ""
    detail: str = ""


@dataclass(frozen=True)
class SafeModeEvent(ObsEvent):
    """Telemetry safe-mode transition (enter/exit).

    While in safe-mode the loop holds the last allocation and feeds the
    recommender nothing — corrupt samples never reach Algorithm 1. Each
    further minute in safe mode (``action="hold"``) is counted through
    :meth:`~repro.obs.observer.Observer.update_metrics` but not emitted.
    """

    kind: ClassVar[str] = "safe_mode"
    discriminator = "{action}"
    metrics = (
        MetricEffect(
            "safe_mode_minutes",
            "Minutes spent in telemetry safe-mode",
            value="dwell_minutes",
        ),
    )

    action: str = "enter"  # "enter" | "exit"
    reason: str = ""
    minutes_in_safe_mode: int = 0

    @property
    def dwell_minutes(self) -> int | None:
        """One safe-mode minute for ``enter``/``hold``; none on ``exit``."""
        return None if self.action == "exit" else 1


@dataclass(frozen=True)
class RetryEvent(ObsEvent):
    """One actuation-retry state change.

    ``outcome`` is ``scheduled`` (a failed enactment queued a backoff
    retry), ``succeeded`` (a retry enacted the decision) or
    ``abandoned`` (the per-decision deadline expired).
    """

    kind: ClassVar[str] = "retry"
    discriminator = "{outcome}"
    caused_by = "decision"
    metrics = (
        MetricEffect("retries_total", "Actuation retries by outcome", label="outcome"),
    )

    target_cores: int = 0
    attempt: int = 0
    outcome: str = "scheduled"
    delay_minutes: float = 0.0
    decided_minute: int = 0


@dataclass(frozen=True)
class RollbackEvent(ObsEvent):
    """The rollout watchdog rolled a stuck update back.

    ``stuck_minutes`` is how long the rolling update had been in flight
    when the watchdog fired; ``to_cores`` is the restored healthy spec.
    """

    kind: ClassVar[str] = "rollback"
    caused_by = "enactment"
    metrics = (
        MetricEffect("rollbacks_total", "Watchdog rollbacks of stuck rolling updates"),
    )

    update_id: int = 0
    from_cores: int = 0
    to_cores: int = 0
    stuck_minutes: int = 0

    @property
    def decided_minute(self) -> int:
        """Minute the stuck update started: the enactment it rolls back."""
        return self.minute - self.stuck_minutes


@dataclass(frozen=True)
class QuarantineEvent(ObsEvent):
    """A component exception was degraded instead of crashing the run."""

    kind: ClassVar[str] = "quarantine"
    discriminator = "{component}"
    metrics = (
        MetricEffect(
            "quarantines_total",
            "Component exceptions degraded by the control plane",
            label="component",
        ),
    )

    component: str = ""
    error: str = ""
    degraded_to: str = "hold"  # "hold" | "reactive"


#: Shared by the finished and failed events; ``status`` labels each.
_FLEET_JOBS = MetricEffect(
    "fleet_jobs_total", "Fleet jobs by terminal status", label="status"
)


@dataclass(frozen=True)
class FleetJobStartedEvent(ObsEvent):
    """One fleet job dispatched (``minute`` is the job's plan index).

    Attributes
    ----------
    job_id:
        Stable job identifier within its :class:`~repro.fleet.jobs.FleetPlan`.
    workers:
        Worker-pool size of the dispatching runner.
    """

    kind: ClassVar[str] = "fleet_job_started"
    discriminator = "{job_id}"

    job_id: str = ""
    workers: int = 1


@dataclass(frozen=True)
class FleetJobFinishedEvent(ObsEvent):
    """One fleet job completed successfully.

    ``journaled`` is True when the result was restored from a checkpoint
    journal (``resume=``) instead of being recomputed; ``elapsed_seconds``
    then reports the *original* run's cost.
    """

    kind: ClassVar[str] = "fleet_job_finished"
    discriminator = "{job_id}"
    metrics = (
        _FLEET_JOBS,
        MetricEffect(
            "fleet_job_seconds",
            "Wall-clock seconds per fleet job (worker-side)",
            kind="histogram",
            value="worker_seconds",
        ),
    )

    job_id: str = ""
    elapsed_seconds: float = 0.0
    journaled: bool = False

    @property
    def status(self) -> str:
        """Label value on ``fleet_jobs_total``."""
        return "journaled" if self.journaled else "ok"

    @property
    def worker_seconds(self) -> float | None:
        """This run's job cost; ``None`` for a journal restore."""
        return None if self.journaled else self.elapsed_seconds


@dataclass(frozen=True)
class FleetJobFailedEvent(ObsEvent):
    """One fleet job captured as a typed failure.

    ``failure_kind`` is ``exception`` (the job raised in its worker),
    ``timeout`` (the per-job deadline expired) or ``broken-pool`` (the
    worker process died without returning).
    """

    kind: ClassVar[str] = "fleet_job_failed"
    discriminator = "{job_id}"
    metrics = (_FLEET_JOBS,)
    #: Label value on ``fleet_jobs_total``.
    status: ClassVar[str] = "failed"

    job_id: str = ""
    error: str = ""
    failure_kind: str = "exception"


@dataclass(frozen=True)
class CacheHitEvent(ObsEvent):
    """One stored result served instead of recomputed (:mod:`repro.store`).

    Attributes
    ----------
    key:
        Full content-addressed store key (``<kind>-<sha256>``).
    result_kind:
        Key namespace (``simulate``, ``trial``, ``chaos``) — the label
        on ``store_hits_total{kind=}``.
    source:
        Always ``"disk"``: the store has no in-memory front. The field
        stays so that recorded JSONL traces, some of which carry
        ``"memory"``, still load.
    producer_trace_id:
        Trace id of the run that originally computed the blob (empty
        when the blob predates provenance stamping).
    producer_epoch:
        :data:`~repro.store.keys.STORE_EPOCH` the blob was written
        under (0 when the blob predates provenance stamping).
    """

    kind: ClassVar[str] = "cache_hit"
    discriminator = "{key}"
    metrics = (
        MetricEffect(
            "store_hits_total",
            "Result-store hits by key namespace",
            label="kind",
            label_from="result_kind",
        ),
    )

    key: str = ""
    result_kind: str = ""
    source: str = "disk"
    producer_trace_id: str = ""
    producer_epoch: int = 0


@dataclass(frozen=True)
class CacheMissEvent(ObsEvent):
    """One store lookup that found nothing servable.

    ``reason`` is ``"absent"`` (no blob for the key) or ``"corrupt"``
    (a blob existed but failed its checksum/shape validation and was
    quarantined — the store recomputes rather than trusting it).
    """

    kind: ClassVar[str] = "cache_miss"
    discriminator = "{key}"
    metrics = (
        MetricEffect(
            "store_misses_total",
            "Result-store misses by key namespace",
            label="kind",
            label_from="result_kind",
        ),
    )

    key: str = ""
    result_kind: str = ""
    reason: str = "absent"


@dataclass(frozen=True)
class CacheEvictedEvent(ObsEvent):
    """One blob removed from the store by size-budgeted GC."""

    kind: ClassVar[str] = "cache_evicted"
    discriminator = "{key}"
    metrics = (
        MetricEffect(
            "store_evictions_total", "Result-store blobs removed by size-budgeted GC"
        ),
    )

    key: str = ""
    result_kind: str = ""
    bytes: int = 0
    reason: str = "gc"


@dataclass(frozen=True)
class TenantRegisteredEvent(ObsEvent):
    """A tenant admitted to the serve control plane.

    ``source`` is ``"api"`` for a live registration and ``"recovery"``
    when the registration was replayed from the state journal during
    crash recovery.
    """

    kind: ClassVar[str] = "tenant_registered"
    discriminator = "{tenant}"
    metrics = (
        MetricEffect(
            "serve_tenants_total",
            "Tenants registered with the serve plane",
            label="source",
        ),
    )

    tenant: str = ""
    seed: int = 0
    source: str = "api"


@dataclass(frozen=True)
class TelemetryShedEvent(ObsEvent):
    """A bounded tenant queue dropped its oldest samples (load shedding).

    Backpressure policy: the queue admits the new samples and sheds from
    the *front*, so under overload the plane keeps the freshest
    telemetry rather than the oldest.
    """

    kind: ClassVar[str] = "telemetry_shed"
    discriminator = "{tenant}"
    metrics = (
        MetricEffect(
            "serve_shed_samples_total",
            "Telemetry samples dropped by queue load shedding",
            value="dropped",
        ),
    )

    tenant: str = ""
    dropped: int = 0
    queue_capacity: int = 0


@dataclass(frozen=True)
class AdmissionRejectedEvent(ObsEvent):
    """An ingest refused outright — the HTTP 429/503 path.

    ``reason`` is ``"saturated"`` (global in-flight sample cap hit),
    ``"draining"`` (graceful shutdown in progress) or
    ``"unknown-tenant"``.
    """

    kind: ClassVar[str] = "admission_rejected"
    discriminator = "{tenant}:{reason}"
    metrics = (
        MetricEffect(
            "serve_rejections_total",
            "Ingests refused by admission control",
            label="reason",
        ),
    )

    tenant: str = ""
    reason: str = "saturated"


@dataclass(frozen=True)
class BreakerTransitionEvent(ObsEvent):
    """A per-tenant circuit breaker changed state.

    States are ``closed`` (consults flow), ``open`` (consults skipped,
    allocation held) and ``half_open`` (one probe consult allowed).
    ``failures`` is the consecutive-failure count that drove the
    transition.
    """

    kind: ClassVar[str] = "breaker_transition"
    discriminator = "{tenant}:{to_state}"
    metrics = (
        MetricEffect(
            "serve_breaker_transitions_total",
            "Circuit-breaker transitions by target state",
            label="to_state",
        ),
    )

    tenant: str = ""
    from_state: str = "closed"
    to_state: str = "open"
    failures: int = 0


@dataclass(frozen=True)
class TenantRestartEvent(ObsEvent):
    """The supervisor restarting a crashed tenant task.

    ``action="scheduled"`` records the crash and the backoff chosen for
    it; ``action="completed"`` records the tenant resuming after the
    backoff elapsed (its loop reset via
    :meth:`~repro.cluster.resilience.ResilientControlLoop.reset`).
    """

    kind: ClassVar[str] = "tenant_restart"
    discriminator = "{tenant}:{action}:{attempt}"
    metrics = (
        MetricEffect(
            "serve_restarts_total",
            "Supervisor tenant restarts by phase",
            label="action",
        ),
    )

    tenant: str = ""
    attempt: int = 0
    backoff_ticks: int = 0
    action: str = "scheduled"
    error: str = ""


@dataclass(frozen=True)
class TenantQuarantineEvent(ObsEvent):
    """A flapping tenant entering/leaving supervisor quarantine.

    ``restarts`` is the restart count inside the flap-detection window
    that triggered the quarantine (0 on release).
    """

    kind: ClassVar[str] = "tenant_quarantine"
    discriminator = "{tenant}:{action}"
    metrics = (
        MetricEffect(
            "serve_quarantines_total", "Tenant quarantine transitions", label="action"
        ),
    )

    tenant: str = ""
    action: str = "enter"  # "enter" | "exit"
    restarts: int = 0


@dataclass(frozen=True)
class DrainEvent(ObsEvent):
    """Graceful drain lifecycle (``action``: ``begin``/``complete``).

    Between the two events the plane stops admitting telemetry,
    finishes in-flight decisions and snapshots its state.
    """

    kind: ClassVar[str] = "drain"
    discriminator = "{action}"
    metrics = (
        MetricEffect("serve_drains_total", "Graceful drains by phase", label="action"),
    )

    action: str = "begin"
    reason: str = ""
    pending: int = 0


@dataclass(frozen=True)
class StateRecoveredEvent(ObsEvent):
    """Crash-safe state replayed on startup (``minute`` is the recovered tick).

    ``recovered_tenants`` is the number of tenants rebuilt from the
    journal/snapshot; ``records`` the input records replayed;
    ``snapshot_tick`` the tick of the compacted snapshot the replay
    started from (0 when recovery used the journal alone).
    """

    kind: ClassVar[str] = "state_recovered"
    metrics = (
        MetricEffect(
            "serve_recovered_tenants",
            "Tenants rebuilt by the most recent state recovery",
            kind="gauge",
            value="recovered_tenants",
        ),
    )

    recovered_tenants: int = 0
    records: int = 0
    snapshot_tick: int = 0


@dataclass(frozen=True)
class PodScheduledEvent(ObsEvent):
    """A pod bound to a node by the capacity placement engine.

    ``outcome`` is ``"placed"`` (fresh placement off the pending queue)
    or ``"migrated"`` (preemption-free move — drain or a resize that no
    longer fit its node).
    """

    kind: ClassVar[str] = "pod_scheduled"
    discriminator = "{pod}:{outcome}"
    metrics = (
        MetricEffect(
            "capacity_placements_total",
            "Pods bound by the capacity placement engine",
            label="outcome",
        ),
    )

    pod: str = ""
    node: str = ""
    outcome: str = "placed"
    requested_millicores: int = 0
    reason: str = ""


@dataclass(frozen=True)
class PodPendingEvent(ObsEvent):
    """A pod found no node this minute and queued as pending pressure.

    ``reason`` is ``"no-fit"`` for an unplaceable pod. Sustained
    pending pressure is what drives the node-pool autoscaler's
    scale-out decision.
    """

    kind: ClassVar[str] = "pod_pending"
    discriminator = "{pod}"
    metrics = (
        MetricEffect(
            "capacity_pending_pod_minutes_total",
            "Pod-minutes spent waiting for capacity",
        ),
    )

    pod: str = ""
    requested_millicores: int = 0
    reason: str = "no-fit"


@dataclass(frozen=True)
class NodePoolEvent(ObsEvent):
    """The node pool changed shape.

    ``action`` is ``"scale_out"`` (a VM was requested), ``"provisioned"``
    (its boot completed and it joined the pool), ``"scale_in"`` (a node
    was chosen for drain by low utilization) or ``"removed"`` (a drained
    node released). ``node_count`` is the ready-pool size after the
    action.
    """

    kind: ClassVar[str] = "node_pool"
    discriminator = "{node}:{action}"
    metrics = (
        MetricEffect(
            "capacity_node_pool_total",
            "Node-pool shape changes by action",
            label="action",
        ),
        MetricEffect(
            "capacity_nodes",
            "Ready nodes in the capacity pool",
            kind="gauge",
            value="node_count",
        ),
    )

    action: str = "scale_out"
    node: str = ""
    node_count: int = 0
    reason: str = ""


@dataclass(frozen=True)
class NodeDrainEvent(ObsEvent):
    """Cordon-and-drain lifecycle on one node.

    ``action`` is ``"cordon"`` (drain requested; no new pods admitted),
    ``"waiting"`` (pods still aboard — mid-rollout tenants and pods
    without a destination are never evicted) or ``"complete"``.
    """

    kind: ClassVar[str] = "node_drain"
    discriminator = "{node}:{action}"
    metrics = (
        MetricEffect(
            "capacity_drains_total", "Node cordon/drain lifecycle steps", label="action"
        ),
    )

    node: str = ""
    action: str = "cordon"
    remaining_pods: int = 0
    reason: str = ""


@dataclass(frozen=True)
class NodeContentionEvent(ObsEvent):
    """One node-minute of co-located demand above allocatable CPU.

    ``throttled_cores`` is the overage water-filled away across the
    node's ``pods`` serving pods — CPU each affected tenant demanded
    but did not receive, which its recommender then mis-reads as slack.
    """

    kind: ClassVar[str] = "node_contention"
    discriminator = "{node}"
    metrics = (
        MetricEffect(
            "capacity_contention_core_minutes_total",
            "CPU core-minutes water-filled away by node contention",
            value="throttled_cores",
        ),
    )

    node: str = ""
    demand_cores: float = 0.0
    capacity_cores: float = 0.0
    throttled_cores: float = 0.0
    pods: int = 0


@dataclass(frozen=True)
class EngineBatchEvent(ObsEvent):
    """One :class:`~repro.engine.batch.BatchEngine` batch completed.

    Not tied to a simulated minute (``minute`` is 0). ``vector_lanes``
    ran on the SoA kernels, ``scalar_lanes`` fell back to the scalar
    oracle (non-vectorizable configs), and ``cache_hits`` were served
    from the result store without simulating at all; the three sum to
    ``lanes``. ``cohorts`` is how many kernel groups the vector lanes
    split into (lanes sharing curve geometry step together).
    """

    kind: ClassVar[str] = "engine_batch"
    discriminator = "{lanes}"
    metrics = (
        MetricEffect(
            "engine_lanes_total",
            "Traces simulated by the batch engine (any path)",
            value="lanes",
        ),
        MetricEffect(
            "engine_vector_lanes_total",
            "Traces simulated on the vectorized SoA kernels",
            value="vector_lanes",
        ),
        MetricEffect(
            "engine_scalar_fallback_lanes_total",
            "Batch lanes that fell back to the scalar oracle",
            value="scalar_lanes",
        ),
    )

    lanes: int = 0
    vector_lanes: int = 0
    scalar_lanes: int = 0
    cache_hits: int = 0
    cohorts: int = 0
    elapsed_seconds: float = 0.0


def event_from_dict(payload: dict[str, Any]) -> ObsEvent:
    """Reconstruct a typed event from its :meth:`ObsEvent.to_dict` form.

    Unknown ``kind`` values raise ``KeyError`` — a trace produced by a
    newer schema should fail loudly rather than be silently dropped.
    """
    data = dict(payload)
    kind = data.pop("kind")
    cls = _EVENT_TYPES[kind]
    return cls(**data)


#: A sink is anything callable with one event, or exposing ``accept``.
Sink = Callable[[ObsEvent], None]


class EventBus:
    """Fans each emitted event out to every subscribed sink, in order.

    Sinks are either plain callables or objects with an
    ``accept(event)`` method (duck-typed so sinks need not import this
    module). A sink that raises propagates — telemetry bugs should fail
    tests, not vanish.
    """

    def __init__(self, sinks: tuple[Sink, ...] | list[Sink] = ()) -> None:
        self.sinks: list[Any] = []
        self._sinks: list[Sink] = []
        for sink in sinks:
            self.subscribe(sink)

    @staticmethod
    def _as_callable(sink: Any) -> Sink:
        accept = getattr(sink, "accept", None)
        return accept if callable(accept) else sink

    def subscribe(self, sink: Any) -> None:
        """Add a sink; it receives every subsequent event."""
        self.sinks.append(sink)
        self._sinks.append(self._as_callable(sink))

    def emit(self, event: ObsEvent) -> None:
        """Deliver one event to every sink."""
        for sink in self._sinks:
            sink(event)

    def __len__(self) -> int:
        return len(self._sinks)


@dataclass
class RingBufferSink:
    """Bounded in-memory sink: keeps the most recent ``capacity`` events."""

    capacity: int = 4096
    _events: deque[ObsEvent] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        self._events = deque(maxlen=self.capacity)

    def accept(self, event: ObsEvent) -> None:
        self._events.append(event)

    @property
    def events(self) -> list[ObsEvent]:
        """Retained events, oldest first."""
        return list(self._events)

    def of_kind(self, kind: str) -> list[ObsEvent]:
        """Retained events of one kind, oldest first."""
        return [event for event in self._events if event.kind == kind]

    def clear(self) -> None:
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[ObsEvent]:
        return iter(self._events)


class LoggingSink:
    """Bridge events onto a stdlib :mod:`logging` logger.

    Lets deployments that already aggregate python logs pick up the
    decision trail with zero new plumbing.
    """

    def __init__(
        self,
        logger: logging.Logger | None = None,
        level: int = logging.INFO,
    ) -> None:
        self.logger = logger or logging.getLogger("repro.obs")
        self.level = level

    def accept(self, event: ObsEvent) -> None:
        self.logger.log(
            self.level,
            "[minute %d] %s %s",
            event.minute,
            event.kind,
            event.to_dict(),
        )
