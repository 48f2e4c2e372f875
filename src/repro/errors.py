"""Exception hierarchy for the CaaSPER reproduction.

Every error raised by this package derives from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigError(ReproError):
    """An algorithm or simulator configuration is invalid.

    Raised eagerly at construction time (e.g. a negative threshold, a
    minimum core count above the maximum) so that misconfiguration never
    silently produces nonsense scaling decisions.
    """


class TraceError(ReproError):
    """A CPU trace is malformed (empty, negative usage, NaN samples...)."""


class ForecastError(ReproError):
    """A forecaster cannot produce a prediction.

    Typical causes: not enough history for the requested seasonal period,
    or a horizon of zero. Callers in proactive mode treat this as a signal
    to fall back to purely reactive behaviour, mirroring the paper's
    "period 1 operates reactively" rule (§4.3).
    """


class DegradedModeError(ReproError):
    """A component failed in a way the control plane should absorb.

    The resilient control loop catches this (and every other
    :class:`ReproError` raised during a recommender consultation) and
    degrades — holding the last decision or falling back to reactive
    mode — instead of crashing the run. This generalises the existing
    ``ForecastError`` → reactive rule (§4.3) to all components.
    """


class FaultError(DegradedModeError):
    """An injected fault fired (:mod:`repro.faults`).

    Raised by fault injectors at component seams during chaos runs.
    Subclasses :class:`DegradedModeError` so the hardened control plane
    treats injected failures exactly like organic ones: quarantine the
    component, hold the last known-good decision, keep running.
    """


class SchedulingError(ReproError):
    """The cluster scheduler cannot place a pod.

    Mirrors a K8s ``Unschedulable`` condition: no node has enough
    allocatable CPU to satisfy the pod's ``requests``.
    """


class ClusterStateError(ReproError):
    """An operation is invalid for the current cluster/pod state.

    For example, resizing a stateful set that is mid rolling-update, or
    starting a pod that is not Pending.
    """


class SimulationError(ReproError):
    """The simulator was driven with inconsistent inputs.

    For example, a workload shorter than the simulation horizon or a
    recommender that returned a non-integer core count.
    """


class EngineError(ReproError):
    """The vectorized batch engine cannot run on this host.

    Raised by :mod:`repro.engine` at import time when the installed numpy
    is older than the tested floor, and at call time for caller-side
    problems (a job batch mixing incompatible shapes). Numerical trouble
    never raises: when the engine's self-check cannot certify that a
    vectorized kernel reproduces the scalar oracle bit-for-bit on this
    numpy build, it silently falls back to the scalar path, because an
    uncertifiable fast path must degrade to slow, not to wrong.
    """


class TuningError(ReproError):
    """Parameter search was configured with an empty or invalid space."""


class StoreError(ReproError):
    """The result store was misconfigured or asked to cache the uncacheable.

    Raised by :mod:`repro.store` for caller-side problems — a key
    requested for a value that has no canonical content signature, a
    negative size budget. Blob-level trouble (a corrupt or torn file, a
    checksum mismatch, a payload that does not unpack) never raises:
    the store treats it as a cache miss and recomputes, because a
    damaged cache must degrade to slow, not to wrong or crashed.
    """


class FleetError(ReproError):
    """A fleet-scale run was misconfigured or could not be merged.

    Raised by :mod:`repro.fleet` for plan-level problems — duplicate job
    ids, a checkpoint journal written by a *different* plan, a merge
    requested over failed jobs. Individual job crashes never raise this
    during a run; they are captured as typed
    :class:`~repro.fleet.jobs.JobFailure` records instead.
    """


class ServeError(ReproError):
    """The serve control plane was misconfigured or its state is unusable.

    Raised by :mod:`repro.serve` for operator-side problems — a state
    directory written by a different configuration (signature mismatch),
    a recovery replay that disagrees with its committed audit, a tenant
    registered twice. Individual tenant crashes never raise this during
    a run; the supervision tree captures them and restarts or
    quarantines the tenant instead.
    """


class SanitizerError(ReproError):
    """A runtime sanitizer observed a violated invariant.

    Raised by :mod:`repro.sanitize` when an armed sanitizer catches a
    forbidden call at the moment it happens — a wall-clock read from a
    deterministic domain, an event-loop callback stalling past its
    deterministic threshold, a fleet plan whose seeds change across a
    process boundary. The message always names the offender (module,
    function, target) so the report is actionable without a debugger.
    """


class CapacityError(ReproError):
    """The cluster-capacity layer was misconfigured or its state broke.

    Raised by :mod:`repro.capacity` for operator-side problems — a node
    indexed twice, a drain requested for an unknown node, a scenario
    whose tenants cannot ever fit the configured pool. Placement
    *pressure* (a pod that does not fit right now) never raises during a
    run; it queues as pending demand and feeds the node-pool autoscaler
    instead.
    """
