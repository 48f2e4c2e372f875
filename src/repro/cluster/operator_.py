"""The database operator: rolling updates with restart (§2.2, §3.1).

"This process involves adjusting one pod in the stateful set at a time by
deallocating the pod and rescheduling it [...] the operator policy
prioritizes updating the initial primary replica last to avoid additional
client failovers."

The operator owns:

- the primary role (which replica serves writes),
- rolling updates: restart one outdated replica at a time, secondaries
  first, primary last,
- failover: before the primary restarts, the role moves to an
  already-updated secondary (connection-dropping event),
- restart pacing: each pod restart takes a configurable number of
  minutes, so a 3-replica resize naturally lands in the paper's 5–15
  minute window.

The *client-visible* allocation is the primary's spec: "deferring the
update of the initial primary replica may result in a delay before users
experience the new resource allocations" — this is exactly how resize
latency emerges in the live simulation rather than being configured.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import TYPE_CHECKING

from ..errors import ClusterStateError, ConfigError
from ..obs.events import ResizeEvent
from .events import EventKind, EventLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.observer import Observer
from .pod import Pod, PodPhase
from .resources import ResourceSpec
from .statefulset import StatefulSet

__all__ = ["DbOperator", "RollingUpdate"]


@dataclass
class RollingUpdate:
    """State of one in-flight rolling update.

    Attributes
    ----------
    target_spec:
        The declared spec being rolled out.
    queue:
        Ordinals still to restart, in order (secondaries first).
    started_minute:
        When the update began.
    restarts_done:
        Completed pod restarts so far.
    update_id:
        Monotonic per-operator identity correlating this update's
        decided/started/finished/aborted events.
    prev_spec:
        The spec in force before this update — the rollback target if
        the rollout wedges and the watchdog aborts it.
    """

    target_spec: ResourceSpec
    queue: list[int]
    started_minute: int
    restarts_done: int = 0
    update_id: int = 0
    prev_spec: ResourceSpec | None = None


class DbOperator:
    """HA-aware controller for one database stateful set.

    Parameters
    ----------
    stateful_set:
        The set to manage.
    restart_minutes_per_pod:
        Minutes each pod restart takes (Database A: ~4-5 per pod across 3
        replicas ⇒ 10–15 min total; Database B: ~2 per pod across 2).
    primary_ordinal:
        Which replica starts as primary (default 0).
    in_place_resize:
        When True, spec changes are applied to running pods without
        restarts — the "In-Place Update of Pod Resources" K8s feature the
        paper plans to adopt (§8; footnote 10: "neither the scale-up lag
        nor failed transactions occur"). No failovers, no restart drops,
        limits effective immediately.
    """

    def __init__(
        self,
        stateful_set: StatefulSet,
        restart_minutes_per_pod: int = 4,
        primary_ordinal: int = 0,
        in_place_resize: bool = False,
    ) -> None:
        if restart_minutes_per_pod < 1:
            raise ConfigError(
                f"restart_minutes_per_pod must be >= 1, got "
                f"{restart_minutes_per_pod}"
            )
        if not 0 <= primary_ordinal < stateful_set.replicas:
            raise ConfigError(
                f"primary_ordinal {primary_ordinal} outside replica range"
            )
        self.stateful_set = stateful_set
        self.restart_minutes_per_pod = restart_minutes_per_pod
        self.primary_ordinal = primary_ordinal
        self.in_place_resize = in_place_resize
        self.update: RollingUpdate | None = None
        self.failover_count = 0
        #: Optional telemetry hook (set by the control loop): reports
        #: each completed rollout as an enacted-resize event, closing
        #: the decide→enact latency loop of the audit trail.
        self.observer: "Observer | None" = None
        #: Optional fault-injection seam (set by the resilient control
        #: loop): consulted for the duration of each pod restart, so
        #: chaos plans can slow or hang rollouts.
        self.faults = None
        self._update_from_cores: float | None = None
        self._update_counter = 0

    # -- roles ---------------------------------------------------------------------

    @property
    def primary(self) -> Pod:
        """The current primary replica's pod."""
        return self.stateful_set.pod(self.primary_ordinal)

    def secondaries(self) -> list[Pod]:
        """All non-primary pods, by ordinal."""
        return [
            pod
            for pod in self.stateful_set.pods
            if pod.ordinal != self.primary_ordinal
        ]

    @property
    def client_visible_limit_cores(self) -> float:
        """The allocation clients experience: the primary's enacted limits."""
        return self.primary.spec.limit_cores

    @property
    def update_in_progress(self) -> bool:
        """True while a rolling update is running."""
        return self.update is not None

    @property
    def next_update_id(self) -> int:
        """Identity the next :meth:`begin_update` call will be assigned.

        The scaler stamps its ``RESIZE_DECIDED`` event with this before
        starting the update, so decisions and completions correlate by
        id rather than by fragile event ordering.
        """
        return self._update_counter + 1

    # -- rolling updates -------------------------------------------------------------

    def begin_update(
        self, new_spec: ResourceSpec, minute: int, events: EventLog
    ) -> bool:
        """Declare a new spec and start reconciling; returns True if started.

        A no-op (returns False) when the spec already matches everywhere.
        Starting while another update is in flight is a caller bug — the
        scaler must wait (§3.1's resize window) — and raises.
        """
        if self.update is not None:
            raise ClusterStateError(
                f"{self.stateful_set.name}: rolling update already in progress"
            )
        self._update_from_cores = self.client_visible_limit_cores
        prev_spec = self.stateful_set.spec
        self.stateful_set.declare_spec(new_spec)
        outdated = self.stateful_set.pods_needing_update()
        if not outdated:
            return False
        self._update_counter += 1
        if self.in_place_resize:
            self._apply_in_place(new_spec, outdated, minute, events)
            return True
        # Secondaries first, in ordinal order; the primary is always last
        # even if a secondary currently holds the primary role.
        queue = sorted(
            (pod.ordinal for pod in outdated),
            key=lambda ordinal: (ordinal == self.primary_ordinal, ordinal),
        )
        self.update = RollingUpdate(
            target_spec=new_spec,
            queue=queue,
            started_minute=minute,
            update_id=self._update_counter,
            prev_spec=prev_spec,
        )
        events.record(
            minute,
            EventKind.ROLLING_UPDATE_STARTED,
            self.stateful_set.name,
            f"rolling update to {new_spec.limit_cores:.0f} cores "
            f"({len(queue)} pods)",
            cores=new_spec.limit_cores,
            pods=len(queue),
            update_id=self._update_counter,
        )
        self._maybe_start_next_restart(minute, events)
        return True

    def _apply_in_place(
        self,
        new_spec: ResourceSpec,
        outdated: list[Pod],
        minute: int,
        events: EventLog,
    ) -> None:
        """Resize every pod's cgroup without restarting (K8s [32])."""
        events.record(
            minute,
            EventKind.ROLLING_UPDATE_STARTED,
            self.stateful_set.name,
            f"in-place resize to {new_spec.limit_cores:.0f} cores "
            f"({len(outdated)} pods, no restarts)",
            cores=new_spec.limit_cores,
            pods=len(outdated),
            in_place=True,
            update_id=self._update_counter,
        )
        for pod in outdated:
            pod.container.spec = new_spec
            events.record(
                minute,
                EventKind.RESIZE_ENACTED,
                pod.name,
                f"in-place resize to {new_spec.limit_cores:.0f} cores",
                cores=new_spec.limit_cores,
            )
        events.record(
            minute,
            EventKind.ROLLING_UPDATE_FINISHED,
            self.stateful_set.name,
            "in-place resize complete in 0 min",
            minutes=0,
            in_place=True,
            update_id=self._update_counter,
        )
        self._emit_enacted(minute, minute, new_spec.limit_cores)

    def _maybe_start_next_restart(self, minute: int, events: EventLog) -> None:
        """Kick off the next queued restart if no pod is mid-restart."""
        update = self.update
        if update is None or not update.queue:
            return
        if any(
            pod.phase is PodPhase.RESTARTING for pod in self.stateful_set.pods
        ):
            return
        ordinal = update.queue[0]
        pod = self.stateful_set.pod(ordinal)
        if ordinal == self.primary_ordinal and self.stateful_set.replicas > 1:
            self._failover(minute, events)
        update.queue.pop(0)
        duration = self.restart_minutes_per_pod
        if self.faults is not None:
            duration = self.faults.restart_duration(minute, duration)
        pod.begin_restart(update.target_spec, duration)
        events.record(
            minute,
            EventKind.POD_RESTART_STARTED,
            pod.name,
            f"restarting for resize to {update.target_spec.limit_cores:.0f} cores",
            cores=update.target_spec.limit_cores,
        )

    def _failover(self, minute: int, events: EventLog) -> None:
        """Move the primary role to a healthy, already-updated secondary."""
        candidates = [
            pod
            for pod in self.secondaries()
            if pod.is_serving and pod.spec == self.stateful_set.spec
        ]
        if not candidates:
            candidates = [pod for pod in self.secondaries() if pod.is_serving]
        if not candidates:
            # Single replica or everything down: clients ride out the
            # restart with no failover target.
            return
        new_primary = candidates[0]
        old = self.primary_ordinal
        self.primary_ordinal = new_primary.ordinal
        self.failover_count += 1
        events.record(
            minute,
            EventKind.FAILOVER,
            self.stateful_set.name,
            f"primary failed over {old} -> {new_primary.ordinal}",
            from_ordinal=old,
            to_ordinal=new_primary.ordinal,
        )

    def tick(self, minute: int, events: EventLog) -> None:
        """Advance restarts by one minute and progress the update queue."""
        for pod in self.stateful_set.pods:
            if pod.tick_restart():
                events.record(
                    minute,
                    EventKind.POD_RESTART_FINISHED,
                    pod.name,
                    f"running with {pod.spec.limit_cores:.0f} cores",
                    cores=pod.spec.limit_cores,
                )
        update = self.update
        if update is None:
            return
        self._maybe_start_next_restart(minute, events)
        done = not update.queue and not any(
            pod.phase is PodPhase.RESTARTING for pod in self.stateful_set.pods
        )
        if done:
            duration = minute - update.started_minute
            events.record(
                minute,
                EventKind.ROLLING_UPDATE_FINISHED,
                self.stateful_set.name,
                f"rolling update complete in {duration} min",
                minutes=duration,
                update_id=update.update_id,
            )
            self._emit_enacted(
                minute, update.started_minute, update.target_spec.limit_cores
            )
            self.update = None

    def abort_update(self, minute: int, events: EventLog) -> ResourceSpec:
        """Roll a stuck update back to the spec in force before it began.

        The rollout watchdog's escape hatch: restarting pods recover
        immediately at the previous (known-healthy) spec, pods that
        already moved to the target spec are reverted in place (a cgroup
        limit revert is cheap — no further restart is modelled), the
        declaration returns to the previous spec and the update is
        discarded. Returns the restored spec.
        """
        update = self.update
        if update is None:
            raise ClusterStateError(
                f"{self.stateful_set.name}: no rolling update to abort"
            )
        prev = update.prev_spec if update.prev_spec is not None else (
            self.stateful_set.spec
        )
        self.stateful_set.declare_spec(prev)
        for pod in self.stateful_set.pods:
            if pod.phase is PodPhase.RESTARTING:
                pod.container.spec = prev
                pod.phase = PodPhase.RUNNING
                pod.restart_remaining_minutes = 0
            elif pod.spec != prev:
                pod.container.spec = prev
        stuck = minute - update.started_minute
        events.record(
            minute,
            EventKind.ROLLING_UPDATE_ABORTED,
            self.stateful_set.name,
            f"rolling update aborted after {stuck} min; rolled back to "
            f"{prev.limit_cores:.0f} cores",
            minutes=stuck,
            cores=prev.limit_cores,
            update_id=update.update_id,
        )
        self.update = None
        self._update_from_cores = None
        return prev

    def _emit_enacted(
        self, minute: int, decided_minute: int, to_cores: float
    ) -> None:
        """Report one completed rollout to the attached observer."""
        if self.observer is None:
            return
        from_cores = self._update_from_cores
        self._update_from_cores = None
        self.observer.emit(
            ResizeEvent(
                minute=minute,
                decided_minute=decided_minute,
                from_cores=int(round(from_cores if from_cores is not None else 0)),
                to_cores=int(round(to_cores)),
            )
        )
