"""Node-pool autoscaler: horizontal capacity driven by vertical demand.

The cluster-wide counterpart of CaaSPER's per-tenant loop. Aggregate
signals — pending pods and capacity-blocked resize-ups — accumulate
into *pressure*; pressure sustained past a streak threshold provisions
nodes (with a boot delay, billed from the start minute). Sustained low
utilization triggers scale-in: the emptiest eligible node is cordoned
and drained, pods migrating preemption-free, and the node is released
only once empty. Two safety rules are absolute:

- a drain never evicts a pod whose tenant has a resize in flight
  ("never mid-rollout" — the rolling update must land first);
- a pod leaves its node only after a destination is reserved, so a
  drain can stall but can never strand.

Billing is per node-minute at the template's hourly price: every minute
a VM exists (provisioning, ready, or draining) is a charged minute,
which is exactly why scale-in exists at all.
"""

from __future__ import annotations

from typing import Callable

from ..cluster.node import Node
from ..cluster.pod import Pod
from ..errors import SchedulingError
from ..obs import Observer
from ..obs.events import NodeDrainEvent, NodePoolEvent
from .model import CapacityConfig
from .placement import PlacementEngine

__all__ = ["NodePoolAutoscaler"]


class NodePoolAutoscaler:
    """Scale a :class:`PlacementEngine`'s pool out and in."""

    def __init__(
        self,
        config: CapacityConfig,
        placement: PlacementEngine,
        observer: Observer | None = None,
    ) -> None:
        self.config = config
        self.placement = placement
        self.observer = observer
        #: ``(ready_minute, name)`` for VMs booting, in request order.
        self.provisioning: list[tuple[int, str]] = []
        #: Nodes cordoned and being emptied, in drain-request order.
        self.draining: list[str] = []
        self._next_ordinal = 0
        self._pressure_streak = 0
        self._idle_streak = 0
        self.node_minutes = 0
        self.scale_out_events = 0
        self.scale_in_events = 0
        self.drains_completed = 0

    # -- pool construction --------------------------------------------------------

    def _new_node(self) -> Node:
        name = f"node-{self._next_ordinal:03d}"
        self._next_ordinal += 1
        return self._new_node_named(name)

    def bootstrap(self) -> None:
        """Stand up the initial pool (ready at minute 0, no boot delay)."""
        for _ in range(self.config.initial_nodes):
            self.placement.register_node(self._new_node())

    # -- accounting ---------------------------------------------------------------

    @property
    def ready_count(self) -> int:
        return len(self.placement.nodes)

    @property
    def billable_count(self) -> int:
        """VMs costing money this minute (booting ones included)."""
        return len(self.placement.nodes) + len(self.provisioning)

    @property
    def dollars(self) -> float:
        """Accumulated bill at the template's node-hour price."""
        return self.node_minutes / 60.0 * self.config.node_template.price_per_hour

    def charge(self) -> None:
        """Accrue one minute of bill for every live VM."""
        self.node_minutes += self.billable_count

    # -- per-minute progression ---------------------------------------------------

    def tick_provisioning(self, minute: int) -> list[str]:
        """Join VMs whose boot completed; returns the joined names."""
        joined: list[str] = []
        still_booting: list[tuple[int, str]] = []
        for ready_minute, name in self.provisioning:
            if ready_minute <= minute:
                self.placement.register_node(self._new_node_named(name))
                joined.append(name)
                if self.observer is not None:
                    self.observer.emit(
                        NodePoolEvent(
                            minute=minute,
                            action="provisioned",
                            node=name,
                            node_count=self.ready_count,
                        )
                    )
            else:
                still_booting.append((ready_minute, name))
        self.provisioning = still_booting
        return joined

    def _new_node_named(self, name: str) -> Node:
        template = self.config.node_template
        return Node(
            name=name,
            cpu_cores=template.cpu_cores,
            memory_mb=template.memory_mb,
            system_reserved_millicores=template.system_reserved_millicores,
        )

    def tick_drains(
        self, minute: int, in_rollout: Callable[[Pod], bool]
    ) -> list[str]:
        """Advance every active drain; returns nodes released this minute.

        Pods migrate preemption-free; a pod mid-rollout (``in_rollout``)
        or without a destination simply waits — the drain stalls rather
        than stranding or interrupting anyone.
        """
        released: list[str] = []
        still_draining: list[str] = []
        for name in self.draining:
            node = self.placement.node_by_name(name)
            for pod in list(node.pods):
                if not pod.is_serving or in_rollout(pod):
                    continue
                self.placement.migrate(pod, minute, reason=f"drain:{name}")
            if node.pods:
                still_draining.append(name)
                if self.observer is not None:
                    self.observer.emit(
                        NodeDrainEvent(
                            minute=minute,
                            node=name,
                            action="waiting",
                            remaining_pods=len(node.pods),
                        )
                    )
            else:
                self.placement.deregister_node(name)
                self.drains_completed += 1
                released.append(name)
                if self.observer is not None:
                    self.observer.emit(
                        NodeDrainEvent(minute=minute, node=name, action="complete")
                    )
                    self.observer.emit(
                        NodePoolEvent(
                            minute=minute,
                            action="removed",
                            node=name,
                            node_count=self.ready_count,
                        )
                    )
        self.draining = still_draining
        return released

    # -- decisions ----------------------------------------------------------------

    def request_drain(self, name: str, minute: int, reason: str) -> bool:
        """Cordon a node and queue it for draining (scenario or scale-in)."""
        if name in self.draining:
            return False
        try:
            self.placement.node_by_name(name)
        except SchedulingError:
            return False
        self.placement.cordon(name)
        self.draining.append(name)
        if self.observer is not None:
            self.observer.emit(
                NodeDrainEvent(minute=minute, node=name, action="cordon", reason=reason)
            )
        return True

    def evaluate(
        self,
        minute: int,
        pending_millicores: int,
        in_rollout: Callable[[Pod], bool],
    ) -> None:
        """One minute of scale-out/scale-in policy."""
        self._evaluate_scale_out(minute, pending_millicores)
        self._evaluate_scale_in(minute, pending_millicores, in_rollout)

    def _evaluate_scale_out(self, minute: int, pending_millicores: int) -> None:
        if pending_millicores <= 0:
            self._pressure_streak = 0
            return
        self._pressure_streak += 1
        if self._pressure_streak < self.config.scale_out_after_pending_minutes:
            return
        allocatable = self.config.node_template.allocatable_millicores
        wanted = -(-pending_millicores // allocatable)  # ceil division
        headroom = self.config.max_nodes - self.billable_count
        to_add = min(wanted, headroom)
        if to_add <= 0:
            return
        for _ in range(to_add):
            name = f"node-{self._next_ordinal:03d}"
            self._next_ordinal += 1
            self.provisioning.append(
                (minute + self.config.node_provision_minutes, name)
            )
            self.scale_out_events += 1
            if self.observer is not None:
                self.observer.emit(
                    NodePoolEvent(
                        minute=minute,
                        action="scale_out",
                        node=name,
                        node_count=self.ready_count,
                        reason=f"pending:{pending_millicores}m",
                    )
                )
        self._pressure_streak = 0

    def _evaluate_scale_in(
        self,
        minute: int,
        pending_millicores: int,
        in_rollout: Callable[[Pod], bool],
    ) -> None:
        allocatable = sum(
            node.allocatable_millicores for node in self.placement.nodes
        )
        requested = allocatable - self.placement.total_free_millicores()
        utilization = requested / allocatable if allocatable else 1.0
        busy = (
            pending_millicores > 0
            or self.provisioning
            or self.draining
            or utilization >= self.config.scale_in_below_utilization
        )
        if busy:
            self._idle_streak = 0
            return
        self._idle_streak += 1
        if self._idle_streak < self.config.scale_in_after_minutes:
            return
        if self.ready_count - len(self.draining) <= self.config.min_nodes:
            return
        victim = self._scale_in_victim(in_rollout)
        if victim is None:
            return
        self.scale_in_events += 1
        self.request_drain(victim, minute, reason="scale-in")
        if self.observer is not None:
            self.observer.emit(
                NodePoolEvent(
                    minute=minute,
                    action="scale_in",
                    node=victim,
                    node_count=self.ready_count,
                    reason=f"utilization:{utilization:.3f}",
                )
            )
        self._idle_streak = 0

    def _scale_in_victim(self, in_rollout: Callable[[Pod], bool]) -> str | None:
        """Emptiest node whose every pod can move and none is mid-rollout.

        The fit check runs with the candidate cordoned, so a pod's
        destination is always *another* node; on any miss the cordon is
        rolled back and no scale-in happens this minute.
        """
        for name, _free in reversed(self.placement.index.snapshot()):
            if name in self.placement.cordoned:
                continue
            node = self.placement.node_by_name(name)
            if any(not pod.is_serving or in_rollout(pod) for pod in node.pods):
                continue
            self.placement.cordon(name)
            movable = all(
                self.placement.find_node_for(pod.spec, ignore_pod=pod)
                is not None
                for pod in node.pods
            )
            self.placement.uncordon(name)
            if movable:
                return name
        return None
