"""The cluster engine: many CaaSPER loops competing for shared nodes.

Each tenant runs the paper's control loop — observe every minute,
consult at its decision interval, enact after the rolling-update delay
— but enactment now goes through cluster capacity:

- a resize-up that fit its node *as the loop last observed it* (the
  minute-start snapshot) is committed in place — co-located loops
  enacting the same minute race that stale view, so simultaneous
  resize-ups can collectively overcommit a node;
- one that does not fit triggers a preemption-free migration;
- one that fits *nowhere* becomes a capacity-deferred resize, retried
  every minute and counted as pressure feeding the node-pool
  autoscaler, until it lands or times out.

Contention closes the loop the paper leaves open (§2.2): when
co-located pods' capped demands exceed a node's effective allocatable
CPU (overcommitted by racing resize-ups, or shrunk by
:class:`~repro.faults.plan.NodeFault` pressure when a chaos plan is
attached), delivery is water-filled and each tenant's recommender
observes the *throttled* usage — so cluster contention corrupts
exactly the signal CaaSPER scales on, and CaaSPER's own downscaling
of the resulting slack is what unwinds the overcommit.

Everything is a pure function of the scenario (workloads, config,
seed): no wall clock, no shared RNG, deterministic iteration order
throughout — two runs serialise byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.pod import Container, Pod, PodPhase
from ..cluster.resources import MILLICORES_PER_CORE, ResourceSpec
from ..core import CaasperConfig, CaasperRecommender
from ..faults.plan import NodeFault, _mix
from ..obs import Observer
from ..obs.events import (
    DecisionEvent,
    FaultInjectedEvent,
    NodeContentionEvent,
    PodPendingEvent,
    PodScheduledEvent,
    ResizeDeferredEvent,
    ResizeEvent,
)
from .autoscaler import NodePoolAutoscaler
from .contention import water_fill
from .model import CapacityConfig, TenantSpec
from .placement import PlacementEngine
from .results import CapacityResult, ClusterKcn
from .scenarios import CapacityScenario

__all__ = ["ClusterEngine", "run_capacity"]

#: Demand totals within this of capacity are "fits"; guards float dust.
_EPSILON = 1e-9

#: A capacity-deferred resize is abandoned after this many decision
#: intervals, so a tenant blocked at max pool size resumes deciding.
_DEFER_TTL_INTERVALS = 3


def _name_key(name: str) -> int:
    """Stable integer key for a node name (no ``hash()``: PYTHONHASHSEED)."""
    raw = name.encode("utf-8")[:8]
    return int.from_bytes(raw.ljust(8, b"\0"), "big")


@dataclass
class _TenantState:
    """Mutable per-tenant loop state (engine-internal)."""

    spec: TenantSpec
    index: int
    recommender: CaasperRecommender
    pod: Pod
    demand: list[float]
    limit_cores: int
    inflight: tuple[int, int, int] | None = None  # (decided, target, due)
    deferred: tuple[int, int] | None = None  # (decided, target)
    slack: float = 0.0
    insufficient: float = 0.0
    resizes: int = 0
    pending_minutes: int = 0

    def demand_at(self, minute: int) -> float:
        if minute < len(self.demand):
            return self.demand[minute]
        return self.demand[-1]

    @property
    def in_rollout(self) -> bool:
        return self.inflight is not None or self.deferred is not None


class ClusterEngine:
    """One seeded capacity run over a :class:`CapacityScenario`.

    Without an observer, the tenants due at a minute decide together
    through :func:`repro.engine.batch.decide_cohort` — byte-identical
    to one scalar ``recommend`` each. An observed run consults each
    recommender in turn, since only the scalar path emits the
    per-decision derivations.

    Parameters
    ----------
    scenario, observer:
        The seeded scenario and optional telemetry sink.
    """

    def __init__(
        self,
        scenario: CapacityScenario,
        observer: Observer | None = None,
    ) -> None:
        self.scenario = scenario
        self.config: CapacityConfig = scenario.config
        self.observer = observer
        self.placement = PlacementEngine()
        self.autoscaler: NodePoolAutoscaler
        self.tenants: list[_TenantState] = []
        self._by_pod: dict[str, _TenantState] = {}
        self.throttled_minutes = 0
        self.contention_core_minutes = 0.0
        self.deferred_resizes = 0
        self.faults_fired = 0
        self.peak_nodes = 0
        self.histogram = [0] * 10

    # -- construction -------------------------------------------------------------

    def _build(self) -> None:
        self.placement = PlacementEngine()
        self.autoscaler = NodePoolAutoscaler(
            self.config, self.placement, observer=self.observer
        )
        self.autoscaler.bootstrap()
        for index, spec in enumerate(self.scenario.tenants):
            pod = Pod(
                name=f"{spec.name}-0",
                ordinal=0,
                container=Container(
                    name=spec.name,
                    spec=ResourceSpec.whole_cores(
                        spec.initial_cores, memory_mb=spec.pod_memory_mb
                    ),
                ),
            )
            state = _TenantState(
                spec=spec,
                index=index,
                recommender=CaasperRecommender(
                    CaasperConfig(
                        c_min=spec.min_cores, max_cores=spec.max_cores
                    ),
                    keep_decisions=False,
                ),
                pod=pod,
                demand=spec.trace.samples.tolist(),
                limit_cores=spec.initial_cores,
            )
            self.tenants.append(state)
            self._by_pod[pod.name] = state

    def _in_rollout(self, pod: Pod) -> bool:
        state = self._by_pod.get(pod.name)
        return state is not None and state.in_rollout

    # -- fault wiring -------------------------------------------------------------

    def _node_pressure(self, minute: int) -> dict[str, float]:
        """Per-node reserved cores from active :class:`NodeFault` specs.

        A spec with ``target_nodes=None`` presses the whole pool (the
        single-set substrate's semantics); a scoped spec presses a
        per-minute deterministic selection, so chaos hits whole nodes.
        """
        plan = self.scenario.faults
        if plan is None:
            return {}
        pressure: dict[str, float] = {}
        names = sorted(node.name for node in self.placement.nodes)
        for index, spec in enumerate(plan.faults):
            if not isinstance(spec, NodeFault):
                continue
            if not spec.active(plan.seed, index, minute):
                continue
            if spec.target_nodes is None:
                chosen = names
            else:
                ranked = sorted(
                    names,
                    key=lambda name, _index=index: (
                        _mix(plan.seed, _index, minute, _name_key(name)),
                        name,
                    ),
                )
                chosen = ranked[: spec.target_nodes]
            for name in chosen:
                pressure[name] = pressure.get(name, 0.0) + spec.pressure_cores
            self.faults_fired += 1
            if self.observer is not None:
                self.observer.emit(
                    FaultInjectedEvent(
                        minute=minute,
                        fault="node_pressure",
                        target=",".join(chosen),
                        detail=f"{spec.pressure_cores} cores reserved",
                    )
                )
        return pressure

    # -- resize enactment ---------------------------------------------------------

    def _enact(
        self,
        state: _TenantState,
        minute: int,
        decided: int,
        target: int,
        stale_free: dict[str, int],
    ) -> None:
        pod = state.pod
        new_spec = ResourceSpec.whole_cores(
            target, memory_mb=state.spec.pod_memory_mb
        )
        node = self.placement.node_by_name(pod.node_name or "")
        # Each tenant's control loop validated capacity against the
        # node state it *observed at minute start* (``stale_free``), so
        # co-located loops enacting the same minute race: individually
        # each fits, together they can overcommit the node. The commit
        # is forced; the overage surfaces as water-filled throttling,
        # not a scheduling error — which is what a real kubelet's CFS
        # quota does with guaranteed pods racing an in-place resize.
        growth = (
            new_spec.cpu_request_millicores - pod.spec.cpu_request_millicores
        )
        observed_free = stale_free.get(node.name, node.free_millicores)
        if growth <= observed_free or node.can_fit(new_spec, ignore_pod=pod):
            self.placement.resize_in_place(
                pod, new_spec, minute, reason=f"decided@{decided}", force=True
            )
            self._finish_resize(state, minute, decided, target)
            return
        destination = self.placement.migrate(
            pod, minute, reason="resize-capacity", new_spec=new_spec
        )
        if destination is not None:
            if self.observer is not None:
                self.observer.emit(
                    PodScheduledEvent(
                        minute=minute,
                        pod=pod.name,
                        node=destination.name,
                        outcome="migrated",
                        requested_millicores=new_spec.cpu_request_millicores,
                        reason="resize-capacity",
                    )
                )
            self._finish_resize(state, minute, decided, target)
            return
        # Nothing fits anywhere: the resize becomes pressure.
        if state.deferred is None:
            self.deferred_resizes += 1
            if self.observer is not None:
                self.observer.emit(
                    ResizeDeferredEvent(
                        minute=minute,
                        reason="capacity",
                        target_cores=target,
                        decided_minute=decided,
                    )
                )
        state.inflight = None
        state.deferred = (decided, target)

    def _finish_resize(
        self, state: _TenantState, minute: int, decided: int, target: int
    ) -> None:
        if self.observer is not None:
            self.observer.emit(
                ResizeEvent(
                    minute=minute,
                    decided_minute=decided,
                    from_cores=state.limit_cores,
                    to_cores=target,
                )
            )
        state.limit_cores = target
        state.resizes += 1
        state.inflight = None
        state.deferred = None

    def _tick_resizes(self, minute: int) -> None:
        ttl = _DEFER_TTL_INTERVALS * self.config.decision_interval_minutes
        # The stale view every loop enacting this minute races against.
        stale_free = {
            node.name: node.free_millicores for node in self.placement.nodes
        }
        for state in self.tenants:
            if state.deferred is not None:
                decided, target = state.deferred
                if minute - decided > ttl:
                    state.deferred = None
                    if self.observer is not None:
                        self.observer.emit(
                            ResizeDeferredEvent(
                                minute=minute,
                                reason="abandoned",
                                target_cores=target,
                                decided_minute=decided,
                            )
                        )
                    continue
                if state.pod.is_serving:
                    self._enact(state, minute, decided, target, stale_free)
            elif state.inflight is not None:
                decided, target, due = state.inflight
                if due <= minute and state.pod.is_serving:
                    self._enact(state, minute, decided, target, stale_free)

    # -- placement of pending pods ------------------------------------------------

    def _tick_pending(self, minute: int) -> None:
        pending = [
            state
            for state in self.tenants
            if state.pod.phase is PodPhase.PENDING
        ]
        # Best-fit-decreasing: largest requests first, name tiebreak.
        pending.sort(
            key=lambda state: (
                -state.pod.spec.cpu_request_millicores,
                state.spec.name,
            )
        )
        for state in pending:
            node = self.placement.place(
                state.pod, minute, reason="pending-queue"
            )
            if node is not None:
                if self.observer is not None:
                    self.observer.emit(
                        PodScheduledEvent(
                            minute=minute,
                            pod=state.pod.name,
                            node=node.name,
                            outcome="placed",
                            requested_millicores=state.pod.spec.cpu_request_millicores,
                            reason="pending-queue",
                        )
                    )
            else:
                state.pending_minutes += 1
                if self.observer is not None:
                    self.observer.emit(
                        PodPendingEvent(
                            minute=minute,
                            pod=state.pod.name,
                            requested_millicores=state.pod.spec.cpu_request_millicores,
                            reason="no-fit",
                        )
                    )

    # -- the minute loop ----------------------------------------------------------

    def run(self) -> CapacityResult:
        self._build()
        minutes = self.scenario.minutes
        interval = self.config.decision_interval_minutes
        drains = dict(self.scenario.drains)
        for minute in range(minutes):
            self.autoscaler.tick_provisioning(minute)
            self.autoscaler.tick_drains(minute, self._in_rollout)
            if minute in drains:
                self.autoscaler.request_drain(
                    drains[minute], minute, reason="scenario"
                )
            pressure = self._node_pressure(minute)
            self._tick_resizes(minute)
            self._tick_pending(minute)
            throttled_now = self._observe_minute(minute, pressure)
            self._decide(minute, interval)
            # Unschedulable pods, capacity-blocked resizes, and demand
            # lost to contention all read as "the pool is too small".
            pending_millicores = self._pending_millicores() + int(
                throttled_now * MILLICORES_PER_CORE
            )
            self.autoscaler.evaluate(
                minute, pending_millicores, self._in_rollout
            )
            self.autoscaler.charge()
            self._rollup_minute()
        return self._result()

    def _observe_minute(
        self, minute: int, pressure: dict[str, float]
    ) -> float:
        """Deliver (possibly throttled) CPU; returns throttled cores."""
        throttled_now = 0.0
        delivered_by_pod: dict[str, float] = {}
        for node in self.placement.nodes:
            serving = [pod for pod in node.pods if pod.is_serving]
            if not serving:
                continue
            demands = []
            for pod in serving:
                state = self._by_pod[pod.name]
                capped = min(state.demand_at(minute), float(state.limit_cores))
                demands.append(capped)
            capacity = max(
                node.allocatable_millicores / MILLICORES_PER_CORE
                - pressure.get(node.name, 0.0),
                0.0,
            )
            total = sum(demands)
            if total <= capacity + _EPSILON:
                delivered = demands
            else:
                delivered = water_fill(demands, capacity)
                throttled = total - sum(delivered)
                throttled_now += throttled
                self.contention_core_minutes += throttled
                self.throttled_minutes += 1
                if self.observer is not None:
                    self.observer.emit(
                        NodeContentionEvent(
                            minute=minute,
                            node=node.name,
                            demand_cores=total,
                            capacity_cores=capacity,
                            throttled_cores=throttled,
                            pods=len(serving),
                        )
                    )
            for pod, value in zip(serving, delivered):
                delivered_by_pod[pod.name] = value
        cluster_demand = cluster_usage = cluster_limit = 0.0
        for state in self.tenants:
            raw = state.demand_at(minute)
            cluster_demand += raw
            if state.pod.is_serving:
                usage = delivered_by_pod.get(state.pod.name, 0.0)
                state.slack += max(state.limit_cores - usage, 0.0)
                state.insufficient += max(raw - usage, 0.0)
                state.recommender.observe(
                    minute, usage, state.limit_cores
                )
                cluster_usage += usage
                cluster_limit += state.limit_cores
            else:
                # A pending pod reserves nothing and serves nothing.
                state.insufficient += raw
        if self.observer is not None:
            self.observer.sample(
                minute, cluster_demand, cluster_usage, cluster_limit
            )
        return throttled_now

    def _decide(self, minute: int, interval: int) -> None:
        due: list[_TenantState] = []
        for state in self.tenants:
            offset = state.index % interval if self.config.stagger_decisions else 0
            if minute % interval != offset:
                continue
            if not state.pod.is_serving or state.in_rollout:
                continue
            due.append(state)
        if not due:
            return
        if self.observer is None:
            targets = self._decide_vector(minute, due)
        else:
            targets = [
                int(state.recommender.recommend(minute, state.limit_cores))
                for state in due
            ]
        for state, raw_target in zip(due, targets):
            target = max(
                state.spec.min_cores, min(state.spec.max_cores, raw_target)
            )
            if target == state.limit_cores:
                continue
            if self.observer is not None:
                self.observer.emit(
                    DecisionEvent.from_derivation(
                        minute=minute,
                        recommender=state.recommender.name,
                        current_cores=state.limit_cores,
                        raw_target_cores=int(raw_target),
                        target_cores=int(target),
                        derivation=state.recommender.last_decision,
                    )
                )
            state.inflight = (
                minute,
                target,
                minute + self.config.resize_delay_minutes,
            )

    def _decide_vector(
        self, minute: int, due: list[_TenantState]
    ) -> list[int]:
        """One batched Algorithm 1 decision per due tenant.

        Byte-identical to consulting each recommender in turn: lanes
        sharing curve geometry (core ceiling, history length) decide as
        one :func:`~repro.engine.batch.decide_cohort`, and a tenant with
        no observed history yet falls back to its own scalar
        ``recommend`` (the hold-current-allocation rule).
        """
        from ..engine.batch import decide_cohort
        from ..engine.kernel import LaneParams

        targets = [0] * len(due)
        windows: list[np.ndarray] = []
        groups: dict[tuple[int, int, float, float], list[int]] = {}
        for position, state in enumerate(due):
            window = state.recommender.usage_window()
            windows.append(window)
            if window.size == 0:
                targets[position] = int(
                    state.recommender.recommend(minute, state.limit_cores)
                )
                continue
            config = state.recommender.config
            key = (
                config.max_cores,
                window.size,
                config.slope_scale,
                config.quantile,
            )
            groups.setdefault(key, []).append(position)
        for (max_cores, _n, slope_scale, quantile), members in groups.items():
            params = LaneParams.from_configs(
                [due[position].recommender.config for position in members]
            )
            cur = np.array(
                [due[position].limit_cores for position in members],
                dtype=np.int64,
            )
            stacked = np.stack([windows[position] for position in members])
            out = decide_cohort(
                stacked, cur, params, max_cores, slope_scale, quantile
            )
            for offset, position in enumerate(members):
                targets[position] = int(out[offset])
        return targets

    def _pending_millicores(self) -> int:
        pending = 0
        for state in self.tenants:
            if state.pod.phase is PodPhase.PENDING:
                pending += state.pod.spec.cpu_request_millicores
            elif state.deferred is not None:
                _, target = state.deferred
                growth = target - state.limit_cores
                if growth > 0:
                    pending += growth * MILLICORES_PER_CORE
        return pending

    def _rollup_minute(self) -> None:
        self.peak_nodes = max(self.peak_nodes, self.autoscaler.ready_count)
        for node in self.placement.nodes:
            utilization = (
                node.requested_millicores / node.allocatable_millicores
                if node.allocatable_millicores
                else 0.0
            )
            bucket = min(int(utilization * 10), 9)
            self.histogram[bucket] += 1

    # -- results ------------------------------------------------------------------

    def _result(self) -> CapacityResult:
        per_tenant = {
            state.spec.name: ClusterKcn(
                total_slack=state.slack,
                total_insufficient_cpu=state.insufficient,
                num_scalings=state.resizes,
            )
            for state in self.tenants
        }
        cluster = ClusterKcn(
            total_slack=sum(state.slack for state in self.tenants),
            total_insufficient_cpu=sum(
                state.insufficient for state in self.tenants
            ),
            num_scalings=sum(state.resizes for state in self.tenants),
        )
        return CapacityResult(
            scenario=self.scenario.name,
            seed=self.scenario.seed,
            minutes=self.scenario.minutes,
            tenants=len(self.tenants),
            metrics=cluster,
            per_tenant=per_tenant,
            throttled_minutes=self.throttled_minutes,
            contention_core_minutes=self.contention_core_minutes,
            pending_pod_minutes=sum(
                state.pending_minutes for state in self.tenants
            ),
            deferred_resizes=self.deferred_resizes,
            node_minutes=self.autoscaler.node_minutes,
            dollars=self.autoscaler.dollars,
            final_nodes=self.autoscaler.ready_count,
            peak_nodes=self.peak_nodes,
            utilization_histogram=tuple(self.histogram),
            scale_out_events=self.autoscaler.scale_out_events,
            scale_in_events=self.autoscaler.scale_in_events,
            drains_completed=self.autoscaler.drains_completed,
            faults_fired=self.faults_fired,
            placement_log=tuple(self.placement.log),
        )


def run_capacity(
    scenario: CapacityScenario, observer: Observer | None = None
) -> CapacityResult:
    """Run one seeded capacity scenario end to end.

    With an observer attached the run opens a ``capacity:<name>`` trace
    and times itself under a ``capacity.<name>`` span; without one it
    emits nothing and reads no clocks.
    """
    engine = ClusterEngine(scenario, observer=observer)
    if observer is None:
        return engine.run()
    with observer.trace(f"capacity:{scenario.name}", seed=scenario.seed):
        with observer.span(f"capacity.{scenario.name}"):
            return engine.run()
