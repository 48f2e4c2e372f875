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
attached), delivery is water-filled and each tenant's decision window
holds the *throttled* usage — so cluster contention corrupts exactly
the signal CaaSPER scales on, and CaaSPER's own downscaling of the
resulting slack is what unwinds the overcommit.

Per-tenant loop state lives in numpy columns, one row per tenant:
demand, limit, slack, insufficient CPU, a serving mask, a node slot and
a usage ring holding each tenant's decision window. Each minute is a
handful of array operations over those columns; the serving mask and
node slots follow the placement log, and only the nodes whose demand
comes near their capacity are re-summed pod by pod.

Everything is a pure function of the scenario (workloads, config,
seed): no wall clock, no shared RNG, deterministic iteration order
throughout — two runs serialise byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.pod import Container, Pod
from ..cluster.resources import MILLICORES_PER_CORE, ResourceSpec
from ..core import CaasperConfig, ReactivePolicy
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
from ..trace import CpuTrace, validate_usage_sample
from .autoscaler import NodePoolAutoscaler
from .contention import water_fill
from .model import CapacityConfig, TenantSpec
from .placement import PlacementEngine
from .results import CapacityResult, ClusterKcn
from .scenarios import CapacityScenario

__all__ = ["ClusterEngine", "run_capacity"]

#: Demand totals within this of capacity are "fits"; guards float dust.
_EPSILON = 1e-9

#: A node whose bincount demand total comes within this of its capacity
#: is re-summed in pod order: bincount adds in tenant order, and a float
#: sum in another order can differ from the exact one by float dust.
_PREFILTER_MARGIN = 1e-6

#: A capacity-deferred resize is abandoned after this many decision
#: intervals, so a tenant blocked at max pool size resumes deciding.
_DEFER_TTL_INTERVALS = 3


def _name_key(name: str) -> int:
    """Stable integer key for a node name (no ``hash()``: PYTHONHASHSEED)."""
    raw = name.encode("utf-8")[:8]
    return int.from_bytes(raw.ljust(8, b"\0"), "big")


@dataclass
class _TenantState:
    """Per-tenant loop state kept outside the columns (engine-internal)."""

    spec: TenantSpec
    index: int
    pod: Pod
    inflight: tuple[int, int, int] | None = None  # (decided, target, due)
    deferred: tuple[int, int] | None = None  # (decided, target)
    resizes: int = 0
    pending_minutes: int = 0


class ClusterEngine:
    """One seeded capacity run over a :class:`CapacityScenario`.

    The tenants due at a minute decide together through
    :func:`repro.engine.batch.decide_cohort` over windows read from the
    usage ring, observed or not. An observer only adds telemetry: the
    cluster totals each minute and one ``DecisionEvent`` per allocation
    change.

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
        self._index_of_pod: dict[str, int] = {}
        self._slot_of_node: dict[str, int] = {}
        self._log_seen = 0
        self.throttled_minutes = 0
        self.contention_core_minutes = 0.0
        self.deferred_resizes = 0
        self.faults_fired = 0
        self.peak_nodes = 0
        self.histogram = [0] * 10

    # -- construction -------------------------------------------------------------

    def _build(self) -> None:
        from ..engine.kernel import LaneParams

        self.placement = PlacementEngine()
        self.autoscaler = NodePoolAutoscaler(
            self.config, self.placement, observer=self.observer
        )
        self.autoscaler.bootstrap()
        specs = self.scenario.tenants
        minutes = self.scenario.minutes
        count = len(specs)
        self._demand = np.empty((count, minutes))
        self._configs = []
        for index, spec in enumerate(specs):
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
            self._configs.append(
                CaasperConfig(c_min=spec.min_cores, max_cores=spec.max_cores)
            )
            self.tenants.append(_TenantState(spec=spec, index=index, pod=pod))
            self._index_of_pod[pod.name] = index
            # A short trace holds its last sample; a long one is cut.
            samples = spec.trace.samples[:minutes]
            self._demand[index, : samples.size] = samples
            self._demand[index, samples.size :] = samples[-1]
        self._limit = np.array([spec.initial_cores for spec in specs], dtype=np.int64)
        self._max_cores = np.array([spec.max_cores for spec in specs], dtype=np.int64)
        self._slack = np.zeros(count)
        self._insufficient = np.zeros(count)
        self._serving = np.zeros(count, dtype=bool)
        self._slot = np.full(count, -1, dtype=np.int64)
        self._rolling = np.zeros(count, dtype=bool)
        interval = self.config.decision_interval_minutes
        self._offset = (
            np.arange(count) % interval
            if self.config.stagger_decisions
            else np.zeros(count, dtype=np.int64)
        )
        # The configs differ only in guardrails (c_min, max_cores): the
        # window length and curve parameters are shared by every tenant.
        self._shared = self._configs[0]
        self._params = LaneParams.from_configs(self._configs)
        self._ring = np.zeros((count, self._shared.window_minutes))
        self._observed = np.zeros(count, dtype=np.int64)

    def _in_rollout(self, pod: Pod) -> bool:
        index = self._index_of_pod.get(pod.name)
        return index is not None and bool(self._rolling[index])

    def _sync_placement(self) -> None:
        """Apply the placement-log records since the last sync to the
        serving mask and node slots (every place and move is logged)."""
        log = self.placement.log
        for record in log[self._log_seen :]:
            if record.action not in ("place", "migrate"):
                continue
            index = self._index_of_pod[record.pod]
            self._serving[index] = True
            self._slot[index] = self._slot_of_node.setdefault(
                record.to_node, len(self._slot_of_node)
            )
        self._log_seen = len(log)

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
                    from_cores=int(self._limit[state.index]),
                    to_cores=target,
                )
            )
        self._limit[state.index] = target
        self._rolling[state.index] = False
        state.resizes += 1
        state.inflight = None
        state.deferred = None

    def _tick_resizes(self, minute: int) -> None:
        rolling = np.flatnonzero(self._rolling).tolist()
        if not rolling:
            return
        ttl = _DEFER_TTL_INTERVALS * self.config.decision_interval_minutes
        # The stale view every loop enacting this minute races against.
        stale_free = self.placement.index.free_by_name()
        for index in rolling:
            state = self.tenants[index]
            if state.deferred is not None:
                decided, target = state.deferred
                if minute - decided > ttl:
                    state.deferred = None
                    self._rolling[index] = False
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
                if self._serving[index]:
                    self._enact(state, minute, decided, target, stale_free)
            elif state.inflight is not None:
                decided, target, due = state.inflight
                if due <= minute and self._serving[index]:
                    self._enact(state, minute, decided, target, stale_free)

    # -- placement of pending pods ------------------------------------------------

    def _tick_pending(self, minute: int) -> None:
        pending = [
            self.tenants[index]
            for index in np.flatnonzero(~self._serving).tolist()
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
        self._sync_placement()
        serving = self._serving
        raw = self._demand[:, minute]
        limit = self._limit.astype(float)
        capped = np.minimum(raw, limit)
        usage = np.where(serving, capped, 0.0)
        throttled_now = self._contend(minute, pressure, capped, usage)
        served = np.flatnonzero(serving)
        values = usage[served]
        bad = np.flatnonzero(~(np.isfinite(values) & (values >= 0.0)))
        if bad.size:
            state = self.tenants[int(served[bad[0]])]
            validate_usage_sample(
                float(values[bad[0]]), context=f"{state.spec.name} observe"
            )
        self._slack += np.where(serving, np.maximum(limit - usage, 0.0), 0.0)
        # A pending pod reserves nothing and serves nothing.
        self._insufficient += np.where(
            serving, np.maximum(raw - usage, 0.0), raw
        )
        self._ring[served, self._observed[served] % self._ring.shape[1]] = values
        self._observed[served] += 1
        if self.observer is not None:
            self._sample_cluster(minute, raw, usage, self.observer)
        return throttled_now

    def _contend(
        self,
        minute: int,
        pressure: dict[str, float],
        capped: np.ndarray,
        usage: np.ndarray,
    ) -> float:
        """Water-fill every over-capacity node into ``usage``; returns
        the throttled cores.

        Bincount totals only pick the nodes that may be over; each of
        those is summed in its pod order, as the delivered values and
        the contention totals depend on that order.
        """
        on_node = np.flatnonzero(self._serving)
        totals = np.bincount(
            self._slot[on_node],
            weights=capped[on_node],
            minlength=len(self._slot_of_node),
        )
        capacity = np.full(
            totals.size,
            self.config.node_template.allocatable_millicores / MILLICORES_PER_CORE,
        )
        for name, cores in pressure.items():
            slot = self._slot_of_node.get(name)
            if slot is not None:
                capacity[slot] -= cores
        near = totals > capacity - _PREFILTER_MARGIN
        if not near.any():
            return 0.0
        throttled_now = 0.0
        for node in self.placement.nodes:
            slot = self._slot_of_node.get(node.name)
            if slot is None or not near[slot]:
                continue
            members = [self._index_of_pod[pod.name] for pod in node.pods]
            demands = capped[members].tolist()
            capacity_cores = max(
                node.allocatable_millicores / MILLICORES_PER_CORE
                - pressure.get(node.name, 0.0),
                0.0,
            )
            total = sum(demands)
            if total <= capacity_cores + _EPSILON:
                continue
            delivered = water_fill(demands, capacity_cores)
            usage[members] = delivered
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
                        capacity_cores=capacity_cores,
                        throttled_cores=throttled,
                        pods=len(members),
                    )
                )
        return throttled_now

    def _sample_cluster(
        self,
        minute: int,
        raw: np.ndarray,
        usage: np.ndarray,
        observer: Observer,
    ) -> None:
        """Observed runs: sample the cluster totals, summed in tenant order."""
        cluster_demand = cluster_usage = cluster_limit = 0.0
        for value in raw.tolist():
            cluster_demand += value
        for value in usage[self._serving].tolist():
            cluster_usage += value
        for limit in self._limit[self._serving].tolist():
            cluster_limit += limit
        observer.sample(minute, cluster_demand, cluster_usage, cluster_limit)

    def _decide(self, minute: int, interval: int) -> None:
        due = np.flatnonzero(
            (self._offset == minute % interval) & self._serving & ~self._rolling
        )
        if not due.size:
            return
        targets = self._decide_vector(due)
        for position in np.flatnonzero(targets != self._limit[due]).tolist():
            index = int(due[position])
            state = self.tenants[index]
            target = int(targets[position])
            if self.observer is not None:
                self._emit_decision(self.observer, minute, index, target)
            state.inflight = (
                minute,
                target,
                minute + self.config.resize_delay_minutes,
            )
            self._rolling[index] = True

    def _emit_decision(
        self, observer: Observer, minute: int, index: int, target: int
    ) -> None:
        """Observed runs: one allocation change's event. Its trail is
        replayed by the scalar policy on the ring window; ``target`` is
        the kernel's."""
        current = int(self._limit[index])
        size = min(int(self._observed[index]), self._ring.shape[1])
        window = self._windows(np.array([index]), size)[0]
        derivation = ReactivePolicy(self._configs[index]).decide(
            current, CpuTrace(window), truncate_window=False
        )
        observer.emit(
            DecisionEvent.from_derivation(
                minute=minute,
                recommender="caasper",
                current_cores=current,
                raw_target_cores=target,
                target_cores=target,
                derivation=derivation,
            )
        )

    def _windows(self, rows: np.ndarray, size: int) -> np.ndarray:
        """The last ``size`` observed samples of each row, oldest first."""
        width = self._ring.shape[1]
        columns = (self._observed[rows, None] - size + np.arange(size)) % width
        return self._ring[rows[:, None], columns]

    def _decide_vector(self, due: np.ndarray) -> np.ndarray:
        """One batched Algorithm 1 decision per due tenant.

        Byte-identical to one scalar decision each: lanes sharing curve
        geometry (core ceiling, history length) decide as one
        :func:`~repro.engine.batch.decide_cohort` over ring windows, a
        tenant with no observed history yet holds its allocation (at
        least ``c_min``), and the kernel clamps to ``[c_min, max_cores]``.
        """
        from ..engine.batch import decide_cohort

        width = self._ring.shape[1]
        sizes = np.minimum(self._observed[due], width)
        limits = self._limit[due]
        targets = np.maximum(limits, self._params.c_min[due])
        keys = self._max_cores[due] * (width + 1) + sizes
        for key in np.unique(keys[sizes > 0]).tolist():
            members = np.flatnonzero(keys == key)
            rows = due[members]
            targets[members] = decide_cohort(
                self._windows(rows, int(sizes[members[0]])),
                limits[members],
                self._params.gather(rows),
                int(self._max_cores[rows[0]]),
                self._shared.slope_scale,
                self._shared.quantile,
            )
        return targets

    def _pending_millicores(self) -> int:
        pending = 0
        for index in np.flatnonzero(~self._serving | self._rolling).tolist():
            state = self.tenants[index]
            if not self._serving[index]:
                pending += state.pod.spec.cpu_request_millicores
            elif state.deferred is not None:
                _, target = state.deferred
                growth = target - int(self._limit[index])
                if growth > 0:
                    pending += growth * MILLICORES_PER_CORE
        return pending

    def _rollup_minute(self) -> None:
        self.peak_nodes = max(self.peak_nodes, self.autoscaler.ready_count)
        free = self.placement.index.free_by_name()
        for node in self.placement.nodes:
            allocatable = node.allocatable_millicores
            utilization = (
                (allocatable - free[node.name]) / allocatable
                if allocatable
                else 0.0
            )
            bucket = min(int(utilization * 10), 9)
            self.histogram[bucket] += 1

    # -- results ------------------------------------------------------------------

    def _result(self) -> CapacityResult:
        slack = self._slack.tolist()
        insufficient = self._insufficient.tolist()
        per_tenant = {
            state.spec.name: ClusterKcn(
                total_slack=slack[state.index],
                total_insufficient_cpu=insufficient[state.index],
                num_scalings=state.resizes,
            )
            for state in self.tenants
        }
        cluster = ClusterKcn(
            total_slack=sum(slack),
            total_insufficient_cpu=sum(insufficient),
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
