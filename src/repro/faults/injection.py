"""The fault injector: per-run chaos runtime behind small seams.

One :class:`FaultInjector` is built from a
:class:`~repro.faults.plan.FaultPlan` per run and threaded through the
substrate's injection seams:

==============================  ========================================
seam                            consulted by
==============================  ========================================
:meth:`telemetry`               the resilient control loop, before the
                                sample reaches the metrics server or
                                the recommender
:meth:`actuation_rejects`       :class:`~repro.cluster.scaler.Scaler`
                                at the top of ``try_enact``
:meth:`restart_duration`        :class:`~repro.cluster.operator_.DbOperator`
                                when a pod restart begins
:meth:`tick`                    once per minute (applies/releases node
                                capacity pressure)
:meth:`maybe_fail` /            the resilient loop / the proactive
:meth:`forecaster_gate`         window builder at consultation time
==============================  ========================================

Every fault that actually fires is counted and, when an observer is
bound, emitted as a typed
:class:`~repro.obs.events.FaultInjectedEvent` — chaos runs are fully
auditable. Fault *activity* is a pure function of the plan (see
:mod:`repro.faults.plan`); the injector only adds the per-run mutable
state: fire counts, the last healthy sample, and applied node pressure.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from ..cluster.events import EventKind, EventLog
from ..errors import FaultError, ForecastError
from ..obs.events import FaultInjectedEvent
from .plan import (
    ActuationFault,
    ComponentFault,
    FaultPlan,
    NodeFault,
    TelemetryFault,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.node import Node
    from ..obs.observer import Observer

__all__ = ["FaultInjector", "HANG_RESTART_MINUTES"]

#: Duration assigned to a hung pod restart: effectively "never completes
#: on its own" — only the rollout watchdog can resolve it.
HANG_RESTART_MINUTES = 10**6


class FaultInjector:
    """Per-run runtime for one :class:`~repro.faults.plan.FaultPlan`."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.observer: "Observer | None" = None
        self._nodes: Sequence["Node"] = ()
        self._minute = -1
        self._last_healthy_usage: float | None = None
        self._applied_pressure_millicores = 0
        self._forecaster_fired_minute: int | None = None
        #: Fires per fault label (``telemetry_drop``, ``actuation_reject``...).
        self.counts: dict[str, int] = {}

    # -- wiring -----------------------------------------------------------------

    def bind(
        self,
        nodes: Sequence["Node"] = (),
        observer: "Observer | None" = None,
        recommender: object | None = None,
    ) -> None:
        """Attach the run's substrate handles.

        ``recommender`` is inspected for the ``window_builder`` protocol
        (see :class:`~repro.core.recommender.CaasperRecommender`): when
        present and the plan carries forecaster faults, the builder's
        ``fault_gate`` seam is pointed at :meth:`forecaster_gate` so
        injected forecast failures flow through the existing
        ``ForecastError`` → reactive rule.
        """
        if nodes:
            self._nodes = nodes
        if observer is not None:
            self.observer = observer
        if recommender is not None and any(
            isinstance(spec, ComponentFault) and spec.component == "forecaster"
            for spec in self.plan.faults
        ):
            builder = getattr(recommender, "window_builder", None)
            if builder is not None and hasattr(builder, "fault_gate"):
                builder.fault_gate = self.forecaster_gate

    def _fire(self, fault: str, target: str = "", detail: str = "") -> None:
        self.counts[fault] = self.counts.get(fault, 0) + 1
        if self.observer is not None:
            self.observer.emit(
                FaultInjectedEvent(
                    minute=max(self._minute, 0),
                    fault=fault,
                    target=target,
                    detail=detail,
                )
            )

    def _active(self, spec_type: type, minute: int, **match: object) -> object:
        """First active spec of ``spec_type`` matching ``match`` attrs."""
        for index, spec in enumerate(self.plan.faults):
            if not isinstance(spec, spec_type):
                continue
            if any(getattr(spec, key) != value for key, value in match.items()):
                continue
            if spec.active(self.plan.seed, index, minute):
                return spec
        return None

    # -- per-minute housekeeping -------------------------------------------------

    def tick(self, minute: int, events: EventLog | None = None) -> None:
        """Advance the injector clock and reconcile node pressure."""
        self._minute = minute
        target = 0.0
        for index, spec in enumerate(self.plan.faults):
            if isinstance(spec, NodeFault) and spec.active(
                self.plan.seed, index, minute
            ):
                target += spec.pressure_cores
        target_millicores = int(round(target * 1000))
        delta = target_millicores - self._applied_pressure_millicores
        if delta == 0:
            return
        for node in self._nodes:
            node.system_reserved_millicores += delta
        self._applied_pressure_millicores = target_millicores
        if delta > 0:
            self._fire(
                "node_pressure",
                target="cluster",
                detail=f"reserved {target_millicores}m on every node",
            )
            if events is not None:
                for node in self._nodes:
                    events.record(
                        minute,
                        EventKind.NODE_PRESSURE,
                        node.name,
                        f"capacity pressure: {target_millicores}m reserved",
                        pressure_millicores=target_millicores,
                    )

    # -- telemetry seam ----------------------------------------------------------

    def telemetry(
        self, minute: int, usage_cores: float
    ) -> tuple[float | None, str | None]:
        """Possibly corrupt one usage sample.

        Returns ``(value, fault_label)``: ``(usage, None)`` when no
        telemetry fault fires; ``(None, "telemetry_drop")`` for a
        dropped sample; the frozen previous sample for ``stale``; NaN
        for ``nan``. The last *healthy* sample is remembered so stale
        replay is realistic.
        """
        spec = self._active(TelemetryFault, minute)
        if spec is None:
            self._last_healthy_usage = usage_cores
            return usage_cores, None
        mode = spec.mode
        if mode == "stale" and self._last_healthy_usage is None:
            mode = "drop"  # nothing to replay yet
        label = f"telemetry_{mode}"
        if mode == "drop":
            self._fire(label, detail="usage sample dropped")
            return None, label
        if mode == "nan":
            self._fire(label, detail="usage sample corrupted to NaN")
            return math.nan, label
        self._fire(
            label,
            detail=f"stale sample replayed ({self._last_healthy_usage:.2f} cores)",
        )
        return self._last_healthy_usage, label

    # -- actuation seams ---------------------------------------------------------

    def actuation_rejects(self, minute: int) -> bool:
        """True when the resize API rejects requests this minute."""
        spec = self._active(ActuationFault, minute, mode="reject")
        if spec is None:
            return False
        self._fire("actuation_reject", detail="resize API rejected the request")
        return True

    def restart_duration(self, minute: int, base_minutes: int) -> int:
        """Restart duration for a pod restart beginning this minute."""
        hang = self._active(ActuationFault, minute, mode="hang_restart")
        if hang is not None:
            self._fire(
                "actuation_hang",
                detail="pod restart hung (watchdog must intervene)",
            )
            return HANG_RESTART_MINUTES
        slow = self._active(ActuationFault, minute, mode="slow_restart")
        if slow is not None:
            extra = slow.extra_restart_minutes
            self._fire(
                "actuation_slow",
                detail=f"pod restart slowed by {extra} min",
            )
            return base_minutes + extra
        return base_minutes

    # -- component seams ---------------------------------------------------------

    def maybe_fail(self, minute: int, component: str) -> None:
        """Raise :class:`~repro.errors.FaultError` when ``component`` fails."""
        spec = self._active(ComponentFault, minute, component=component)
        if spec is None:
            return
        self._fire(
            f"component_{component}",
            target=component,
            detail=f"injected {component} exception",
        )
        raise FaultError(
            f"injected fault: {component} failed at minute {minute}"
        )

    def forecaster_gate(self) -> None:
        """Fault gate for the proactive window builder's forecast step.

        Raises :class:`~repro.errors.ForecastError` while a forecaster
        :class:`~repro.faults.plan.ComponentFault` is active, so the
        degradation flows through the paper's existing
        forecast-failure → reactive rule (§4.3). The fire is remembered
        for :meth:`consume_forecaster_fire` so the loop can emit the
        matching quarantine event.
        """
        minute = max(self._minute, 0)
        spec = self._active(ComponentFault, minute, component="forecaster")
        if spec is None:
            return
        self._fire(
            "component_forecaster",
            target="forecaster",
            detail="injected forecast failure (degrades to reactive)",
        )
        self._forecaster_fired_minute = minute
        raise ForecastError(
            f"injected fault: forecaster failed at minute {minute}"
        )

    def consume_forecaster_fire(self) -> bool:
        """True once per forecaster-fault fire (clears the flag)."""
        fired = self._forecaster_fired_minute is not None
        self._forecaster_fired_minute = None
        return fired

    # -- reporting ---------------------------------------------------------------

    @property
    def total_fires(self) -> int:
        """Total injected-fault fires across all kinds."""
        return sum(self.counts.values())

    def summary(self) -> dict[str, int]:
        """Fires per fault label, sorted by label."""
        return dict(sorted(self.counts.items()))
