"""Admission control and backpressure for tenant telemetry.

Two layers keep an overloaded plane honest instead of slow-then-wrong:

- :class:`TelemetryQueue` — one bounded FIFO per tenant. A full queue
  sheds its *oldest* samples to admit newer ones, because a vertical
  autoscaler acting on stale telemetry is worse than one acting on a
  gap (the paper's safe-mode reasoning applied to ingestion). Every
  shed is a typed :class:`~repro.obs.events.TelemetryShedEvent`.
- :class:`AdmissionController` — the global gate. An ingest that would
  push the plane past ``global_sample_cap`` queued samples is rejected
  outright (the HTTP 429 path), as is any ingest while draining or for
  an unknown tenant. Rejected samples never touch the journal — they
  were never admitted, so crash recovery replays exactly what the
  plane actually accepted.

Everything here is a pure function of (configuration, call sequence):
no clocks, no ambient randomness. Replaying the journaled ingest
sequence reproduces every queue state, shed and rejection bit-for-bit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from ..errors import ServeError
from ..obs.events import AdmissionRejectedEvent, TelemetryShedEvent
from ..obs.observer import Observer
from .config import ServeConfig

__all__ = ["AdmissionController", "AdmissionDecision", "TelemetryQueue"]


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one ingest offer.

    ``admitted`` with ``shed > 0`` means the samples entered but pushed
    the same tenant's oldest samples out. ``reason`` is empty when
    admitted, else one of ``saturated``/``draining``/``unknown-tenant``.
    """

    admitted: bool
    shed: int = 0
    reason: str = ""


class TelemetryQueue:
    """Bounded per-tenant FIFO with oldest-drop shedding."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ServeError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._samples: deque[float] = deque()
        self.shed_total = 0
        self.admitted_total = 0

    def push_many(self, samples: Sequence[float]) -> int:
        """Admit ``samples``, shedding from the front; returns shed count."""
        shed = 0
        for sample in samples:
            if len(self._samples) >= self.capacity:
                self._samples.popleft()
                shed += 1
            self._samples.append(float(sample))
        self.admitted_total += len(samples)
        self.shed_total += shed
        return shed

    def pop(self) -> float | None:
        """Consume the oldest queued sample (None when empty)."""
        if not self._samples:
            return None
        return self._samples.popleft()

    def __len__(self) -> int:
        return len(self._samples)


class AdmissionController:
    """The plane's single admission gate over all tenant queues.

    Parameters
    ----------
    config:
        Queue bound and global cap.
    observer:
        Zero-argument callable returning the current
        :class:`~repro.obs.observer.Observer` or ``None``. The plane
        passes an accessor (not the observer itself) so replayed
        ingests stay silent while live ones emit.
    """

    def __init__(
        self,
        config: ServeConfig,
        observer: Callable[[], Observer | None] = lambda: None,
    ) -> None:
        self.config = config
        self._observer = observer
        self.queues: dict[str, TelemetryQueue] = {}
        self.draining = False
        self.rejected_total = 0
        self.rejected_by_reason: dict[str, int] = {}
        #: Running sum of queued samples. Maintained incrementally so
        #: the per-offer cap check is O(1) — summing the queues on
        #: every offer would make each tick O(tenants²).
        self._queued = 0

    def register(self, tenant: str) -> None:
        """Create the tenant's queue (idempotent registration is the
        plane's concern; a duplicate here is a programming error)."""
        if tenant in self.queues:
            raise ServeError(f"tenant {tenant!r} already has a queue")
        self.queues[tenant] = TelemetryQueue(self.config.queue_capacity)

    def total_queued(self) -> int:
        """Samples currently queued across all tenants."""
        return self._queued

    def pop(self, tenant: str) -> float | None:
        """Consume the tenant's oldest queued sample (None when empty).

        The tick loop must drain queues through here, not via the queue
        directly, so the running total stays exact.
        """
        sample = self.queues[tenant].pop()
        if sample is not None:
            self._queued -= 1
        return sample

    def offer(
        self, tick: int, tenant: str, samples: Sequence[float]
    ) -> AdmissionDecision:
        """Admit or reject one tenant's batch of telemetry samples."""
        if self.draining:
            return self._reject(tick, tenant, "draining")
        queue = self.queues.get(tenant)
        if queue is None:
            return self._reject(tick, tenant, "unknown-tenant")
        if not samples:
            return AdmissionDecision(admitted=True)
        # Project the post-admission global depth: the tenant's own
        # queue sheds to its capacity, so only net growth counts.
        projected_shed = max(0, len(queue) + len(samples) - queue.capacity)
        growth = len(samples) - projected_shed
        if self._queued + growth > self.config.global_sample_cap:
            return self._reject(tick, tenant, "saturated")
        shed = queue.push_many(samples)
        self._queued += len(samples) - shed
        if shed:
            observer = self._observer()
            if observer is not None:
                observer.emit(
                    TelemetryShedEvent(
                        minute=tick,
                        tenant=tenant,
                        dropped=shed,
                        queue_capacity=queue.capacity,
                    )
                )
        return AdmissionDecision(admitted=True, shed=shed)

    def _reject(
        self, tick: int, tenant: str, reason: str
    ) -> AdmissionDecision:
        self.rejected_total += 1
        self.rejected_by_reason[reason] = (
            self.rejected_by_reason.get(reason, 0) + 1
        )
        observer = self._observer()
        if observer is not None:
            observer.emit(
                AdmissionRejectedEvent(minute=tick, tenant=tenant, reason=reason)
            )
        return AdmissionDecision(admitted=False, reason=reason)

    def shed_total(self) -> int:
        """Samples dropped by oldest-drop shedding, across all tenants."""
        return sum(queue.shed_total for queue in self.queues.values())

    def summary(self) -> dict[str, int]:
        """Deterministic counters for status/audit blocks."""
        return {
            "queued": self.total_queued(),
            "shed": self.shed_total(),
            "rejected": self.rejected_total,
            **{
                f"rejected_{reason}": count
                for reason, count in sorted(self.rejected_by_reason.items())
            },
        }
