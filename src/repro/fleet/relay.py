"""Worker→parent telemetry relay for fleet runs.

Observability must not stop at the process boundary: OBS001 requires
every decision, resize and fault event to be inspectable, and a fleet
run fans those events out across spawn workers whose ``Observer``
objects the parent never sees. This module closes that gap with a
pickle-safe envelope:

1. each worker builds its own :func:`worker_observer` and runs the job
   against it;
2. :func:`collect` snapshots that observer into a
   :class:`WorkerTelemetry` — events as plain dicts
   (:meth:`~repro.obs.events.ObsEvent.to_dict`), the metrics registry
   (plain-Python, pickles as-is), and span aggregates as tuples;
3. the envelope rides back with the job result, and :func:`replay`
   re-emits the events into the parent observer's bus and merges the
   metrics/spans — so parent-side sinks (JSONL trace logs, ring
   buffers) see worker events exactly as if the job had run in-process.

Replay order is deterministic: the runner replays telemetry in *plan*
order, not completion order, so a parent-side trace log is identical
for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..obs.events import event_from_dict
from ..obs.metrics import MetricsRegistry
from ..obs.observer import Observer
from ..obs.spans import SpanStats

__all__ = ["WorkerTelemetry", "worker_observer", "collect", "replay"]

#: Worker-side ring capacity — sized for a full day-long trace's
#: decision/resize/throttle event volume so nothing is dropped before
#: the envelope is snapshotted.
WORKER_RING_CAPACITY = 65536


@dataclass(frozen=True)
class WorkerTelemetry:
    """Pickle-safe snapshot of one worker-side observer."""

    job_id: str
    events: tuple[dict[str, Any], ...] = ()
    metrics: MetricsRegistry | None = None
    spans: tuple[tuple[str, int, float, float, float, float], ...] = ()

    @property
    def event_count(self) -> int:
        return len(self.events)


def worker_observer() -> Observer:
    """Fresh observer for one worker-side job execution."""
    return Observer(ring_capacity=WORKER_RING_CAPACITY)


def collect(job_id: str, observer: Observer) -> WorkerTelemetry:
    """Snapshot a worker observer into a transportable envelope."""
    events: tuple[dict[str, Any], ...] = ()
    if observer.ring is not None:
        events = tuple(event.to_dict() for event in observer.ring.events)
    spans = tuple(
        (
            stats.name,
            stats.count,
            stats.total_seconds,
            stats.self_seconds,
            stats.min_seconds,
            stats.max_seconds,
        )
        for _, stats in sorted(observer.spans.stats.items())
    )
    return WorkerTelemetry(
        job_id=job_id,
        events=events,
        metrics=observer.metrics,
        spans=spans,
    )


def replay(telemetry: WorkerTelemetry, parent: Observer) -> int:
    """Re-emit a worker's telemetry into the parent observer.

    Returns the number of events replayed. Metrics merge additively
    (counters/gauges sum child-wise, histogram buckets and reservoirs
    combine) and span aggregates fold into the parent collector under
    their worker-side names.
    """
    for payload in telemetry.events:
        # Already stamped and counted worker-side: fan out only.
        parent.bus.emit(event_from_dict(dict(payload)))
    if telemetry.metrics is not None:
        parent.metrics.merge(telemetry.metrics)
    for name, count, total, self_s, min_s, max_s in telemetry.spans:
        stats = parent.spans.stats.get(name)
        if stats is None:
            stats = parent.spans.stats[name] = SpanStats(name=name)
        stats.count += count
        stats.total_seconds += total
        stats.self_seconds += self_s
        stats.min_seconds = min(stats.min_seconds, min_s)
        stats.max_seconds = max(stats.max_seconds, max_s)
    return len(telemetry.events)
