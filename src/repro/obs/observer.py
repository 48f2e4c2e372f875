"""The Observer: one handle bundling events, metrics and spans.

The simulator (:func:`~repro.sim.simulator.simulate_trace`), sweep
runner, live-system loop and cluster control loop all accept an optional
``observer=``. Passing one records the full autoscaling audit trail;
passing ``None`` (the default) costs nothing — instrumented call sites
guard every emission with an ``observer is not None`` check, so the
default path constructs no events and reads no clocks.

Call sites build a typed event and hand it to :meth:`Observer.emit`,
which applies what the event class declares, in one generic path:

1. with a trace open, it stamps the trace id, the span id (derived from
   the kind, minute and the class's ``discriminator``) and the parent
   span id (the class's ``caused_by`` rule);
2. it fans the stamped event out to every sink;
3. it updates the metric families the class lists in ``metrics``.

Adding an event therefore touches one file: declare a frozen
:class:`~repro.obs.events.ObsEvent` subclass in :mod:`repro.obs.events`
with its fields, ``discriminator``, ``caused_by`` and ``metrics``, then
call ``observer.emit(NewEvent(...))`` where it happens.

A few families have no event of their own: :meth:`Observer.sample`
keeps the per-minute slack total (and emits a throttled-minute event
only when demand exceeded the limit), and :meth:`Observer.store_bytes`
and :meth:`Observer.step_seconds` set a gauge and time a minute.
:data:`METRICS_ONLY` declares those families.
"""

from __future__ import annotations

from contextlib import AbstractContextManager, contextmanager
from typing import Any, Iterator, TypeVar

from .events import (
    DecisionEvent,
    EventBus,
    MetricEffect,
    ObsEvent,
    RetryEvent,
    RingBufferSink,
    ThrottledMinuteEvent,
    TraceStartedEvent,
)
from .metrics import MetricsRegistry
from .spans import SpanCollector, activate
from .tracing import Tracer

__all__ = ["METRICS_ONLY", "Observer"]

E = TypeVar("E", bound=ObsEvent)

_SLACK = MetricEffect(
    "slack_core_minutes_total",
    "Running total of slack core-minutes (metric K numerator)",
)
_STORE_BYTES = MetricEffect(
    "store_bytes", "On-disk size of the result store in bytes", kind="gauge"
)
_STEP_SECONDS = MetricEffect(
    "sim_step_seconds",
    "Wall-clock seconds per simulated minute",
    kind="histogram",
)

#: Standard families updated without an event of their own.
METRICS_ONLY = (_SLACK, _STORE_BYTES, _STEP_SECONDS)


class Observer:
    """Bundles an event bus, a metrics registry and a span collector.

    Parameters
    ----------
    sinks:
        Event sinks to subscribe at construction. When ``buffer_events``
        is True (default) a :class:`~repro.obs.events.RingBufferSink` is
        always attached and exposed as :attr:`ring`, so recent events
        are queryable without configuring anything.
    metrics, spans:
        Pre-built registry/collector to share across observers
        (e.g. one registry for a whole fleet sweep).
    """

    def __init__(
        self,
        sinks: tuple[Any, ...] | list[Any] = (),
        metrics: MetricsRegistry | None = None,
        spans: SpanCollector | None = None,
        buffer_events: bool = True,
        ring_capacity: int = 4096,
    ) -> None:
        self.bus = EventBus()
        self.ring: RingBufferSink | None = None
        if buffer_events:
            self.ring = RingBufferSink(capacity=ring_capacity)
            self.bus.subscribe(self.ring)
        for sink in sinks:
            self.bus.subscribe(sink)
        self.metrics = metrics or MetricsRegistry()
        self.spans = spans or SpanCollector()
        #: Active causal tracer; when set, :meth:`emit` stamps every
        #: event with deterministic trace/span/parent ids.
        self.tracer: Tracer | None = None

    # -- causal tracing --------------------------------------------------------

    def start_trace(self, name: str, seed: int = 0) -> Tracer:
        """Open a causal trace and emit its :class:`TraceStartedEvent`.

        Prefer the scoped :meth:`trace` context manager; this method is
        the primitive for callers that manage scope themselves.
        """
        tracer = Tracer(name, seed=seed)
        self.tracer = tracer
        self.bus.emit(
            TraceStartedEvent(
                minute=0,
                trace_id=tracer.trace_id,
                span_id=tracer.root_span_id,
                name=name,
                seed=tracer.seed,
            )
        )
        return tracer

    @contextmanager
    def trace(self, name: str, seed: int = 0) -> Iterator[Tracer]:
        """Scope one run's causal trace; restores the previous tracer.

        Run entry points (:func:`~repro.sim.simulator.simulate_trace`,
        :func:`~repro.sim.live.simulate_live`, the fleet runner) open a
        trace here when none is active, so a shared observer sweeping
        many traces partitions its event stream into one trace per run.
        """
        previous = self.tracer
        tracer = self.start_trace(name, seed=seed)
        try:
            yield tracer
        finally:
            self.tracer = previous

    @staticmethod
    def _parent_span(event: ObsEvent, tracer: Tracer) -> str:
        """The span ``event`` descends from, per its ``caused_by`` rule.

        An enactment whose attempt at ``decided_minute`` was a
        successful retry descends from the retry span (which itself
        links to the original decision); otherwise from the decision.
        """
        decided = getattr(event, "decided_minute", None)
        if not event.caused_by or decided is None:
            return tracer.root_span_id
        if (
            event.caused_by == "enactment"
            and decided in tracer.retry_success_minutes
        ):
            return tracer.span_id("retry", decided, "succeeded")
        return tracer.span_id("decision", decided)

    # -- event emission --------------------------------------------------------

    def emit(self, event: E) -> E:
        """Stamp, fan out and count one event; returns the stamped event."""
        tracer = self.tracer
        if tracer is not None:
            fields = vars(event)
            # ``dataclasses.replace(event, trace_id=..., ...)`` without
            # re-running ``__init__``: events are plain frozen dataclasses,
            # and the cheaper copy keeps stamping inside the 5% tracing
            # budget of benchmarks/bench_trace_overhead.py.
            stamped = object.__new__(type(event))
            stamped.__dict__.update(
                fields,
                trace_id=tracer.trace_id,
                span_id=tracer.span_id(
                    event.kind, event.minute, event.discriminator.format_map(fields)
                ),
                parent_span_id=self._parent_span(event, tracer),
            )
            event = stamped
            if isinstance(event, RetryEvent) and event.outcome == "succeeded":
                tracer.retry_success_minutes.add(event.minute)
        self.bus.emit(event)
        self.update_metrics(event)
        return event

    def update_metrics(self, event: ObsEvent) -> None:
        """Apply ``event``'s declared metric effects without emitting it.

        :meth:`emit` calls this; call it directly only for a state the
        trail does not record as an event of its own (another
        safe-mode minute while already in safe mode).
        """
        for effect in event.metrics:
            amount = getattr(event, effect.value) if effect.value else 1
            if amount is None:
                continue
            labels: dict[str, str] = {}
            if effect.label:
                source = effect.label_from or effect.label
                labels[effect.label] = getattr(event, source)
            self._update(effect, amount, labels)

    def _update(
        self, effect: MetricEffect, amount: float, labels: dict[str, str]
    ) -> None:
        labelnames = (effect.label,) if effect.label else ()
        if effect.kind == "counter":
            self.metrics.counter(effect.family, effect.help, labelnames).inc(
                float(amount), **labels
            )
        elif effect.kind == "gauge":
            self.metrics.gauge(effect.family, effect.help, labelnames).set(
                float(amount), **labels
            )
        else:
            buckets = {"buckets": effect.buckets} if effect.buckets else {}
            self.metrics.histogram(
                effect.family, effect.help, labelnames, **buckets
            ).observe(float(amount), **labels)

    # -- families without an event ---------------------------------------------

    def sample(
        self, minute: int, demand_cores: float, usage_cores: float, limit_cores: float
    ) -> None:
        """Record one simulated minute's slack/insufficient accounting.

        Emits a :class:`~repro.obs.events.ThrottledMinuteEvent` only for
        minutes in which demand exceeded the limit, keeping JSONL traces
        proportional to interesting behaviour rather than trace length.
        """
        self._update(_SLACK, max(limit_cores - usage_cores, 0.0), {})
        if demand_cores > limit_cores:
            self.emit(
                ThrottledMinuteEvent(
                    minute=minute,
                    demand_cores=demand_cores,
                    limit_cores=limit_cores,
                )
            )

    def store_bytes(self, nbytes: int) -> None:
        """Record the store's current on-disk size (gauge)."""
        self._update(_STORE_BYTES, nbytes, {})

    def step_seconds(self, seconds: float) -> None:
        """Record the wall-clock cost of one simulated minute."""
        self._update(_STEP_SECONDS, seconds, {})

    # -- spans -----------------------------------------------------------------

    @contextmanager
    def active(self) -> Iterator["Observer"]:
        """Install this observer's span collector as the ambient one.

        The simulator wraps its main loop in this so ``@timed`` hot
        paths (PvP-curve construction, forecaster predict) attribute
        their time here without threading the observer through every
        call layer.
        """
        with activate(self.spans):
            yield self

    def span(self, name: str) -> AbstractContextManager[None]:
        """Time one region against this observer's collector."""
        return self.spans.span(name)

    def close(self) -> None:
        """Close every sink that supports it (flushes JSONL traces)."""
        for sink in self.bus.sinks:
            closer = getattr(sink, "close", None)
            if callable(closer):
                closer()

    # -- convenience queries ---------------------------------------------------

    def decisions(self) -> list[DecisionEvent]:
        """Buffered decision events (requires the default ring buffer)."""
        if self.ring is None:
            return []
        return [e for e in self.ring if isinstance(e, DecisionEvent)]

    def events_of_kind(self, kind: str) -> list[ObsEvent]:
        """Buffered events of one kind (requires the default ring buffer)."""
        if self.ring is None:
            return []
        return self.ring.of_kind(kind)
