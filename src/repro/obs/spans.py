"""Monotonic-clock timing spans for profiling the hot paths.

A *span* is one timed region of code, identified by a dotted name
(``sim.simulate_trace``, ``core.pvp.from_trace``,
``forecast.holt_winters.predict``). Spans nest: a span opened while
another is active records its parent, and the collector tracks both
total (inclusive) and self (exclusive of children) time per name.

Because the hot paths — :class:`~repro.core.pvp.PvPCurve` construction,
the forecasters — do not carry an observer parameter through every call
layer, the collector is *ambient*: :func:`activate` installs one for the
dynamic extent of a block, and :func:`span`/:func:`timed` pick it up.
With no collector active they are near-free (one ``None`` check) and
record nothing, so un-instrumented runs are unaffected.

The ambient stack is intentionally a plain module-level list: the
simulator and sweeps are single-threaded, and keeping it trivial keeps
the no-op path cheap. Concurrent pipelines should use one
:class:`SpanCollector` per thread.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, TypeVar

__all__ = [
    "SpanRecord",
    "SpanStats",
    "SpanCollector",
    "activate",
    "current_collector",
    "span",
    "timed",
]

F = TypeVar("F", bound=Callable[..., Any])


@dataclass(frozen=True)
class SpanRecord:
    """One completed span occurrence."""

    name: str
    start: float
    end: float
    depth: int
    parent: str | None


@dataclass
class SpanStats:
    """Aggregate timing for one span name."""

    name: str
    count: int = 0
    total_seconds: float = 0.0
    self_seconds: float = 0.0
    min_seconds: float = float("inf")
    max_seconds: float = 0.0

    def record(self, duration: float, child_time: float) -> None:
        self.count += 1
        self.total_seconds += duration
        self.self_seconds += max(duration - child_time, 0.0)
        self.min_seconds = min(self.min_seconds, duration)
        self.max_seconds = max(self.max_seconds, duration)

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0


@dataclass
class _OpenSpan:
    name: str
    start: float
    child_seconds: float = 0.0


@dataclass
class SpanCollector:
    """Collects nested span timings using a monotonic clock.

    Parameters
    ----------
    keep_records:
        Retain every individual :class:`SpanRecord` (useful in tests and
        for flame-style dumps); aggregates are always kept.
    clock:
        Injectable monotonic clock (tests); defaults to
        :func:`time.perf_counter`.
    """

    keep_records: bool = False
    clock: Callable[[], float] = time.perf_counter
    records: list[SpanRecord] = field(default_factory=list)
    stats: dict[str, SpanStats] = field(default_factory=dict)
    _stack: list[_OpenSpan] = field(default_factory=list)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time one region; nests under any currently-open span."""
        open_span = _OpenSpan(name=name, start=self.clock())
        self._stack.append(open_span)
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            duration = end - open_span.start
            if self._stack:
                self._stack[-1].child_seconds += duration
            stats = self.stats.get(name)
            if stats is None:
                stats = self.stats[name] = SpanStats(name=name)
            stats.record(duration, open_span.child_seconds)
            if self.keep_records:
                self.records.append(
                    SpanRecord(
                        name=name,
                        start=open_span.start,
                        end=end,
                        depth=len(self._stack),
                        parent=self._stack[-1].name if self._stack else None,
                    )
                )

    @property
    def depth(self) -> int:
        """Number of currently-open spans."""
        return len(self._stack)

    def top(self, n: int = 5) -> list[SpanStats]:
        """The ``n`` span names costing the most total (inclusive) time."""
        ranked = sorted(
            self.stats.values(), key=lambda s: s.total_seconds, reverse=True
        )
        return ranked[:n]

    def render_top(self, n: int = 5) -> str:
        """Aligned text table of the top-``n`` spans."""
        entries = self.top(n)
        if not entries:
            return "(no spans recorded)"
        lines = [
            f"{'span':<40} {'calls':>7} {'total_s':>9} {'self_s':>9} "
            f"{'mean_ms':>9} {'max_ms':>9}"
        ]
        for stats in entries:
            lines.append(
                f"{stats.name:<40} {stats.count:>7} "
                f"{stats.total_seconds:>9.4f} {stats.self_seconds:>9.4f} "
                f"{stats.mean_seconds * 1e3:>9.3f} "
                f"{stats.max_seconds * 1e3:>9.3f}"
            )
        return "\n".join(lines)

    def clear(self) -> None:
        self.records.clear()
        self.stats.clear()
        self._stack.clear()


#: Ambient collector stack; innermost activation wins.
_ACTIVE: list[SpanCollector] = []


def current_collector() -> SpanCollector | None:
    """The innermost active collector, or None."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def activate(collector: SpanCollector) -> Iterator[SpanCollector]:
    """Install ``collector`` as the ambient collector for a block."""
    _ACTIVE.append(collector)
    try:
        yield collector
    finally:
        _ACTIVE.pop()


@contextmanager
def span(name: str) -> Iterator[None]:
    """Time a region against the ambient collector (no-op when none)."""
    collector = current_collector()
    if collector is None:
        yield
        return
    with collector.span(name):
        yield


def timed(name: str | None = None) -> Callable[[F], F]:
    """Decorator form of :func:`span`.

    ``name`` defaults to the wrapped function's qualified name. The
    wrapper fast-paths to a plain call when no collector is active.
    """

    def decorate(fn: F) -> F:
        span_name = name or f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            collector = current_collector()
            if collector is None:
                return fn(*args, **kwargs)
            with collector.span(span_name):
                return fn(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return decorate
