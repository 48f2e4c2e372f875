"""JSONL decision-trace recording and replay.

One JSON object per line, one line per event — the same flat schema as
:meth:`~repro.obs.events.ObsEvent.to_dict` plus a ``schema_version``
field. JSONL keeps traces streamable (a crashed run leaves every
completed line readable), greppable, and trivially ingestible by
external tooling.

Round-trip guarantee: ``read_events(path)`` reconstructs the exact typed
events a :class:`JsonlSink` recorded, so offline analysis
(:mod:`repro.analysis.explain`, :mod:`repro.report`) renders the same
audit log as a live ring buffer would.

Forward compatibility: the event vocabulary grows over time, so a log
written by a newer build may contain kinds this build does not know.
The readers here *tolerate* unknown kinds — they skip them and count
them per kind (:func:`load_trace` surfaces the counts) — while
:func:`~repro.obs.events.event_from_dict` itself still fails loudly,
preserving the strict contract for callers that need it.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator

from .events import DecisionEvent, ObsEvent, event_from_dict

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "JsonlSink",
    "TraceRead",
    "load_trace",
    "read_events",
    "iter_events",
    "decision_events",
]

#: Version of the JSONL event-record schema. v1 records had neither
#: this field nor the trace-id fields; v2 adds ``schema_version`` and
#: the ``trace_id``/``span_id``/``parent_span_id`` stamps. Readers
#: accept both.
EVENT_SCHEMA_VERSION = 2


class JsonlSink:
    """Writes each event as one JSON line to a path or open file handle.

    Parameters
    ----------
    target:
        A filesystem path (opened lazily, truncated) or an already-open
        text handle (not closed by this sink). Use as a context manager
        or call :meth:`close` to flush path-opened files.
    """

    def __init__(self, target: str | Path | IO[str]) -> None:
        self._handle: IO[str] | None
        if isinstance(target, (str, Path)):
            self._path: Path | None = Path(target)
            self._handle = None
            self._owns_handle = True
        else:
            self._path = None
            self._handle = target
            self._owns_handle = False
        self.events_written = 0

    def accept(self, event: ObsEvent) -> None:
        if self._handle is None:
            if self._path is None:
                raise ValueError("JsonlSink already closed")
            self._handle = open(self._path, "w")
        payload = event.to_dict()
        payload["schema_version"] = EVENT_SCHEMA_VERSION
        json.dump(payload, self._handle, separators=(",", ":"))
        self._handle.write("\n")
        self.events_written += 1

    def close(self) -> None:
        """Flush and close a path-opened handle (no-op for borrowed ones)."""
        if self._handle is not None and self._owns_handle:
            self._handle.close()
            self._handle = None
            self._path = None
        elif self._handle is not None:
            self._handle.flush()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@dataclass
class TraceRead:
    """A loaded JSONL trace plus what had to be skipped to load it."""

    events: list[ObsEvent] = field(default_factory=list)
    #: Unknown event kind → number of skipped records of that kind.
    skipped: Counter[str] = field(default_factory=Counter)

    @property
    def skipped_total(self) -> int:
        return sum(self.skipped.values())


def load_trace(path: str | Path) -> TraceRead:
    """Load a JSONL trace, tolerating and counting unknown event kinds.

    Records whose ``kind`` this build does not know are skipped and
    tallied in :attr:`TraceRead.skipped` — an old binary reading a
    newer log degrades to a partial (but typed) view instead of
    crashing.
    """
    result = TraceRead()
    result.events.extend(_read(path, result.skipped))
    return result


def iter_events(path: str | Path) -> Iterator[ObsEvent]:
    """Stream typed events back from a JSONL trace, in recorded order.

    Unknown event kinds are skipped (use :func:`load_trace` to see how
    many); ``schema_version`` is reader metadata and never reaches the
    reconstructed events.
    """
    return _read(path, Counter())


def _read(path: str | Path, skipped: Counter[str]) -> Iterator[ObsEvent]:
    """The one read loop: typed events in order, unknown kinds tallied."""
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            payload = json.loads(line)
            payload.pop("schema_version", None)
            try:
                event = event_from_dict(payload)
            except KeyError:
                skipped[str(payload.get("kind", "?"))] += 1
                continue
            yield event


def read_events(path: str | Path) -> list[ObsEvent]:
    """Load a full JSONL trace as typed events (unknown kinds skipped)."""
    return list(iter_events(path))


def decision_events(events: Iterable[ObsEvent]) -> list[DecisionEvent]:
    """Filter an event stream down to the recommender consultations."""
    return [event for event in events if isinstance(event, DecisionEvent)]
