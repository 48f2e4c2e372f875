"""Crash-safe serve state: append-only input journal + compacted snapshot.

The recovery model is **input sourcing**, not state dumping. Every
tenant loop is deterministic, so the plane's exact state at tick *T* is
a pure function of the inputs it absorbed: tenant registrations,
admitted telemetry, and the tick boundaries between them. The journal
records exactly those three kinds:

- ``{"kind": "register", "seq": n, "tick": t, "spec": {...}}``
- ``{"kind": "telemetry", "seq": n, "tick": t, "batch": {tenant: [...]}}``
- ``{"kind": "tick", "seq": n, "tick": t, "digest": "..."}`` — the
  commit marker: tick *t* fully executed, with a digest of the
  per-tenant K/C/N ledger it produced.

Recovery replays the records in sequence through freshly-built (and
therefore identical) machinery. A SIGKILL mid-tick leaves no commit
marker for that tick, so replay stops at the last committed tick and
the interrupted tick re-executes from its inputs — byte-identically,
which the recovered digest cross-check proves.

File discipline is :mod:`repro.durable`'s: each record is one durable
append, the snapshot lands by atomic replace, and a torn journal tail —
the one artifact a SIGKILL can leave — is dropped on recovery and
removed by the rewrite that reopens the journal. A snapshot compacts
the journal: it embeds every input record up to its ``seq`` (the
previous snapshot's records plus the journal's, read back from disk),
after which the journal is atomically rewritten to its header. Replay
deduplicates by ``seq``, so a crash *between* snapshot replace and
journal truncation double-counts nothing.

A header signature (:meth:`~repro.serve.config.ServeConfig.signature`)
guards cross-configuration reuse, exactly like the fleet journal's plan
signature.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..durable import Journal, fsync_dir, write_atomic
from ..errors import ServeError

__all__ = ["RecoveredInputs", "ServeState"]

_JOURNAL = "journal.jsonl"
_SNAPSHOT = "snapshot.json"
_VERSION = 1


@dataclass
class RecoveredInputs:
    """Everything :meth:`ServeState.load` salvages from a state dir."""

    records: list[dict[str, Any]] = field(default_factory=list)
    last_seq: int = 0
    snapshot_tick: int = 0
    dropped_torn_tail: bool = False

    @property
    def empty(self) -> bool:
        return not self.records


class ServeState:
    """One state directory: its journal, snapshot and sequence counter."""

    def __init__(
        self, root: str | Path, signature: str, fsync: bool = True
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.signature = signature
        self.journal_path = self.root / _JOURNAL
        self.snapshot_path = self.root / _SNAPSHOT
        self.seq = 0
        self._journal = Journal(self.journal_path, ServeError, fsync=fsync)
        self._header = {
            "kind": "serve-journal",
            "version": _VERSION,
            "signature": signature,
        }
        #: Journal records :meth:`load` kept, until :meth:`open_append`.
        self._kept: list[dict[str, Any]] | None = None

    # -- recovery ------------------------------------------------------------------

    def load(self) -> RecoveredInputs:  # lint: blocking-boundary - startup-only recovery read
        """Read snapshot + journal into one deduplicated input sequence.

        Call before :meth:`open_append`. Raises
        :class:`~repro.errors.ServeError` on a signature mismatch, a
        snapshot that fails to parse — a snapshot is written atomically,
        so damage there is not a crash artifact and must not be guessed
        around — or a damaged journal line other than the last. A torn
        journal *tail* (the one artifact a SIGKILL can leave) is dropped
        and reported.
        """
        recovered, self._kept = self._read()
        self.seq = recovered.last_seq
        return recovered

    def _read(self) -> tuple[RecoveredInputs, list[dict[str, Any]]]:
        """All inputs on disk, plus the journal's share of them."""
        recovered = RecoveredInputs()
        if self.snapshot_path.exists():
            try:
                snapshot = json.loads(
                    self.snapshot_path.read_text(encoding="utf-8")
                )
            except (OSError, ValueError) as exc:
                raise ServeError(
                    f"unreadable snapshot {self.snapshot_path}: {exc}"
                ) from exc
            if snapshot.get("kind") != "serve-snapshot":
                raise ServeError(
                    f"{self.snapshot_path} is not a serve snapshot"
                )
            self._check_signature(snapshot.get("signature"), "snapshot")
            recovered.records.extend(snapshot.get("records", ()))
            recovered.snapshot_tick = int(snapshot.get("tick", 0))
            recovered.last_seq = int(snapshot.get("seq", 0))
        snapshot_seq = recovered.last_seq

        contents = self._journal.read()
        if contents.header is not None:
            if contents.header.get("kind") != "serve-journal":
                raise ServeError(f"{self.journal_path} is not a serve journal")
            self._check_signature(contents.header.get("signature"), "journal")
        kept: list[dict[str, Any]] = []
        for position, record in enumerate(contents.records, start=2):
            seq = int(record.get("seq", 0))
            if seq <= snapshot_seq:
                continue  # compacted into the snapshot already
            if seq <= recovered.last_seq:
                raise ServeError(
                    "journal sequence regressed at "
                    f"{self.journal_path}:{position} "
                    f"({seq} after {recovered.last_seq})"
                )
            recovered.last_seq = seq
            kept.append(record)
        recovered.records.extend(kept)
        recovered.dropped_torn_tail = contents.torn_tail
        return recovered, kept

    def _check_signature(self, found: object, what: str) -> None:
        if found != self.signature:
            raise ServeError(
                f"state {what} was written under signature {found!r}; "
                f"this configuration has {self.signature!r} — refusing to "
                "replay inputs through different machinery"
            )

    # -- appending -----------------------------------------------------------------

    def open_append(self) -> None:  # lint: blocking-boundary - one open per process lifetime
        """Rewrite the journal to its header + the records :meth:`load`
        kept, then hold it for appending.

        The rewrite drops a torn tail before the first new record could
        be written onto it.
        """
        if self._kept is None:
            self.load()
        self._journal.open(self._header, self._kept or [])
        self._kept = None

    # The fsync under append is the daemon's crash-safety contract: an
    # input is acked only once it is durable, so a SIGKILL can never lose
    # an acked record. The stall is bounded (one line) and single-threaded
    # by design — the plane serialises every mutation through this journal.
    def append(self, record: dict[str, Any]) -> int:  # lint: blocking-boundary
        """Append one input record; returns its assigned ``seq``."""
        self._journal.append({"seq": self.seq + 1, **record})
        self.seq += 1
        return self.seq

    # -- compaction ----------------------------------------------------------------

    def snapshot(self, tick: int) -> None:  # lint: blocking-boundary - atomic compaction must be durable
        """Atomically compact all inputs up to the current ``seq``.

        The snapshot's records are the previous snapshot's plus the
        journal's, read back from disk. After the snapshot lands, the
        journal is rewritten to a bare header; a crash between the two
        steps is safe because replay deduplicates by ``seq``.
        """
        recovered, _ = self._read()
        payload = {
            "kind": "serve-snapshot",
            "version": _VERSION,
            "signature": self.signature,
            "tick": tick,
            "seq": self.seq,
            "records": recovered.records,
        }
        write_atomic(
            self.snapshot_path,
            json.dumps(payload, separators=(",", ":")).encode("utf-8"),
        )
        fsync_dir(self.root)
        self._journal.open(self._header, [])

    def close(self) -> None:
        """Close the journal handle (appends are already durable)."""
        self._journal.close()
