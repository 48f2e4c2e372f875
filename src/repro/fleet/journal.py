"""Append-only checkpoint journal for fleet runs.

A fleet run over hundreds of (trace × config × fault) cells is exactly
the kind of batch job that gets killed halfway — a spot VM reclaim, a
ctrl-C, an OOM. The journal makes that cheap: every finished job is
appended to a JSONL file the moment its result is merged, and a rerun
with ``resume=True`` replays journaled records instead of recomputing
them. Because jobs are deterministic (see :mod:`repro.fleet.jobs`), a
resumed run merges to *exactly* the outcome the uninterrupted run would
have produced.

File format — one JSON object per line:

- header: ``{"kind": "plan", "name", "signature", "seed", "jobs"}``
- records: ``{"kind": "job", "job_id", "status", "elapsed_seconds",
  "payload"}`` where ``payload`` is the codec-encoded result (status
  ``ok``) or failure (status ``failed``).

The header's plan ``signature`` guards resume: a journal written by a
different plan (different jobs, seed, or configs) raises
:class:`~repro.errors.FleetError` instead of silently merging stale
results.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, Any

from ..errors import FleetError
from .codec import decode, encode
from .jobs import FleetPlan, JobFailure, JobRecord

__all__ = ["FleetJournal"]


class FleetJournal:
    """Crash-safe JSONL checkpoint log for one fleet plan.

    Use as a context manager::

        with FleetJournal(path, plan, resume=True) as journal:
            done = journal.completed()          # restored JobRecords
            ...
            journal.record(record)              # append as jobs finish

    Records are flushed and fsynced per append, so a hard kill loses at
    most the job that was in flight.
    """

    def __init__(
        self, path: str | os.PathLike[str], plan: FleetPlan, resume: bool = False
    ) -> None:
        self.path = Path(path)
        self.plan = plan
        self.resume = resume
        self._completed: dict[str, JobRecord] = {}
        self._handle: IO[str] | None = None
        existing = self._load_existing() if resume else []
        self._open(existing)

    # -- lifecycle ----------------------------------------------------

    def _load_existing(self) -> list[dict[str, Any]]:
        """Read and validate a prior journal, returning its job lines."""
        if not self.path.exists():
            return []
        lines: list[dict[str, Any]] = []
        with self.path.open("r", encoding="utf-8") as handle:
            for raw in handle:
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    lines.append(json.loads(raw))
                except json.JSONDecodeError:
                    # A torn final line from a hard kill: everything
                    # before it is intact, so drop just the tail.
                    break
        if not lines:
            return []
        header = lines[0]
        if header.get("kind") != "plan":
            raise FleetError(
                f"journal {self.path} has no plan header; refusing to resume"
            )
        if header.get("signature") != self.plan.signature():
            raise FleetError(
                f"journal {self.path} was written by plan "
                f"{header.get('name')!r} (signature "
                f"{header.get('signature')}) which does not match this "
                f"plan {self.plan.name!r} (signature "
                f"{self.plan.signature()}); refusing to resume"
            )
        known = set(self.plan.job_ids())
        records = []
        for line in lines[1:]:
            if line.get("kind") != "job" or line.get("job_id") not in known:
                continue
            # Only successes checkpoint across runs: a failed job is
            # retried on resume (the interruption itself may have been
            # the cause — a pool kill shows up as broken-pool/timeout).
            if line.get("status") != "ok":
                continue
            records.append(line)
        return records

    def _open(self, existing: list[dict[str, Any]]) -> None:
        """Rewrite header + restored records, leave handle in append mode.

        The rewrite lands via temp file + fsync + ``os.replace``, so a
        kill during a resume leaves the prior journal intact.
        """
        lines = [
            {
                "kind": "plan",
                "name": self.plan.name,
                "signature": self.plan.signature(),
                "seed": self.plan.seed,
                "jobs": len(self.plan),
            }
        ]
        for line in existing:
            record = self._record_from_line(line)
            if record.job_id not in self._completed:
                self._completed[record.job_id] = record
                lines.append(line)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            handle.writelines(_dumps(line) for line in lines)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        self._handle = self.path.open("a", encoding="utf-8")

    def _record_from_line(self, line: dict[str, Any]) -> JobRecord:
        status = line["status"]
        payload = decode(line["payload"])
        if status == "ok":
            return JobRecord(
                job_id=line["job_id"],
                status="ok",
                result=payload,
                elapsed_seconds=float(line.get("elapsed_seconds", 0.0)),
                journaled=True,
            )
        if not isinstance(payload, JobFailure):
            raise FleetError(
                f"journal {self.path}: failed record {line['job_id']!r} "
                "does not carry a JobFailure payload"
            )
        return JobRecord(
            job_id=line["job_id"],
            status="failed",
            failure=payload,
            elapsed_seconds=float(line.get("elapsed_seconds", 0.0)),
            journaled=True,
        )

    def _write_line(self, payload: dict[str, Any]) -> None:
        if self._handle is None:
            raise FleetError(f"journal {self.path} is closed")
        self._handle.write(_dumps(payload))
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Flush and close the underlying file."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "FleetJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- checkpointing ------------------------------------------------

    def completed(self) -> dict[str, JobRecord]:
        """Records restored from a prior run, keyed by job id."""
        return dict(self._completed)

    def record(self, record: JobRecord) -> None:
        """Append one finished job to the journal."""
        if record.job_id in self._completed:
            return
        self._completed[record.job_id] = record
        payload: Any
        if record.status == "ok":
            payload = encode(record.result)
        else:
            payload = encode(record.failure)
        self._write_line(
            {
                "kind": "job",
                "job_id": record.job_id,
                "status": record.status,
                "elapsed_seconds": record.elapsed_seconds,
                "payload": payload,
            }
        )


def _dumps(payload: dict[str, Any]) -> str:
    """One canonical journal line, newline included."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
