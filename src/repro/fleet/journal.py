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
results. File discipline is :mod:`repro.durable`'s: a torn final line
is dropped, a damaged earlier line refuses the resume.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any

from ..durable import Journal
from ..errors import FleetError
from .codec import decode, encode
from .jobs import FleetPlan, JobRecord

__all__ = ["FleetJournal"]


class FleetJournal:
    """Crash-safe JSONL checkpoint log for one fleet plan.

    Use as a context manager::

        with FleetJournal(path, plan, resume=True) as journal:
            done = journal.completed()          # restored JobRecords
            ...
            journal.record(record)              # append as jobs finish

    Records are fsynced per append, so a hard kill loses at most the job
    that was in flight. Opening rewrites header + restored records
    atomically, so a kill during a resume leaves the prior journal
    intact.
    """

    def __init__(
        self, path: str | os.PathLike[str], plan: FleetPlan, resume: bool = False
    ) -> None:
        self.path = Path(path)
        self.plan = plan
        self.resume = resume
        self._journal = Journal(self.path, FleetError, sort_keys=True)
        kept = self._load_existing() if resume else {}
        self._completed = {
            job_id: JobRecord(
                job_id=job_id,
                status="ok",
                result=decode(line["payload"]),
                elapsed_seconds=float(line.get("elapsed_seconds", 0.0)),
                journaled=True,
            )
            for job_id, line in kept.items()
        }
        self._journal.open(
            {
                "kind": "plan",
                "name": plan.name,
                "signature": plan.signature(),
                "seed": plan.seed,
                "jobs": len(plan),
            },
            list(kept.values()),
        )

    # -- lifecycle ----------------------------------------------------

    def _load_existing(self) -> dict[str, dict[str, Any]]:
        """Read and validate a prior journal: its first ``ok`` line per job."""
        header, records, _ = self._journal.read()
        if header is None:
            return {}
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
        kept: dict[str, dict[str, Any]] = {}
        for line in records:
            # Only successes checkpoint across runs: a failed job is
            # retried on resume (the interruption itself may have been
            # the cause — a pool kill shows up as broken-pool/timeout).
            if (
                line.get("kind") == "job"
                and line.get("job_id") in known
                and line.get("status") == "ok"
            ):
                kept.setdefault(line["job_id"], line)
        return kept

    def close(self) -> None:
        """Close the underlying file (appends are already durable)."""
        self._journal.close()

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
        self._journal.append(
            {
                "kind": "job",
                "job_id": record.job_id,
                "status": record.status,
                "elapsed_seconds": record.elapsed_seconds,
                "payload": payload,
            }
        )

