"""Process-parallel fleet runner with deterministic merge.

The runner shards a :class:`~repro.fleet.jobs.FleetPlan` across spawn
worker processes and merges their results into a
:class:`FleetOutcome` that is *bit-identical to a serial run* for any
worker count. Three properties make that true:

- jobs are pure functions of ``(spec, derived seed)`` — nothing leaks
  between workers (:mod:`repro.fleet.jobs`);
- the merge keys records by job id and orders them by *plan* position,
  never completion order;
- worker telemetry is replayed into the parent observer in plan order
  too (:mod:`repro.fleet.relay`).

Failure isolation is the other contract: a job that raises, stalls past
its deadline, or takes its worker process down with it becomes a typed
:class:`~repro.fleet.jobs.JobFailure` record — the fleet run always
completes and reports, it never crashes because one cell did.
"""

from __future__ import annotations

import time
import traceback as traceback_module
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from multiprocessing import get_context
from pathlib import Path
from typing import TYPE_CHECKING

from ..errors import FleetError
from ..obs.events import (
    FleetJobFailedEvent,
    FleetJobFinishedEvent,
    FleetJobStartedEvent,
)
from ..obs.observer import Observer
from ..obs.tracing import fleet_trace_name
from .jobs import FleetJob, FleetPlan, JobFailure, JobRecord
from .journal import FleetJournal
from .relay import WorkerTelemetry, collect, replay, worker_observer

if TYPE_CHECKING:
    from ..store.cas import ResultStore

__all__ = ["FleetRunner", "FleetOutcome"]

#: Consecutive pool rebuilds tolerated before the run aborts — guards
#: against a systemically broken environment (e.g. fork bombs under a
#: cgroup limit) looping forever.
_MAX_POOL_REBUILDS = 3

#: Per-process cache of worker-side store handles, keyed by root path.
#: Workers write results back through the same atomic blob path the
#: parent reads, so concurrent writers (including the parent) are safe.
_WORKER_STORES: dict[str, "ResultStore"] = {}


def _worker_store(root: str) -> "ResultStore":
    """The (cached) store handle for ``root`` in this process."""
    store = _WORKER_STORES.get(root)
    if store is None:
        from ..store.cas import ResultStore

        store = ResultStore(root)
        _WORKER_STORES[root] = store
    return store


def _producer_trace_id(telemetry: WorkerTelemetry | None) -> str:
    """Trace id of the run that produced a job result (for provenance).

    Every traced job execution opens exactly one run trace, so the first
    ``trace_started`` event in the worker's telemetry identifies the
    producing run. Untraced executions (no observer) yield ``""`` — the
    blob is still written, just without a producer stamp.
    """
    if telemetry is None:
        return ""
    for payload in telemetry.events:
        if payload.get("kind") == "trace_started":
            return str(payload.get("trace_id", ""))
    return ""


def _execute_job(
    job: FleetJob,
    seed: int,
    capture_telemetry: bool,
    store_root: str | None = None,
    store_key: str | None = None,
) -> tuple[str, str, object, JobFailure | None, WorkerTelemetry | None, float]:
    """Worker-side entry point: run one job, capture crash or result.

    Module-level so spawn workers can unpickle a reference to it. The
    broad except is the failure-isolation seam — any job exception must
    become a typed record, never a worker crash.

    ``store_root``/``store_key`` (both set or neither) write a
    successful result back to the result store; write-back is best
    effort — a full disk or unencodable result degrades to uncached,
    never to a failed job.
    """
    observer = worker_observer() if capture_telemetry else None
    start = time.perf_counter()
    try:
        result = job.execute(seed, observer)
    except Exception as error:  # lint: disable=EXC001
        failure = JobFailure(
            job_id=job.job_id,
            error_type=type(error).__name__,
            message=str(error),
            traceback=traceback_module.format_exc(),
            failure_kind="exception",
        )
        elapsed = time.perf_counter() - start
        telemetry = (
            collect(job.job_id, observer) if observer is not None else None
        )
        return (job.job_id, "failed", None, failure, telemetry, elapsed)
    elapsed = time.perf_counter() - start
    telemetry = collect(job.job_id, observer) if observer is not None else None
    if store_root is not None and store_key is not None:
        try:
            _worker_store(store_root).put(
                store_key,
                job.kind,
                result,
                producer_trace_id=_producer_trace_id(telemetry),
            )
        except Exception:  # lint: disable=EXC001 - write-back is best effort
            pass
    return (job.job_id, "ok", result, None, telemetry, elapsed)


class FleetOutcome:
    """Merged terminal state of a fleet run.

    ``records`` are in plan order regardless of worker count or
    completion order — iterate them for deterministic reports.
    """

    def __init__(
        self, plan: FleetPlan, records: tuple[JobRecord, ...], workers: int
    ) -> None:
        self.plan_name = plan.name
        self.signature = plan.signature()
        self.records = records
        self.workers = workers

    def results(self) -> dict[str, object]:
        """Successful results keyed by job id, in plan order."""
        return {
            record.job_id: record.result
            for record in self.records
            if record.status == "ok"
        }

    def failures(self) -> tuple[JobFailure, ...]:
        """Failure records in plan order."""
        return tuple(
            record.failure
            for record in self.records
            if record.failure is not None
        )

    @property
    def ok_count(self) -> int:
        return sum(1 for record in self.records if record.status == "ok")

    @property
    def failed_count(self) -> int:
        return sum(1 for record in self.records if record.status == "failed")

    @property
    def resumed_count(self) -> int:
        return sum(1 for record in self.records if record.journaled)

    def require_success(self) -> "FleetOutcome":
        """Raise :class:`~repro.errors.FleetError` if any job failed."""
        failures = self.failures()
        if failures:
            lines = "; ".join(failure.summary() for failure in failures[:5])
            suffix = "" if len(failures) <= 5 else f" (+{len(failures) - 5} more)"
            raise FleetError(
                f"fleet plan {self.plan_name!r}: {len(failures)} of "
                f"{len(self.records)} jobs failed: {lines}{suffix}"
            )
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FleetOutcome(plan={self.plan_name!r}, ok={self.ok_count}, "
            f"failed={self.failed_count}, resumed={self.resumed_count}, "
            f"workers={self.workers})"
        )


class FleetRunner:
    """Shard a fleet plan across processes; merge deterministically.

    Parameters
    ----------
    workers:
        Process count. ``1`` (the default) executes serially in-process
        — no pool, no pickling — and is the reference behaviour the
        parallel path must reproduce bit-for-bit.
    job_timeout_seconds:
        Per-job wall-clock deadline. A job past its deadline is recorded
        as a ``timeout`` failure and its worker pool is rebuilt (the
        stalled process is genuinely killed, not abandoned). ``None``
        disables deadlines.
    journal_path:
        Where to checkpoint finished jobs (JSONL). ``None`` disables
        journaling.
    resume:
        With a journal: restore previously completed jobs instead of
        recomputing them. Requires the journal's plan signature to
        match.
    observer:
        Parent-side observer. Receives fleet progress events
        (``fleet_job_started/finished/failed``) plus every *worker-side*
        event replayed in plan order.
    max_in_flight:
        Bound on simultaneously submitted jobs (default ``2 × workers``)
        so million-job plans don't materialise a million futures.
    store:
        Optional :class:`~repro.store.cas.ResultStore`. Cacheable jobs
        (those with a :meth:`~repro.fleet.jobs.FleetJob.store_key`)
        that hit the store short-circuit *before* process dispatch —
        recorded as ``ok`` with zero elapsed seconds — and workers
        write missing results back through the store's atomic blob
        path. After the run, a size-budgeted store is GC'd.
    """

    def __init__(
        self,
        workers: int = 1,
        job_timeout_seconds: float | None = None,
        journal_path: str | Path | None = None,
        resume: bool = False,
        observer: Observer | None = None,
        max_in_flight: int | None = None,
        store: "ResultStore | None" = None,
    ) -> None:
        if workers < 1:
            raise FleetError(f"workers must be >= 1, got {workers}")
        if job_timeout_seconds is not None and job_timeout_seconds <= 0:
            raise FleetError(
                f"job_timeout_seconds must be positive, got {job_timeout_seconds}"
            )
        if max_in_flight is not None and max_in_flight < 1:
            raise FleetError(
                f"max_in_flight must be >= 1, got {max_in_flight}"
            )
        if resume and journal_path is None:
            raise FleetError("resume=True requires a journal_path")
        self.workers = workers
        self.job_timeout_seconds = job_timeout_seconds
        self.journal_path = Path(journal_path) if journal_path else None
        self.resume = resume
        self.observer = observer
        self.max_in_flight = max_in_flight or workers * 2
        self.store = store

    def with_observer(self, observer: Observer | None) -> "FleetRunner":
        """A copy of this runner bound to ``observer``.

        The ``executor=`` seams (:func:`repro.sim.sweep.run_sweep` et
        al.) use this to honour their own ``observer=`` argument without
        mutating the caller's runner.
        """
        if observer is self.observer:
            return self
        return FleetRunner(
            workers=self.workers,
            job_timeout_seconds=self.job_timeout_seconds,
            journal_path=self.journal_path,
            resume=self.resume,
            observer=observer,
            max_in_flight=self.max_in_flight,
            store=self.store,
        )

    def with_store(self, store: "ResultStore | None") -> "FleetRunner":
        """A copy of this runner bound to ``store`` (same pattern as
        :meth:`with_observer`, used by the ``store=`` seams)."""
        if store is self.store:
            return self
        return FleetRunner(
            workers=self.workers,
            job_timeout_seconds=self.job_timeout_seconds,
            journal_path=self.journal_path,
            resume=self.resume,
            observer=self.observer,
            max_in_flight=self.max_in_flight,
            store=store,
        )

    # -- public API ---------------------------------------------------

    def run(self, plan: FleetPlan) -> FleetOutcome:
        """Execute every job in the plan; never raises for job failures."""
        journal = (
            FleetJournal(self.journal_path, plan, resume=self.resume)
            if self.journal_path is not None
            else None
        )
        # Open a fleet-level causal trace unless the caller already did.
        # Job-level events ride worker observers (fresh per job, so they
        # open their own run traces); the fleet trace stamps the
        # parent-side progress and cache events.
        tracing = (
            self.observer.trace(fleet_trace_name(plan.name), seed=plan.seed)
            if self.observer is not None and self.observer.tracer is None
            else nullcontext()
        )
        try:
            with tracing:
                restored = journal.completed() if journal is not None else {}
                pending = [job for job in plan if job.job_id not in restored]
                if self.workers == 1:
                    computed = self._run_serial(plan, pending, journal)
                else:
                    computed = self._run_parallel(plan, pending, journal)
                merged = {**restored, **computed}
                records = tuple(merged[job_id] for job_id in plan.job_ids())
                if self.store is not None and self.store.max_bytes is not None:
                    self.store.gc(observer=self.observer)
                return FleetOutcome(plan, records, self.workers)
        finally:
            if journal is not None:
                journal.close()

    # -- serial path --------------------------------------------------

    def _run_serial(
        self,
        plan: FleetPlan,
        pending: list[FleetJob],
        journal: FleetJournal | None,
    ) -> dict[str, JobRecord]:
        records: dict[str, JobRecord] = {}
        capture = self.observer is not None
        for job in pending:
            self._emit_started(plan, job)
            seed = plan.seed_for(job)
            key = self._cache_key(job, seed)
            hit = self._cache_get(job, key)
            if hit is not None:
                outcome = (job.job_id, "ok", hit, None, None, 0.0)
            else:
                outcome = _execute_job(job, seed, capture)
                if key is not None and outcome[1] == "ok":
                    self._cache_put(
                        key, job.kind, outcome[2], _producer_trace_id(outcome[4])
                    )
            record = self._merge_one(plan, outcome, journal)
            records[record.job_id] = record
        return records

    # -- store shortcut -----------------------------------------------

    def _cache_key(self, job: FleetJob, seed: int) -> str | None:
        if self.store is None:
            return None
        return job.store_key(seed)

    def _cache_get(self, job: FleetJob, key: str | None) -> object | None:
        if key is None or self.store is None:
            return None
        return self.store.get(key, job.kind, observer=self.observer)

    def _cache_put(
        self, key: str, kind: str, result: object, producer_trace_id: str = ""
    ) -> None:
        """Parent-side write-back (serial path); best effort only."""
        if self.store is None:
            return
        try:
            self.store.put(
                key,
                kind,
                result,
                observer=self.observer,
                producer_trace_id=producer_trace_id,
            )
        except Exception:  # lint: disable=EXC001 - write-back is best effort
            pass

    # -- parallel path ------------------------------------------------

    def _run_parallel(
        self,
        plan: FleetPlan,
        pending: list[FleetJob],
        journal: FleetJournal | None,
    ) -> dict[str, JobRecord]:
        capture = self.observer is not None
        records: dict[str, JobRecord] = {}
        queue = list(pending)  # plan order; dispatched front-first
        pool = self._new_pool()
        rebuilds = 0
        # future -> (job, submit-time deadline)
        in_flight: dict[Future[object], tuple[FleetJob, float | None]] = {}
        outcomes: dict[str, tuple] = {}
        def settle(job_id: str, outcome: tuple) -> None:
            """Record an outcome and checkpoint it immediately.

            Journaling happens in *completion* order (crash recovery
            must not wait for the run to finish); the deterministic
            plan-order pass below handles telemetry replay and events.
            The journal is keyed by job id, so restore order is
            irrelevant.
            """
            outcomes[job_id] = outcome
            if journal is not None:
                journal.record(self._record_from(outcome))

        try:
            while queue or in_flight:
                while queue and len(in_flight) < self.max_in_flight:
                    job = queue.pop(0)
                    self._emit_started(plan, job)
                    seed = plan.seed_for(job)
                    key = self._cache_key(job, seed)
                    hit = self._cache_get(job, key)
                    if hit is not None:
                        # Short-circuit before process dispatch: the
                        # cached result never crosses a pool boundary.
                        settle(job.job_id, (job.job_id, "ok", hit, None, None, 0.0))
                        continue
                    store_root = (
                        str(self.store.root)
                        if key is not None and self.store is not None
                        else None
                    )
                    future = pool.submit(
                        _execute_job, job, seed, capture, store_root, key
                    )
                    deadline = (
                        time.monotonic() + self.job_timeout_seconds
                        if self.job_timeout_seconds is not None
                        else None
                    )
                    in_flight[future] = (job, deadline)
                if not in_flight:
                    continue
                timeout = self._next_wait(in_flight)
                done, _ = wait(
                    in_flight, timeout=timeout, return_when=FIRST_COMPLETED
                )
                pool_broke = False
                for future in done:
                    entry = in_flight.pop(future, None)
                    if entry is None:  # dropped by an earlier rebuild
                        continue
                    job = entry[0]
                    error = future.exception()
                    if isinstance(error, BrokenProcessPool):
                        # The worker died without returning (OOM kill,
                        # segfault). Every other in-flight future on
                        # this pool is poisoned too — requeue those
                        # jobs (deterministic and not yet settled) and
                        # rebuild below.
                        settle(job.job_id, self._broken_outcome(job))
                        pool_broke = True
                    elif error is not None:
                        # _execute_job captures job exceptions itself,
                        # so an error here is infrastructure-level
                        # (e.g. the result failed to unpickle).
                        settle(
                            job.job_id,
                            (
                                job.job_id,
                                "failed",
                                None,
                                JobFailure(
                                    job_id=job.job_id,
                                    error_type=type(error).__name__,
                                    message=str(error),
                                    failure_kind="exception",
                                ),
                                None,
                                0.0,
                            ),
                        )
                    else:
                        settle(job.job_id, future.result())
                expired = [] if pool_broke else self._expired(in_flight)
                for future in expired:
                    # Deadlines can only be enforced by killing the
                    # worker processes; pool workers share fate, so the
                    # pool is rebuilt below and the unexpired in-flight
                    # jobs requeued.
                    job, _ = in_flight.pop(future)
                    settle(job.job_id, self._timeout_outcome(job))
                if pool_broke or expired:
                    queue = [j for j, _ in in_flight.values()] + queue
                    in_flight.clear()
                    self._kill_pool_processes(pool)
                    pool.shutdown(wait=False, cancel_futures=True)
                    rebuilds += 1
                    if rebuilds > _MAX_POOL_REBUILDS:
                        raise FleetError(
                            f"fleet pool rebuilt {rebuilds} times "
                            "(worker deaths or timeouts); aborting — "
                            "this is an environment problem, not a "
                            "job failure"
                        )
                    pool = self._new_pool()
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        # Merge in plan order — completion order must not matter for
        # the outcome, the parent-side event stream, or the metrics.
        for job in pending:
            record = self._merge_one(plan, outcomes[job.job_id], journal)
            records[record.job_id] = record
        return records

    @staticmethod
    def _record_from(outcome: tuple) -> JobRecord:
        job_id, status, result, failure, _, elapsed = outcome
        return JobRecord(
            job_id=job_id,
            status=status,
            result=result,
            failure=failure,
            elapsed_seconds=elapsed,
        )

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers, mp_context=get_context("spawn")
        )

    @staticmethod
    def _kill_pool_processes(pool: ProcessPoolExecutor) -> None:
        """Best-effort kill of a pool's workers (for stalled jobs)."""
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except Exception:  # lint: disable=EXC001
                # Worker already exited between enumeration and kill.
                pass

    def _next_wait(
        self, in_flight: dict[Future[object], tuple[FleetJob, float | None]]
    ) -> float | None:
        """Seconds until the nearest in-flight deadline (None: no cap)."""
        deadlines = [d for _, d in in_flight.values() if d is not None]
        if not deadlines:
            return None
        return max(0.05, min(deadlines) - time.monotonic())

    @staticmethod
    def _expired(
        in_flight: dict[Future[object], tuple[FleetJob, float | None]]
    ) -> list[Future[object]]:
        now = time.monotonic()
        return [
            future
            for future, (_, deadline) in in_flight.items()
            if deadline is not None and now >= deadline
        ]

    def _timeout_outcome(self, job: FleetJob) -> tuple:
        return (
            job.job_id,
            "failed",
            None,
            JobFailure(
                job_id=job.job_id,
                error_type="TimeoutError",
                message=(
                    f"job exceeded its {self.job_timeout_seconds:g}s deadline"
                ),
                failure_kind="timeout",
            ),
            None,
            float(self.job_timeout_seconds or 0.0),
        )

    @staticmethod
    def _broken_outcome(job: FleetJob) -> tuple:
        return (
            job.job_id,
            "failed",
            None,
            JobFailure(
                job_id=job.job_id,
                error_type="BrokenProcessPool",
                message="worker process died before returning a result",
                failure_kind="broken-pool",
            ),
            None,
            0.0,
        )

    # -- merge --------------------------------------------------------

    def _merge_one(
        self, plan: FleetPlan, outcome: tuple, journal: FleetJournal | None
    ) -> JobRecord:
        job_id, status, result, failure, telemetry, elapsed = outcome
        record = JobRecord(
            job_id=job_id,
            status=status,
            result=result,
            failure=failure,
            elapsed_seconds=elapsed,
        )
        if self.observer is not None and telemetry is not None:
            replay(telemetry, self.observer)
        index = plan.job_ids().index(job_id)
        if status == "ok":
            if self.observer is not None:
                self.observer.emit(
                    FleetJobFinishedEvent(
                        minute=index, job_id=job_id, elapsed_seconds=elapsed
                    )
                )
        else:
            if self.observer is not None:
                self.observer.emit(
                    FleetJobFailedEvent(
                        minute=index,
                        job_id=job_id,
                        error=failure.message if failure else "",
                        failure_kind=failure.failure_kind if failure else "exception",
                    )
                )
        if journal is not None:
            journal.record(record)
        return record

    def _emit_started(self, plan: FleetPlan, job: FleetJob) -> None:
        if self.observer is not None:
            index = plan.job_ids().index(job.job_id)
            self.observer.emit(
                FleetJobStartedEvent(
                    minute=index, job_id=job.job_id, workers=self.workers
                )
            )
