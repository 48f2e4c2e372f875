"""Job and plan specifications for fleet-scale runs.

A :class:`FleetJob` is one named, self-contained unit of work — a
(trace × recommender-config × fault-plan) cell of the fleet the paper's
recommendation service sweeps (§5). Jobs are frozen dataclasses that
pickle cleanly into spawn-context worker processes and execute without
touching any shared state, which is what makes the runner's merge
deterministic: the *result* of a job depends only on the job spec and
its derived seed, never on which worker ran it or in what order.

Seed derivation follows the same discipline as :mod:`repro.faults.plan`:
each job's RNG seed is a pure integer mix of ``(plan seed, job id)`` —
no ``hash()``, which is salted per process — so a plan replays
bit-identically across processes, machines and worker counts.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Any, ClassVar, Iterator

from ..baselines.base import Recommender
from ..core.config import CaasperConfig
from ..errors import FleetError, StoreError
from ..sim.simulator import SimulatorConfig, simulate_trace
from ..trace import CpuTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.observer import Observer

__all__ = [
    "FleetJob",
    "SimulateJob",
    "TrialJob",
    "ChaosJob",
    "ProbeJob",
    "FleetPlan",
    "JobFailure",
    "JobRecord",
    "derive_job_seed",
]

_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Recommender digests pin the pickle protocol (Python 3.8+'s default).
_PICKLE_PROTOCOL = 4


def _signed(value: Any) -> Any:
    """One job field's signature: a recommender by its pickle's sha256."""
    from ..store.keys import content_signature

    if isinstance(value, Recommender):
        blob = pickle.dumps(value, protocol=_PICKLE_PROTOCOL)
        return {"pickle_sha256": hashlib.sha256(blob).hexdigest()}
    return content_signature(value)


def derive_job_seed(plan_seed: int, job_id: str) -> int:
    """Deterministic per-job seed from ``(plan seed, job id)``.

    FNV-1a-style byte mix over the UTF-8 job id, keyed by the plan seed.
    Plain integer arithmetic — no ``hash()`` — so the derivation is
    stable across processes, platforms and ``PYTHONHASHSEED`` values.
    """
    acc = (0x9E3779B97F4A7C15 ^ (int(plan_seed) & _MASK64)) or 0x9E3779B1
    for byte in job_id.encode("utf-8"):
        acc = ((acc ^ byte) * 0x100000001B3) & _MASK64
    acc ^= acc >> 29
    return acc & 0x7FFFFFFF


@dataclass(frozen=True)
class FleetJob(ABC):
    """One named unit of fleet work.

    Subclasses must be pickle-safe (spawn workers re-import them by
    module path) and implement :meth:`execute` as a pure function of
    ``(spec fields, seed)`` — the optional observer records telemetry
    but never feeds back into the result.
    """

    #: Job-kind label used in journals and progress events.
    kind: ClassVar[str] = "job"

    job_id: str

    def __post_init__(self) -> None:
        if not self.job_id:
            raise FleetError("job_id must be non-empty")

    @abstractmethod
    def execute(self, seed: int, observer: "Observer | None" = None) -> Any:
        """Run the job and return its (codec-serialisable) result."""

    def digest(self) -> str:
        """Content digest of this job spec (first 16 hex chars).

        Signs the kind and every field through
        :func:`~repro.store.keys.content_signature`, and a recommender by
        the sha256 of its pickle (the bytes a spawn worker receives), so
        its constructor arguments count. Feeds :meth:`FleetPlan.signature`.
        """
        payload: dict[str, Any] = {"kind": self.kind}
        try:
            for spec in fields(self):
                payload[spec.name] = _signed(getattr(self, spec.name))
        except (StoreError, pickle.PicklingError, TypeError, AttributeError) as error:
            raise FleetError(
                f"job {self.job_id!r} cannot be signed: {error}"
            ) from error
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    def store_key(self, seed: int) -> str | None:
        """Result-store cache key for this job, or ``None`` if uncacheable.

        ``None`` (the default) means the runner always executes the job.
        Subclasses whose results are pure functions of signable content
        return a :mod:`repro.store.keys` key; jobs whose result depends
        on the derived seed (chaos) must fold ``seed`` into it.
        """
        return None

    def producer_trace_id(self, seed: int) -> str:
        """Provenance stamp of this job's stored result.

        The id of the run trace the job's execution opens, derived from
        the job's inputs alone, so a blob's bytes never depend on worker
        count or on whether the run was observed. Cacheable jobs
        override it; ``""`` (the default) stamps nothing.
        """
        return ""


@dataclass(frozen=True)
class SimulateJob(FleetJob):
    """One open-loop trace simulation (the ``run_sweep`` unit of work).

    Carries a ready recommender *instance*; each execution deep-copies
    it first, so a job object can be executed repeatedly (serial runner,
    retries) with identical results — exactly the isolation a spawn
    worker gets for free from pickling.
    """

    kind: ClassVar[str] = "simulate"

    trace: CpuTrace = None  # type: ignore[assignment]
    recommender: Recommender = None  # type: ignore[assignment]
    simulator: SimulatorConfig = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.trace is None or self.recommender is None or self.simulator is None:
            raise FleetError(
                f"job {self.job_id!r}: trace, recommender and simulator "
                "are all required"
            )

    def execute(self, seed: int, observer: "Observer | None" = None) -> Any:
        import copy

        recommender = copy.deepcopy(self.recommender)
        return simulate_trace(self.trace, recommender, self.simulator, observer)

    def store_key(self, seed: int) -> str | None:
        from ..store.keys import simulate_key

        return simulate_key(self.trace, self.recommender, self.simulator)

    def producer_trace_id(self, seed: int) -> str:
        from ..store.memo import producer_trace_id

        return producer_trace_id(self.trace, self.recommender.name)


@dataclass(frozen=True)
class TrialJob(FleetJob):
    """One tuning trial: evaluate a sampled config against a demand trace.

    The worker materialises a fresh
    :class:`~repro.core.recommender.CaasperRecommender` from ``config``,
    runs the §5 simulator, and returns the trial's ``(K, C, N)`` as a
    :class:`~repro.tuning.search.TrialResult`.
    """

    kind: ClassVar[str] = "trial"

    config: CaasperConfig = None  # type: ignore[assignment]
    demand: CpuTrace = None  # type: ignore[assignment]
    simulator: SimulatorConfig = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.config is None or self.demand is None or self.simulator is None:
            raise FleetError(
                f"job {self.job_id!r}: config, demand and simulator "
                "are all required"
            )

    def execute(self, seed: int, observer: "Observer | None" = None) -> Any:
        from ..core.recommender import CaasperRecommender
        from ..tuning.search import TrialResult

        recommender = CaasperRecommender(self.config)
        result = simulate_trace(self.demand, recommender, self.simulator, observer)
        return TrialResult.from_simulation(self.config, result)

    def store_key(self, seed: int) -> str | None:
        from ..store.keys import trial_key

        return trial_key(self.config, self.demand, self.simulator)

    def producer_trace_id(self, seed: int) -> str:
        from ..core.recommender import CaasperRecommender
        from ..store.memo import producer_trace_id

        return producer_trace_id(self.demand, CaasperRecommender(self.config).name)


@dataclass(frozen=True)
class ChaosJob(FleetJob):
    """One hardened live-loop run under a named chaos scenario.

    The fault-plan axis of the fleet: the worker derives the scenario's
    fault seed from the *plan* seed and this job's id (so the same plan
    replays the same chaos bit-identically) and runs the trace through
    :func:`~repro.sim.live.simulate_live` with the degradation ladder
    engaged.
    """

    kind: ClassVar[str] = "chaos"

    trace: CpuTrace = None  # type: ignore[assignment]
    scenario: str = "kitchen-sink"
    recommender_config: CaasperConfig = field(
        default_factory=lambda: CaasperConfig(c_min=2, max_cores=16)
    )

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.trace is None:
            raise FleetError(f"job {self.job_id!r}: trace is required")
        from ..faults.scenarios import scenario_names

        if self.scenario not in scenario_names():
            raise FleetError(
                f"job {self.job_id!r}: unknown scenario {self.scenario!r}; "
                f"available: {scenario_names()}"
            )

    def execute(self, seed: int, observer: "Observer | None" = None) -> Any:
        from ..core.recommender import CaasperRecommender
        from ..faults.scenarios import make_scenario
        from ..sim.live import LiveSystemConfig, simulate_live
        from ..workloads.base import TraceWorkload

        workload = TraceWorkload(self.trace)
        plan = make_scenario(
            self.scenario, seed=seed, horizon_minutes=workload.minutes
        )
        recommender = CaasperRecommender(self.recommender_config)
        result = simulate_live(
            workload,
            recommender,
            LiveSystemConfig(),
            observer=observer,
            faults=plan,
        )
        # The live loop's detail carries live objects (the transaction
        # accountant, the cluster event log) that cannot cross the
        # process boundary or land in a journal; keep the JSON-safe
        # summaries only.
        serialisable = {
            key: value
            for key, value in result.detail.items()
            if key not in ("txn_accounting", "events")
        }
        return replace(result, detail=serialisable)

    def store_key(self, seed: int) -> str | None:
        from ..store.keys import chaos_key

        return chaos_key(self.trace, self.scenario, self.recommender_config, seed)

    def producer_trace_id(self, seed: int) -> str:
        """The ``live:`` trace id :func:`~repro.sim.live.simulate_live`
        opens: its fault plan, and so its trace, is seeded with ``seed``."""
        from ..core.recommender import CaasperRecommender
        from ..obs.tracing import derive_trace_id, live_trace_name

        name = CaasperRecommender(self.recommender_config).name
        return derive_trace_id(seed, live_trace_name(self.trace.name, name))


@dataclass(frozen=True)
class ProbeJob(FleetJob):
    """A diagnostic job for exercising the runner itself.

    Used by the test suite and the CI smoke job to chaos-test the fleet
    layer without the cost of a real simulation: ``behaviour`` selects a
    trivial success (returns its id and derived seed), a deterministic
    crash (raises :class:`~repro.errors.FleetError`), or a stall of
    ``sleep_seconds`` (exercises per-job timeouts).
    """

    kind: ClassVar[str] = "probe"

    behaviour: str = "ok"  # "ok" | "raise" | "sleep"
    sleep_seconds: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.behaviour not in ("ok", "raise", "sleep"):
            raise FleetError(
                f"job {self.job_id!r}: behaviour must be ok|raise|sleep, "
                f"got {self.behaviour!r}"
            )
        if self.sleep_seconds < 0:
            raise FleetError(
                f"job {self.job_id!r}: sleep_seconds must be >= 0"
            )

    def execute(self, seed: int, observer: "Observer | None" = None) -> Any:
        if self.behaviour == "raise":
            raise FleetError(f"probe {self.job_id!r} failed (by design)")
        if self.behaviour == "sleep":
            time.sleep(self.sleep_seconds)
        return {"probe": self.job_id, "seed": seed}


@dataclass(frozen=True)
class JobFailure:
    """Typed capture of one job that did not produce a result.

    ``failure_kind`` is ``exception`` (the job raised; ``traceback``
    carries the worker-side stack), ``timeout`` (the per-job deadline
    expired) or ``broken-pool`` (the worker process died without
    returning — OOM kill, segfault).
    """

    job_id: str
    error_type: str
    message: str
    traceback: str = ""
    failure_kind: str = "exception"

    def summary(self) -> str:
        """One-line ``job: ErrorType: message`` form for reports."""
        return f"{self.job_id}: {self.error_type}: {self.message}"


@dataclass(frozen=True)
class JobRecord:
    """Terminal state of one job within a fleet run.

    Exactly one of ``result`` / ``failure`` is set (``status`` says
    which); ``journaled`` marks records restored from a checkpoint
    journal rather than recomputed. ``elapsed_seconds`` is the
    worker-side wall clock of the execution (the journaled original's,
    when restored).
    """

    job_id: str
    status: str  # "ok" | "failed"
    result: Any = None
    failure: JobFailure | None = None
    elapsed_seconds: float = 0.0
    journaled: bool = False

    def __post_init__(self) -> None:
        if self.status not in ("ok", "failed"):
            raise FleetError(f"invalid job status {self.status!r}")
        if (self.status == "failed") != (self.failure is not None):
            raise FleetError(
                f"job {self.job_id!r}: status {self.status!r} is "
                "inconsistent with its failure field"
            )


@dataclass(frozen=True)
class FleetPlan:
    """A named, seeded, ordered set of fleet jobs.

    Job ids must be unique — they key the merged results and the
    checkpoint journal. The plan's :meth:`signature` (name + seed +
    per-job content digests) guards resume: a journal written by a
    different plan is rejected instead of silently merged.
    """

    jobs: tuple[FleetJob, ...]
    name: str = "fleet"
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.jobs:
            raise FleetError("a fleet plan needs at least one job")
        ids = [job.job_id for job in self.jobs]
        if len(set(ids)) != len(ids):
            duplicates = sorted({i for i in ids if ids.count(i) > 1})
            raise FleetError(f"duplicate job ids in plan: {duplicates}")

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[FleetJob]:
        return iter(self.jobs)

    def job_ids(self) -> list[str]:
        """Job ids in plan order."""
        return [job.job_id for job in self.jobs]

    def seed_for(self, job: FleetJob) -> int:
        """The job's derived RNG seed (pure function of plan seed + id)."""
        return derive_job_seed(self.seed, job.job_id)

    def signature(self) -> str:
        """Stable content signature of the whole plan."""
        payload = json.dumps(
            {
                "name": self.name,
                "seed": self.seed,
                "jobs": [job.digest() for job in self.jobs],
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]
