"""Fleet-scale parallel execution runtime.

CaaSPER's evaluation is embarrassingly parallel: §6 sweeps hundreds of
(trace × recommender-config) cells, the tuning search of §6.3 evaluates
independent candidate configs, and the resilience suite replays chaos
scenarios per trace. This package runs those fleets across worker
processes without giving up the repo's two core guarantees:

- **Determinism** — a fleet run merges to a result *bit-identical* to
  the serial run, for any worker count and any completion order. Jobs
  are pure functions of ``(spec, seed)``; per-job seeds derive from the
  plan seed by stable integer mixing (:mod:`repro.fleet.jobs`); merges
  and telemetry replay happen in plan order (:mod:`repro.fleet.runner`,
  :mod:`repro.fleet.relay`).
- **Observability** — worker-side events, metrics and spans ride back
  to the parent observer in pickle-safe envelopes, and the runner emits
  ``fleet_job_started/finished/failed`` progress events (OBS001).

Crash safety comes from the append-only JSONL checkpoint journal
(:mod:`repro.fleet.journal`): re-running an interrupted plan with
``resume=True`` skips completed jobs and converges on the same outcome.

Entry points: :class:`FleetRunner` over a :class:`FleetPlan`, built
directly or by the plan builders (:func:`sweep_plan`, :func:`trial_plan`,
:func:`chaos_plan`), or the ``caasper fleet`` CLI.
"""

from __future__ import annotations

from .codec import canonical_json, decode, decode_json, encode
from .jobs import (
    ChaosJob,
    FleetJob,
    FleetPlan,
    JobFailure,
    JobRecord,
    ProbeJob,
    SimulateJob,
    TrialJob,
    derive_job_seed,
)
from .journal import FleetJournal
from .plans import chaos_plan, sweep_outcome, sweep_plan, trial_outcome, trial_plan
from .relay import WorkerTelemetry, collect, replay, worker_observer
from .runner import FleetOutcome, FleetRunner

__all__ = [
    "ChaosJob",
    "FleetJob",
    "FleetJournal",
    "FleetOutcome",
    "FleetPlan",
    "FleetRunner",
    "JobFailure",
    "JobRecord",
    "ProbeJob",
    "SimulateJob",
    "TrialJob",
    "WorkerTelemetry",
    "canonical_json",
    "chaos_plan",
    "collect",
    "decode",
    "decode_json",
    "derive_job_seed",
    "encode",
    "replay",
    "sweep_outcome",
    "sweep_plan",
    "trial_outcome",
    "trial_plan",
    "worker_observer",
]
