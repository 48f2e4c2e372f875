"""Tests for the fleet execution runtime (:mod:`repro.fleet`)."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.baselines.fixed import FixedRecommender
from repro.baselines.vpa import VpaRecommender
from repro.core.config import CaasperConfig, RoundingMode
from repro.errors import FleetError
from repro.fleet import (
    ChaosJob,
    FleetJournal,
    FleetPlan,
    FleetRunner,
    JobFailure,
    JobRecord,
    ProbeJob,
    SimulateJob,
    TrialJob,
    canonical_json,
    chaos_plan,
    decode,
    decode_json,
    derive_job_seed,
    encode,
    sweep_outcome,
    sweep_plan,
    trial_outcome,
    trial_plan,
)
from repro.fleet.codec import _CLASSES
from repro.obs import Observer
from repro.sim.metrics import SimulationMetrics
from repro.sim.results import ScalingEvent, SimulationResult
from repro.sim.simulator import SimulatorConfig
from repro.sim.sweep import SweepConfig, run_sweep
from repro.trace import CpuTrace
from repro.tuning.search import RandomSearch, TrialResult
from repro.workloads.synthetic import noisy
from repro.workloads.traces import paper_trace


@pytest.fixture(autouse=True)
def _hard_timeout(hard_timeout):
    """Every fleet test runs under the shared conftest hang guard."""
    yield


def small_traces(count=3, minutes=200):
    return [
        noisy(
            CpuTrace.constant(2.0 + index, minutes, f"trace-{index}"),
            sigma=0.1,
            seed=index + 1,
        )
        for index in range(count)
    ]


def probe_plan(*behaviours, name="probe", seed=0, **kwargs):
    jobs = tuple(
        ProbeJob(f"p{index}", behaviour=behaviour, **kwargs)
        for index, behaviour in enumerate(behaviours)
    )
    return FleetPlan(jobs=jobs, name=name, seed=seed)


class TestSeedDerivation:
    def test_pure_and_stable(self):
        assert derive_job_seed(7, "a") == derive_job_seed(7, "a")
        # Pinned value: the derivation must never drift across
        # refactors — journals and chaos replays depend on it.
        assert derive_job_seed(0, "fig3-square-wave") == 650215288

    def test_sensitive_to_seed_and_id(self):
        assert derive_job_seed(1, "a") != derive_job_seed(2, "a")
        assert derive_job_seed(1, "a") != derive_job_seed(1, "b")

    def test_in_rng_range(self):
        for seed in (0, 1, 2**62):
            for job_id in ("x", "y", "a-very-long-job-identifier"):
                value = derive_job_seed(seed, job_id)
                assert 0 <= value < 2**31


class TestPlanAndJobs:
    def test_empty_plan_rejected(self):
        with pytest.raises(FleetError):
            FleetPlan(jobs=())

    def test_duplicate_ids_rejected(self):
        with pytest.raises(FleetError, match="duplicate"):
            FleetPlan(jobs=(ProbeJob("a"), ProbeJob("a")))

    def test_empty_job_id_rejected(self):
        with pytest.raises(FleetError):
            ProbeJob("")

    def test_probe_validation(self):
        with pytest.raises(FleetError):
            ProbeJob("a", behaviour="explode")
        with pytest.raises(FleetError):
            ProbeJob("a", behaviour="sleep", sleep_seconds=-1)

    def test_chaos_job_rejects_unknown_scenario(self):
        with pytest.raises(FleetError, match="unknown scenario"):
            ChaosJob(
                "c", trace=CpuTrace.constant(2.0, 100), scenario="nope"
            )

    def test_signature_tracks_content(self):
        base = probe_plan("ok", "ok")
        assert base.signature() == probe_plan("ok", "ok").signature()
        assert base.signature() != probe_plan("ok", "raise").signature()
        assert (
            base.signature()
            != probe_plan("ok", "ok", seed=1).signature()
        )
        assert (
            base.signature()
            != probe_plan("ok", "ok", name="other").signature()
        )

    def test_simulate_job_requires_fields(self):
        with pytest.raises(FleetError):
            SimulateJob("s")
        with pytest.raises(FleetError):
            TrialJob("t")

    def test_simulate_job_repeatable(self):
        trace = small_traces(1)[0]
        config = SweepConfig()
        plan = sweep_plan([trace], config=config)
        job = plan.jobs[0]
        first = job.execute(plan.seed_for(job))
        second = job.execute(plan.seed_for(job))
        assert canonical_json(first) == canonical_json(second)


# -- job identity audit -------------------------------------------------------
#
# A plan signature guards resume, so every job field must move its job's
# digest. Each job kind below is perturbed one field at a time; a trace
# field is perturbed in each of its own fields. A job field without an
# entry here fails the audit until one is added.

_AUDIT_TRACE = CpuTrace(samples=np.linspace(1.0, 3.0, 60), name="audit")
_AUDIT_JOBS = (
    SimulateJob(
        "job",
        trace=_AUDIT_TRACE,
        recommender=FixedRecommender(4),
        simulator=SimulatorConfig(initial_cores=4),
    ),
    TrialJob(
        "job",
        config=CaasperConfig(),
        demand=_AUDIT_TRACE,
        simulator=SimulatorConfig(initial_cores=4),
    ),
    ChaosJob("job", trace=_AUDIT_TRACE),
    ProbeJob("job"),
)
_TRACE_PERTURBATIONS = {
    "samples": _AUDIT_TRACE.samples * 1.5,
    "name": "audit-2",
    "start_minute": 30,
}
_FIELD_PERTURBATIONS = {
    "job_id": "job-2",
    "recommender": FixedRecommender(12),
    "simulator": SimulatorConfig(initial_cores=5),
    "config": CaasperConfig(c_min=3),
    "recommender_config": CaasperConfig(c_min=3, max_cores=16),
    "scenario": "stuck-rollout",
    "behaviour": "raise",
    "sleep_seconds": 0.5,
}


def _digest_perturbations():
    for job in _AUDIT_JOBS:
        for spec in dataclasses.fields(job):
            value = getattr(job, spec.name)
            if isinstance(value, CpuTrace):
                for name, changed in _TRACE_PERTURBATIONS.items():
                    yield pytest.param(
                        job,
                        spec.name,
                        dataclasses.replace(value, **{name: changed}),
                        id=f"{job.kind}-{spec.name}.{name}",
                    )
            else:
                yield pytest.param(
                    job,
                    spec.name,
                    _FIELD_PERTURBATIONS.get(spec.name),
                    id=f"{job.kind}-{spec.name}",
                )


class TestJobIdentity:
    def test_trace_perturbations_cover_every_trace_field(self):
        assert set(_TRACE_PERTURBATIONS) == {
            spec.name for spec in dataclasses.fields(CpuTrace)
        }

    @pytest.mark.parametrize("job, field, changed", _digest_perturbations())
    def test_every_field_changes_the_digest(self, job, field, changed):
        assert changed is not None, (
            f"{job.kind} job field {field!r} has no perturbation: add one "
            "to _FIELD_PERTURBATIONS proving it reaches the digest"
        )
        perturbed = dataclasses.replace(job, **{field: changed})
        assert perturbed.digest() != job.digest()
        assert (
            FleetPlan(jobs=(perturbed,)).signature()
            != FleetPlan(jobs=(job,)).signature()
        )

    def test_vpa_settings_change_the_digest(self):
        base = dataclasses.replace(_AUDIT_JOBS[0], recommender=VpaRecommender())
        changed = dataclasses.replace(
            base, recommender=VpaRecommender(safety_margin=1.3)
        )
        assert base.digest() != changed.digest()

    def test_plan_signature_stable_across_hash_seeds(self):
        """Signatures derive from content and pinned-protocol pickles,
        never ``hash()``: interpreters with different ``PYTHONHASHSEED``
        values agree with this one."""
        script = (
            "from repro.baselines.vpa import VpaRecommender\n"
            "from repro.fleet import chaos_plan, sweep_plan\n"
            "from repro.workloads.traces import paper_trace\n"
            "traces = [paper_trace('fig3-square-wave'), "
            "paper_trace('fig9-workday')]\n"
            "print(sweep_plan(traces).signature())\n"
            "print(sweep_plan(traces, recommender_factory=lambda _: "
            "VpaRecommender()).signature())\n"
            "print(chaos_plan(traces, 'flaky-actuation').signature())\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p
            for p in (os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH"))
            if p
        )
        outputs = []
        for hash_seed in ("0", "1", "2"):
            env["PYTHONHASHSEED"] = hash_seed
            out = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert out.returncode == 0, out.stderr
            outputs.append(out.stdout)
        traces = [paper_trace("fig3-square-wave"), paper_trace("fig9-workday")]
        local = [
            sweep_plan(traces).signature(),
            sweep_plan(
                traces, recommender_factory=lambda _: VpaRecommender()
            ).signature(),
            chaos_plan(traces, "flaky-actuation").signature(),
        ]
        assert [out.split() for out in outputs] == [local] * 3
        assert len(set(local)) == 3


class TestCodec:
    def test_simulation_result_round_trip(self):
        trace = small_traces(1)[0]
        result = run_sweep([trace]).results[trace.name]
        restored = decode_json(canonical_json(result))
        assert isinstance(restored, SimulationResult)
        assert restored.name == result.name
        assert np.array_equal(restored.usage, result.usage)
        assert np.array_equal(restored.limits, result.limits)
        assert restored.events == result.events
        assert restored.metrics == result.metrics
        # Bit-exact: canonical forms agree too.
        assert canonical_json(restored) == canonical_json(result)

    def test_trial_result_round_trip(self):
        trial = TrialResult(
            config=CaasperConfig(max_cores=16, proactive=True),
            total_slack=12.5,
            total_insufficient_cpu=0.25,
            num_scalings=7,
        )
        restored = decode_json(canonical_json(trial))
        assert restored == trial

    def test_scaling_event_and_failure_round_trip(self):
        event = ScalingEvent(10, 15, 2, 4)
        assert decode(encode(event)) == event
        failure = JobFailure("j", "ValueError", "boom", "tb", "timeout")
        assert decode(encode(failure)) == failure

    def test_nested_containers(self):
        payload = {"a": [1, 2.5, None], "b": {"c": "x"}}
        assert decode(encode(payload)) == payload

    def test_unencodable_rejected(self):
        with pytest.raises(FleetError, match="cannot encode"):
            encode(object())

        @dataclasses.dataclass(frozen=True)
        class Unregistered:
            value: int = 1

        with pytest.raises(FleetError, match="cannot encode"):
            encode(Unregistered())

    def test_every_table_entry_round_trips_with_exact_types(self):
        trace = small_traces(1)[0]
        result = run_sweep([trace]).results[trace.name]
        assert result.events, "the sample run must scale at least once"
        samples = {
            "simulation_result": result,
            "simulation_metrics": result.metrics,
            "scaling_event": result.events[0],
            "job_failure": JobFailure("j", "ValueError", "boom", "tb", "timeout"),
            "trial_result": TrialResult(
                config=CaasperConfig(rounding=RoundingMode.FLOOR),
                total_slack=1.5,
                total_insufficient_cpu=0.125,
                num_scalings=3,
            ),
        }
        assert set(samples) == set(_CLASSES)
        for tag, value in samples.items():
            encoded = encode(value)
            assert encoded["__fleet__"] == tag
            restored = decode(json.loads(json.dumps(encoded)))
            assert type(restored) is _CLASSES[tag]
            assert canonical_json(restored) == canonical_json(value)
        restored = decode_json(canonical_json(result))
        assert type(restored.events) is tuple
        assert all(type(event) is ScalingEvent for event in restored.events)
        assert type(restored.metrics) is SimulationMetrics
        for name in ("demand", "usage", "limits"):
            array = getattr(restored, name)
            assert type(array) is np.ndarray and array.dtype == np.float64
            assert np.array_equal(array, getattr(result, name))
        trial = decode_json(canonical_json(samples["trial_result"]))
        assert trial.config.rounding is RoundingMode.FLOOR
        assert trial == samples["trial_result"]


class TestSerialRunner:
    def test_all_ok(self):
        outcome = FleetRunner(workers=1).run(probe_plan("ok", "ok", "ok"))
        assert outcome.ok_count == 3
        assert outcome.failed_count == 0
        assert list(outcome.results()) == ["p0", "p1", "p2"]
        outcome.require_success()

    def test_failure_captured_not_raised(self):
        outcome = FleetRunner(workers=1).run(probe_plan("ok", "raise"))
        assert outcome.ok_count == 1
        assert outcome.failed_count == 1
        failure = outcome.failures()[0]
        assert failure.job_id == "p1"
        assert failure.error_type == "FleetError"
        assert failure.failure_kind == "exception"
        assert "by design" in failure.message
        assert "FleetError" in failure.traceback
        with pytest.raises(FleetError, match="1 of 2 jobs failed"):
            outcome.require_success()

    def test_probe_results_carry_derived_seed(self):
        plan = probe_plan("ok", seed=9)
        outcome = FleetRunner(workers=1).run(plan)
        assert outcome.results()["p0"] == {
            "probe": "p0",
            "seed": derive_job_seed(9, "p0"),
        }

    def test_runner_validation(self):
        with pytest.raises(FleetError):
            FleetRunner(workers=0)
        with pytest.raises(FleetError):
            FleetRunner(job_timeout_seconds=0)
        with pytest.raises(FleetError):
            FleetRunner(max_in_flight=0)
        with pytest.raises(FleetError):
            FleetRunner(resume=True)  # resume needs a journal

    def test_record_validation(self):
        with pytest.raises(FleetError):
            JobRecord(job_id="x", status="odd")
        with pytest.raises(FleetError):
            JobRecord(job_id="x", status="failed")  # missing failure


class TestMergePositions:
    def test_job_ids_listed_a_constant_number_of_times(self, monkeypatch):
        calls = []
        job_ids = FleetPlan.job_ids

        def counting(self):
            calls.append(len(self))
            return job_ids(self)

        monkeypatch.setattr(FleetPlan, "job_ids", counting)
        for workers in (1, 2):
            counts = []
            for size in (5, 20):
                calls.clear()
                FleetRunner(workers=workers, observer=Observer()).run(
                    probe_plan(*["ok"] * size)
                )
                counts.append(len(calls))
            assert counts[0] == counts[1], f"workers={workers}: {counts}"


class TestParallelRunner:
    def test_matches_serial(self):
        plan = probe_plan("ok", "ok", "ok", "ok", seed=5)
        serial = FleetRunner(workers=1).run(plan)
        parallel = FleetRunner(workers=2).run(plan)
        assert canonical_json(serial.results()) == canonical_json(
            parallel.results()
        )

    def test_failure_isolated(self):
        plan = probe_plan("ok", "raise", "ok")
        outcome = FleetRunner(workers=2).run(plan)
        assert outcome.ok_count == 2
        assert outcome.failed_count == 1
        assert outcome.failures()[0].failure_kind == "exception"

    def test_timeout_becomes_typed_failure(self):
        plan = FleetPlan(
            jobs=(
                ProbeJob("fast"),
                ProbeJob("slow", behaviour="sleep", sleep_seconds=45.0),
            ),
            name="stall",
        )
        outcome = FleetRunner(workers=2, job_timeout_seconds=3.0).run(plan)
        assert outcome.results().keys() == {"fast"}
        failure = outcome.failures()[0]
        assert failure.job_id == "slow"
        assert failure.failure_kind == "timeout"


class TestJournal:
    def test_resume_skips_completed(self, tmp_path):
        path = tmp_path / "run.jsonl"
        plan = probe_plan("ok", "ok", "ok")
        first = FleetRunner(workers=1, journal_path=path).run(plan)
        resumed = FleetRunner(
            workers=1, journal_path=path, resume=True
        ).run(plan)
        assert resumed.resumed_count == 3
        assert canonical_json(first.results()) == canonical_json(
            resumed.results()
        )

    def test_partial_journal_resumes_rest(self, tmp_path):
        path = tmp_path / "run.jsonl"
        plan = probe_plan("ok", "ok", "ok", "ok")
        with FleetJournal(path, plan) as journal:
            job = plan.jobs[0]
            journal.record(
                JobRecord(
                    job_id=job.job_id,
                    status="ok",
                    result=job.execute(plan.seed_for(job)),
                )
            )
        outcome = FleetRunner(
            workers=1, journal_path=path, resume=True
        ).run(plan)
        assert outcome.resumed_count == 1
        assert outcome.ok_count == 4
        serial = FleetRunner(workers=1).run(plan)
        assert canonical_json(outcome.results()) == canonical_json(
            serial.results()
        )

    def test_signature_mismatch_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        FleetRunner(workers=1, journal_path=path).run(probe_plan("ok"))
        other = probe_plan("ok", seed=99)
        with pytest.raises(FleetError, match="signature"):
            FleetRunner(workers=1, journal_path=path, resume=True).run(other)

    def test_recommender_arguments_guard_resume(self, tmp_path):
        """A plan that differs only in a baseline's constructor argument
        must not restore the other plan's results."""
        path = tmp_path / "run.jsonl"
        trace = small_traces(1)[0]

        def plan(cores):
            return sweep_plan(
                [trace], recommender_factory=lambda _: FixedRecommender(cores)
            )

        FleetRunner(workers=1, journal_path=path).run(plan(4))
        with pytest.raises(FleetError, match="signature"):
            FleetRunner(workers=1, journal_path=path, resume=True).run(plan(12))

    def test_unpicklable_recommender_runs_unjournaled_only(self, tmp_path):
        recommender = FixedRecommender(4)
        recommender.hook = lambda minute: None  # functions deep-copy, not pickle
        trace = small_traces(1)[0]
        plan = sweep_plan([trace], recommender_factory=lambda _: recommender)
        assert FleetRunner(workers=1).run(plan).ok_count == 1
        with pytest.raises(FleetError, match=f"job {trace.name!r}"):
            FleetRunner(workers=1, journal_path=tmp_path / "run.jsonl").run(plan)

    def test_failures_are_retried_on_resume(self, tmp_path):
        path = tmp_path / "run.jsonl"
        plan = probe_plan("ok", "raise")
        FleetRunner(workers=1, journal_path=path).run(plan)
        resumed = FleetRunner(
            workers=1, journal_path=path, resume=True
        ).run(plan)
        # The ok job is restored; the failed one re-executes (and, being
        # deterministic, fails again) rather than being replayed.
        assert resumed.resumed_count == 1
        assert resumed.failed_count == 1
        assert not resumed.records[1].journaled

    def test_torn_tail_line_ignored(self, tmp_path):
        path = tmp_path / "run.jsonl"
        plan = probe_plan("ok", "ok")
        FleetRunner(workers=1, journal_path=path).run(plan)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"kind": "job", "job_id": "p1", "stat')
        outcome = FleetRunner(
            workers=1, journal_path=path, resume=True
        ).run(plan)
        assert outcome.ok_count == 2

    def test_corrupt_middle_line_refuses_resume(self, tmp_path):
        path = tmp_path / "run.jsonl"
        plan = probe_plan("ok", "ok", "ok")
        FleetRunner(workers=1, journal_path=path).run(plan)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = "not json"  # the second job's checkpoint
        damaged = "\n".join(lines) + "\n"
        path.write_text(damaged, encoding="utf-8")
        with pytest.raises(FleetError, match=r"corrupt journal record at .*run\.jsonl:3"):
            FleetRunner(workers=1, journal_path=path, resume=True).run(plan)
        # Refusing leaves the intact checkpoints on disk for inspection.
        assert path.read_text(encoding="utf-8") == damaged

    def test_resume_killed_mid_rewrite_keeps_prior_jobs(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "run.jsonl"
        plan = probe_plan("ok", "ok", "ok")
        FleetRunner(workers=1, journal_path=path).run(plan)

        class Killed(BaseException):
            pass

        def killed(fd):
            raise Killed

        # A kill at the rewrite's first durability point must not cost
        # the checkpoints the journal already held.
        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", killed)
            with pytest.raises(Killed):
                FleetJournal(path, plan, resume=True)
        resumed = FleetRunner(
            workers=1, journal_path=path, resume=True
        ).run(plan)
        assert resumed.resumed_count == 3

    def test_journal_lines_are_json(self, tmp_path):
        path = tmp_path / "run.jsonl"
        plan = probe_plan("ok", "raise")
        FleetRunner(workers=1, journal_path=path).run(plan)
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line
        ]
        assert lines[0]["kind"] == "plan"
        assert lines[0]["signature"] == plan.signature()
        assert {line["job_id"] for line in lines[1:]} == {"p0", "p1"}


class TestObserverIntegration:
    def test_progress_events_and_metrics(self):
        observer = Observer()
        FleetRunner(workers=1, observer=observer).run(
            probe_plan("ok", "raise")
        )
        kinds = [event.kind for event in observer.ring.events]
        assert kinds.count("fleet_job_started") == 2
        assert kinds.count("fleet_job_finished") == 1
        assert kinds.count("fleet_job_failed") == 1
        snapshot = observer.metrics.snapshot()["fleet_jobs_total"]
        assert snapshot["values"]['{status="ok"}'] == 1.0
        assert snapshot["values"]['{status="failed"}'] == 1.0

    def test_worker_events_relayed_in_plan_order(self):
        traces = small_traces(2)
        serial_obs = Observer()
        run_sweep(traces, observer=serial_obs)
        fleet_obs = Observer()
        sweep_outcome(
            FleetRunner(workers=2, observer=fleet_obs).run(sweep_plan(traces))
        )
        # The parent-side event stream (minus the fleet progress events)
        # must be *identical* to the serial stream — same events, same
        # order — because telemetry replays grouped by job in plan
        # order, never completion order.
        def normalised(events):
            payloads = []
            for event in events:
                if event.kind.startswith("fleet_"):
                    continue
                # The fleet runner opens its own fleet-level trace;
                # the serial path has no fleet, so that root event is
                # fleet-specific (job-level traces are identical).
                if event.kind == "trace_started" and event.name.startswith(
                    "fleet:"
                ):
                    continue
                payload = event.to_dict()
                # Wall-clock measurements legitimately differ run to
                # run; everything decision-relevant must not.
                payload.pop("elapsed_seconds", None)
                payloads.append(payload)
            return payloads

        fleet_events = normalised(fleet_obs.ring.events)
        serial_events = normalised(serial_obs.ring.events)
        assert fleet_events == serial_events
        assert any(event["kind"] == "decision" for event in fleet_events)

    def test_parent_metrics_include_worker_counts(self):
        traces = small_traces(2)
        serial_obs = Observer()
        run_sweep(traces, observer=serial_obs)
        fleet_obs = Observer()
        sweep_outcome(
            FleetRunner(workers=2, observer=fleet_obs).run(sweep_plan(traces))
        )
        serial_decisions = serial_obs.metrics.snapshot().get(
            "decisions_total"
        )
        fleet_decisions = fleet_obs.metrics.snapshot().get("decisions_total")
        assert serial_decisions == fleet_decisions


class TestPlans:
    def test_sweep_plan_round_trip(self):
        traces = small_traces(3)
        serial = run_sweep(traces)
        outcome = FleetRunner(workers=1).run(sweep_plan(traces))
        merged = sweep_outcome(outcome.require_success())
        assert canonical_json(dict(serial.results)) == canonical_json(
            dict(merged.results)
        )
        assert serial.aggregate() == merged.aggregate()

    def test_executor_seam_in_run_sweep(self):
        # The process fan-out of a sweep is a sweep plan on a runner.
        traces = small_traces(2)
        serial = run_sweep(traces)
        fleet = sweep_outcome(FleetRunner(workers=2).run(sweep_plan(traces)))
        assert canonical_json(dict(serial.results)) == canonical_json(
            dict(fleet.results)
        )

    def test_chaos_plan_replays_deterministically(self):
        traces = small_traces(1, minutes=240)
        plan = chaos_plan(traces, scenario="flaky-actuation", seed=4)
        first = FleetRunner(workers=1).run(plan).require_success()
        second = FleetRunner(workers=1).run(plan).require_success()
        assert canonical_json(first.results()) == canonical_json(
            second.results()
        )

    def test_chaos_plan_seed_changes_outcome_signature(self):
        traces = small_traces(1)
        assert (
            chaos_plan(traces, seed=1).signature()
            != chaos_plan(traces, seed=2).signature()
        )


class TestTuningSeam:
    def test_random_search_executor_matches_serial(self):
        trace = small_traces(1, minutes=240)[0]
        search = RandomSearch(
            trace, SimulatorConfig(initial_cores=3, max_cores=12)
        )
        serial = search.run(4, seed=2)
        plan = trial_plan(
            search.space.sample_many(4, seed=2),
            search.demand,
            search.simulator_config,
        )
        assert [job.job_id for job in plan][:2] == ["trial-00000", "trial-00001"]
        fleet = trial_outcome(FleetRunner(workers=1).run(plan))
        assert serial == fleet

    def test_grid_search_executor_matches_serial(self):
        from repro.tuning.grid import GridSearch

        trace = small_traces(1, minutes=240)[0]
        grid = GridSearch(
            trace,
            SimulatorConfig(initial_cores=3, max_cores=12),
            CaasperConfig(max_cores=12),
            {"window_minutes": [20, 40]},
        )
        plan = trial_plan(
            grid.configs,
            trace,
            SimulatorConfig(initial_cores=3, max_cores=12),
            name="grid",
        )
        assert grid.run() == trial_outcome(FleetRunner(workers=1).run(plan))
