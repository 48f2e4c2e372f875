"""Determinism contract of the fleet runner.

The fleet's headline guarantee: for any worker count, any completion
order and any crash/resume split, a plan merges to a result
*bit-identical* to the serial run. These tests exercise that contract
directly — fixed worker-count sweeps, a hypothesis seed sweep, and
journal truncation mid-plan.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import (
    FleetPlan,
    FleetRunner,
    ProbeJob,
    canonical_json,
    sweep_outcome,
    sweep_plan,
    trial_outcome,
    trial_plan,
)
from repro.sim.sweep import SweepConfig, run_sweep
from repro.trace import CpuTrace
from repro.tuning.search import RandomSearch
from repro.sim.simulator import SimulatorConfig
from repro.workloads.synthetic import noisy


@pytest.fixture(autouse=True)
def _hard_timeout(hard_timeout):
    """Every determinism test runs under the shared conftest hang guard."""
    yield


def traces_for(seed: int, count: int = 3, minutes: int = 200):
    return [
        noisy(
            CpuTrace.constant(1.5 + index, minutes, f"d{seed}-{index}"),
            sigma=0.15,
            seed=seed * 101 + index,
        )
        for index in range(count)
    ]


class TestWorkerCountInvariance:
    def test_sweep_identical_for_1_2_4_workers(self):
        traces = traces_for(seed=1)
        serial = run_sweep(traces)
        reference = canonical_json(dict(serial.results))
        for workers in (1, 2, 4):
            outcome = sweep_outcome(
                FleetRunner(workers=workers).run(sweep_plan(traces))
            )
            assert canonical_json(dict(outcome.results)) == reference, (
                f"workers={workers} diverged from serial"
            )

    def test_search_identical_for_1_2_4_workers(self):
        trace = traces_for(seed=2, count=1, minutes=240)[0]
        search = RandomSearch(
            trace, SimulatorConfig(initial_cores=3, max_cores=12)
        )
        serial = search.run(4, seed=0)
        plan = trial_plan(
            search.space.sample_many(4, seed=0),
            search.demand,
            search.simulator_config,
        )
        for workers in (1, 2, 4):
            assert trial_outcome(FleetRunner(workers=workers).run(plan)) == serial

    def test_max_in_flight_does_not_change_results(self):
        traces = traces_for(seed=3)
        plan = sweep_plan(traces)
        reference = canonical_json(
            FleetRunner(workers=2).run(plan).results()
        )
        for bound in (1, 3):
            outcome = FleetRunner(workers=2, max_in_flight=bound).run(plan)
            assert canonical_json(outcome.results()) == reference


class TestSeedSweepProperty:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_parallel_matches_serial_for_any_plan_seed(self, seed):
        plan = FleetPlan(
            jobs=tuple(ProbeJob(f"job-{index}") for index in range(5)),
            name="prop",
            seed=seed,
        )
        serial = FleetRunner(workers=1).run(plan)
        parallel = FleetRunner(workers=2).run(plan)
        assert canonical_json(serial.results()) == canonical_json(
            parallel.results()
        )
        # Per-job seeds are a pure function of (plan seed, job id).
        for job in plan:
            assert serial.results()[job.job_id]["seed"] == plan.seed_for(job)


class TestResumeConvergence:
    def test_truncated_journal_resumes_to_same_outcome(self, tmp_path):
        traces = traces_for(seed=4)
        plan = sweep_plan(traces, config=SweepConfig())
        full_path = tmp_path / "full.jsonl"
        full = FleetRunner(workers=1, journal_path=full_path).run(plan)
        reference = canonical_json(full.results())

        # Simulate a crash after each prefix of completed jobs: truncate
        # the journal to the header + k records and resume.
        lines = full_path.read_text().splitlines()
        for keep in range(len(plan) + 1):
            partial = tmp_path / f"partial-{keep}.jsonl"
            partial.write_text("\n".join(lines[: 1 + keep]) + "\n")
            resumed = FleetRunner(
                workers=2, journal_path=partial, resume=True
            ).run(plan)
            assert resumed.resumed_count == keep
            assert canonical_json(resumed.results()) == reference

    def test_resumed_journal_is_complete(self, tmp_path):
        plan = FleetPlan(
            jobs=tuple(ProbeJob(f"p{index}") for index in range(4)),
            name="complete",
        )
        path = tmp_path / "run.jsonl"
        FleetRunner(workers=1, journal_path=path).run(plan)
        lines = path.read_text().splitlines()
        truncated = [lines[0]] + lines[1:3]
        path.write_text("\n".join(truncated) + "\n")
        FleetRunner(workers=1, journal_path=path, resume=True).run(plan)
        finished = [
            json.loads(line)["job_id"]
            for line in path.read_text().splitlines()[1:]
        ]
        assert sorted(finished) == ["p0", "p1", "p2", "p3"]
