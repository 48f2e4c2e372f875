"""Crash/recovery property tests for the serve plane.

The PR's core guarantee: a serve process SIGKILLed at a random tick and
restarted from its ``--state-dir`` produces a per-tenant K/C/N ledger
**byte-identical** to a run that was never interrupted. Three layers of
evidence, mirroring ``tests/test_fleet_determinism.py``:

1. in-process kill/restart cycles at seeded random ticks (fast, many);
2. journal *truncation* after the kill — replaying a strict prefix of
   the inputs still recovers, and finishing the run still converges
   (torn-tail SIGKILL artifacts are survivable);
3. a real subprocess run under ``timeout -s KILL`` resumed by a second
   process, byte-comparing ``--kcn-out`` files.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

from repro.serve.config import ServeConfig
from repro.serve.harness import ServeHarness

pytestmark = pytest.mark.usefixtures("hard_timeout")

TENANTS = 6
TICKS = 160


def harness_config():
    return ServeConfig(
        queue_capacity=5,
        global_sample_cap=96,
        breaker_failure_threshold=2,
        breaker_open_ticks=15,
        quarantine_restarts=3,
        quarantine_window_ticks=80,
        quarantine_release_ticks=40,
        snapshot_interval_ticks=48,
        fsync_journal=False,  # crash points are simulated, not real
    )


def make_harness(state_dir=None, seed=11):
    return ServeHarness(
        TENANTS,
        config=harness_config(),
        state_dir=state_dir,
        seed=seed,
        scenario="kitchen-sink",
        scenario_minutes=TICKS,
        crash_rate=0.01,
        crash_horizon_ticks=TICKS,
    )


def oracle_kcn():
    harness = make_harness()
    harness.run(TICKS)
    return json.dumps(harness.kcn(), sort_keys=True)


class TestKillRestartProperty:
    @pytest.mark.parametrize("kill_seed", [1, 2, 3])
    def test_random_kills_converge_byte_identically(
        self, tmp_path, kill_seed
    ):
        want = oracle_kcn()
        state_dir = str(tmp_path / "state")
        rng = random.Random(kill_seed)
        harness = make_harness(state_dir=state_dir)
        done = 0
        kills = 0
        while done < TICKS:
            step = min(rng.randint(3, 40), TICKS - done)
            harness.run(step)
            done += step
            if done < TICKS:
                harness.crash()  # SIGKILL: journal closed cold
                kills += 1
                harness = make_harness(state_dir=state_dir)
                assert harness.plane.tick == done
                assert harness.plane.recovery is not None
                assert harness.plane.recovery["digest_verified"]
        assert kills >= 2
        assert json.dumps(harness.kcn(), sort_keys=True) == want

    def test_torn_journal_tail_is_survivable(self, tmp_path):
        want = oracle_kcn()
        state_dir = str(tmp_path / "state")
        harness = make_harness(state_dir=state_dir)
        harness.run(90)
        harness.crash()
        journal = tmp_path / "state" / "journal.jsonl"
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 999999, "kind": "telemetry", "ba')
        harness = make_harness(state_dir=state_dir)
        assert harness.plane.recovery is not None
        assert harness.plane.recovery.get("torn_tail_dropped")
        # Records acked after the recovery must survive the next one,
        # which lands before the tick-96 compaction rewrites the journal.
        harness.run(3)
        harness.crash()
        harness = make_harness(state_dir=state_dir)
        assert harness.plane.tick == 93
        assert not harness.plane.recovery.get("torn_tail_dropped")
        harness.run(TICKS - harness.plane.tick)
        assert json.dumps(harness.kcn(), sort_keys=True) == want

    def test_truncated_journal_replays_a_prefix(self, tmp_path):
        # Dropping whole committed records rewinds the plane to an
        # earlier consistent tick; finishing from there still converges.
        want = oracle_kcn()
        state_dir = str(tmp_path / "state")
        harness = make_harness(state_dir=state_dir)
        harness.run(30)  # before the first snapshot compaction
        harness.crash()
        journal = tmp_path / "state" / "journal.jsonl"
        lines = journal.read_text().splitlines()
        boundary = max(
            index
            for index, line in enumerate(lines[1:], start=1)
            if json.loads(line).get("kind") == "tick"
            and index < len(lines) - 4
        )
        journal.write_text("\n".join(lines[: boundary + 1]) + "\n")
        harness = make_harness(state_dir=state_dir)
        assert harness.plane.tick < 30
        harness.run(TICKS - harness.plane.tick)
        assert json.dumps(harness.kcn(), sort_keys=True) == want


class TestSubprocessSigkill:
    def test_real_sigkill_resumes_byte_identically(self, tmp_path):
        """A real process killed with SIGKILL, resumed by a second one."""
        import repro

        src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src_root, env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        base = [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--tenants",
            "4",
            "--minutes",
            "140",
            "--seed",
            "6",
            "--crash-rate",
            "0.01",
            "--scenario",
            "component-crash",
        ]
        ref = tmp_path / "ref.json"
        got = tmp_path / "got.json"
        state = str(tmp_path / "state")

        clean = subprocess.run(
            base + ["--kcn-out", str(ref)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert clean.returncode == 0, clean.stderr

        timeout_bin = shutil.which("timeout")
        interrupted_cmd = base + ["--state-dir", state, "--kcn-out", str(got)]
        if timeout_bin is not None:
            subprocess.run(
                [timeout_bin, "-s", "KILL", "1"] + interrupted_cmd,
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )  # exit code 137 expected; a fast machine may finish first
        resumed = subprocess.run(
            interrupted_cmd,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert got.read_bytes() == ref.read_bytes()
