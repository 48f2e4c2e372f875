"""Tests for the serve control plane (:mod:`repro.serve.plane`)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ServeError
from repro.obs import Observer
from repro.serve.config import ServeConfig, TenantSpec
from repro.serve.harness import ServeHarness
from repro.serve.plane import ControlPlane
from repro.serve.tenant import DueConsult


@pytest.fixture(autouse=True)
def _hard_timeout(hard_timeout):
    yield


def small_config(**overrides):
    defaults = dict(
        queue_capacity=4,
        global_sample_cap=64,
        snapshot_interval_ticks=10,
        fsync_journal=False,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


def spec(name, **overrides):
    defaults = dict(seed=3, replicas=1, decision_interval_minutes=5)
    defaults.update(overrides)
    return TenantSpec(tenant=name, **defaults)


class TestRegistration:
    def test_register_and_step(self):
        plane = ControlPlane(small_config())
        assert plane.register(spec("a"))["ok"]
        plane.ingest("a", [3.0])
        plane.step_tick()
        assert plane.tick == 1
        assert plane.tenants["a"].minutes_stepped == 1

    def test_duplicate_is_a_decision_not_an_error(self):
        plane = ControlPlane(small_config())
        plane.register(spec("a"))
        result = plane.register(spec("a"))
        assert result == {"ok": False, "reason": "duplicate"}

    def test_max_tenants_cap(self):
        plane = ControlPlane(small_config(max_tenants=1))
        plane.register(spec("a"))
        assert plane.register(spec("b"))["reason"] == "capacity"

    def test_registration_emits_event_with_trace(self):
        observer = Observer()
        plane = ControlPlane(small_config(), observer=observer)
        plane.register(spec("a"))
        assert observer.ring is not None
        events = observer.ring.of_kind("tenant_registered")
        assert len(events) == 1
        assert events[0].tenant == "a"
        assert events[0].trace_id  # plane opened a serve: trace


class TestTicking:
    def test_kcn_accumulates(self):
        plane = ControlPlane(small_config())
        plane.register(spec("a"))
        for _ in range(30):
            plane.ingest("a", [4.0])
            plane.step_tick()
        kcn = plane.kcn()["a"]
        assert kcn["K"] > 0  # allocation above usage accrues slack
        assert kcn["N"] >= 0

    def test_starved_tenant_holds_last_demand(self):
        plane = ControlPlane(small_config())
        plane.register(spec("a"))
        plane.ingest("a", [5.0])
        plane.step_tick()
        plane.step_tick()  # queue empty: starved minute
        runtime = plane.tenants["a"]
        assert runtime.starved_minutes == 1
        assert runtime.last_demand == 5.0

    def test_ledger_digest_is_deterministic(self):
        first = ControlPlane(small_config())
        second = ControlPlane(small_config())
        for plane in (first, second):
            plane.register(spec("a"))
            plane.ingest("a", [2.0, 3.0])
            plane.step_tick()
        assert first.ledger_digest() == second.ledger_digest()

    def test_crashing_tenant_is_supervised_not_fatal(self):
        plane = ControlPlane(small_config())
        plane.register(spec("a", crash_rate=0.9, seed=1))
        for _ in range(20):
            plane.ingest("a", [3.0])
            plane.step_tick()  # must never raise
        assert plane.tenants["a"].crashes > 0
        assert plane.audit()["supervisor"]["restarts"] > 0


class TestRecovery:
    def run_inputs(self, plane, ticks=25):
        plane.register(spec("a"))
        plane.register(spec("b", seed=9))
        for tick in range(ticks):
            plane.ingest_batch(
                {"a": [3.0 + 0.1 * tick], "b": [2.0, 4.0]}
            )
            plane.step_tick()

    def test_recovery_is_byte_identical(self, tmp_path):
        state_dir = str(tmp_path / "state")
        plane = ControlPlane(small_config(), state_dir=state_dir)
        self.run_inputs(plane)
        want = json.dumps(plane.kcn(), sort_keys=True)
        plane.abandon()  # SIGKILL: no drain, no snapshot

        recovered = ControlPlane(small_config(), state_dir=state_dir)
        assert recovered.recovery is not None
        assert recovered.recovery["tick"] == 25
        assert recovered.recovery["recovered_tenants"] == 2
        assert recovered.recovery["digest_verified"]
        assert json.dumps(recovered.kcn(), sort_keys=True) == want

    def test_recovery_emits_state_recovered_event(self, tmp_path):
        state_dir = str(tmp_path / "state")
        plane = ControlPlane(small_config(), state_dir=state_dir)
        self.run_inputs(plane, ticks=5)
        plane.abandon()
        observer = Observer()
        recovered = ControlPlane(
            small_config(), state_dir=state_dir, observer=observer
        )
        assert observer.ring is not None
        events = observer.ring.of_kind("state_recovered")
        assert len(events) == 1
        assert events[0].recovered_tenants == 2
        # Replayed inputs re-emit nothing: only trace start + recovery.
        kinds = {event.kind for event in observer.ring.events}
        assert "tenant_registered" not in kinds
        del recovered

    def test_signature_guard_refuses_other_config(self, tmp_path):
        state_dir = str(tmp_path / "state")
        plane = ControlPlane(small_config(), state_dir=state_dir)
        self.run_inputs(plane, ticks=3)
        plane.abandon()
        with pytest.raises(ServeError, match="refusing to replay"):
            ControlPlane(
                small_config(queue_capacity=5), state_dir=state_dir
            )

    def test_tampered_ledger_fails_digest_check(self, tmp_path):
        state_dir = str(tmp_path / "state")
        plane = ControlPlane(
            small_config(snapshot_interval_ticks=0), state_dir=state_dir
        )
        self.run_inputs(plane, ticks=3)
        plane.abandon()
        journal = tmp_path / "state" / "journal.jsonl"
        lines = journal.read_text().splitlines()
        doctored = []
        for line in lines:
            record = json.loads(line)
            if record.get("kind") == "telemetry":
                record["batch"] = {
                    tenant: [value * 2 for value in samples]
                    for tenant, samples in record["batch"].items()
                }
            doctored.append(json.dumps(record, separators=(",", ":")))
        journal.write_text("\n".join(doctored) + "\n")
        with pytest.raises(ServeError, match="diverges from the digest"):
            ControlPlane(
                small_config(snapshot_interval_ticks=0),
                state_dir=state_dir,
            )


class TestDrainAndReady:
    def test_drain_consumes_queues_and_closes(self, tmp_path):
        plane = ControlPlane(
            small_config(), state_dir=str(tmp_path / "state")
        )
        plane.register(spec("a"))
        plane.ingest("a", [2.0, 3.0, 4.0])
        result = plane.drain("test")
        assert result["ok"]
        assert result["pending"] == 0
        assert plane.drained
        with pytest.raises(ServeError, match="already drained"):
            plane.step_tick()

    def test_drain_rejects_new_ingest(self):
        plane = ControlPlane(small_config())
        plane.register(spec("a"))
        plane.drain("test")
        decision = plane.ingest("a", [1.0])
        assert not decision.admitted
        assert decision.reason == "draining"

    def test_drain_emits_begin_and_complete(self):
        observer = Observer()
        plane = ControlPlane(small_config(), observer=observer)
        plane.register(spec("a"))
        plane.ingest("a", [1.0, 2.0])
        plane.drain("sigterm")
        assert observer.ring is not None
        events = observer.ring.of_kind("drain")
        assert [event.action for event in events] == ["begin", "complete"]
        assert events[0].pending == 2
        assert events[0].reason == "sigterm"

    def test_quiesce_preserves_queued_work(self, tmp_path):
        state_dir = str(tmp_path / "state")
        plane = ControlPlane(small_config(), state_dir=state_dir)
        plane.register(spec("a"))
        plane.ingest("a", [2.0, 3.0])
        plane.quiesce("test")
        assert plane.tick == 0  # no extra ticks ran
        recovered = ControlPlane(small_config(), state_dir=state_dir)
        assert recovered.admission.total_queued() == 2

    def test_ready_reflects_draining(self):
        plane = ControlPlane(small_config())
        plane.register(spec("a"))
        assert plane.ready() == (True, [])
        plane.drain("test")
        ready, reasons = plane.ready()
        assert not ready
        assert "draining" in reasons


class TestBatchedConsults:
    def _checked_run(self, monkeypatch, harness, ticks):
        """Run ``harness``, checking each batched target against the scalar
        oracle; returns ``(spec, consult)`` for every checked consult."""
        checked = []
        decide_due = ControlPlane._decide_due

        def checking(plane, due):
            targets = decide_due(plane, due)
            for (_, tenant, consult), target in zip(due, targets):
                runtime = plane.tenants[tenant]
                assert runtime.loop.due is None
                # The oracle rebuilds the window, firing an active
                # forecaster fault again; keep the injector's state so the
                # run itself is not perturbed.
                faults = runtime.loop.faults
                saved = (dict(faults.counts), faults._forecaster_fired_minute)
                oracle = runtime.loop.recommender.decide(consult.current)
                faults.counts, faults._forecaster_fired_minute = saved
                assert target == oracle.target_cores, (tenant, consult.minute)
                checked.append((runtime.spec, consult))
            return targets

        monkeypatch.setattr(ControlPlane, "_decide_due", checking)
        harness.run(ticks)
        return checked

    def test_batched_targets_match_the_scalar_oracle(self, monkeypatch):
        def harness():
            return ServeHarness(
                8,
                config=ServeConfig(fsync_journal=False),
                seed=2,
                scenario="component-crash",
                scenario_minutes=2000,
                crash_rate=0.01,
                crash_horizon_ticks=300,
            )

        checked_harness = harness()
        checked = self._checked_run(monkeypatch, checked_harness, 1700)
        plane = checked_harness.plane
        sizes = {consult.window.size for _, consult in checked}
        assert min(sizes) < 40  # the first ticks' short windows
        assert {spec.max_cores for spec, _ in checked} == {8, 12, 16}
        assert any(not spec.proactive for spec, _ in checked)
        # Proactive tenants past the 1440-minute gate: 40 observed + 60
        # forecast minutes.
        assert any(
            spec.proactive and consult.minute > 1440 and consult.window.size == 100
            for spec, consult in checked
        )
        audit = plane.audit()
        assert audit["resilience"]["quarantined_consults"] > 0
        assert audit["resilience"]["forecaster_degradations"] > 0
        assert audit["breakers"]["skipped_consults"] > 0
        assert audit["supervisor"]["restarts"] > 0
        restarted = {t for t, rt in plane.tenants.items() if rt.crashes}
        assert any(
            spec.tenant in restarted and consult.minute > 300
            for spec, consult in checked
        )
        assert sum(rt.starved_minutes for rt in plane.tenants.values()) > 0
        # The oracle left the run as it was.
        monkeypatch.undo()
        plain = harness()
        plain.run(1700)
        assert plain.plane.ledger_digest() == plane.ledger_digest()
        assert plain.plane.audit() == audit

    def test_reset_drops_a_due_consult(self):
        plane = ControlPlane(small_config())
        plane.register(spec("a"))
        runtime = plane.tenants["a"]
        runtime.loop.due = DueConsult(5, 4, np.ones(6))
        runtime.reset()
        assert runtime.loop.due is None
