"""The deterministic control-plane engine behind ``caasper serve``.

:class:`ControlPlane` is the daemon's entire decision-making core, and
it is deliberately *synchronous and clock-free*: registrations,
telemetry ingests and tick steps are plain method calls whose outcomes
are pure functions of the call sequence. The asyncio daemon
(:mod:`repro.serve.server`) is a thin I/O edge that feeds this engine
from sockets and timers; tests, the drill and crash recovery feed it
the same calls directly. That split is what makes the strongest
guarantee in this package provable: replaying the journaled input
sequence (see :mod:`repro.serve.state`) through a freshly-built plane
reconstructs the per-tenant K/C/N ledger *byte-for-byte*, and every
recovery cross-checks its rebuilt ledger digest against the last
committed tick's digest before agreeing to serve.

One tick = one simulated minute of the fleet, in three phases. First,
for each tenant (in registration order), the supervisor gate runs
(backoff / quarantine / resume), then one queued telemetry sample is
consumed and the tenant's hardened loop steps up to its consult. Then
every due consult is decided in kernel cohorts
(:func:`~repro.engine.batch.decide_cohort`), and last each tenant
enacts its target, again in registration order. A tenant crash in
either tenant phase is caught at the supervision boundary and handed
to the :class:`~repro.serve.supervisor.Supervisor`; nothing a tenant
does can take the plane down.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np

from ..core.config import CaasperConfig
from ..engine.batch import decide_cohort, vectorizable
from ..engine.kernel import LaneParams
from ..errors import ServeError
from ..obs.events import (
    BreakerTransitionEvent,
    DrainEvent,
    StateRecoveredEvent,
    TenantRegisteredEvent,
)
from ..obs.observer import Observer
from .admission import AdmissionController, AdmissionDecision
from .config import ServeConfig, TenantSpec
from .state import ServeState
from .breaker import TransitionCallback
from .supervisor import Supervisor
from .tenant import DueConsult, TenantRuntime

__all__ = ["ControlPlane"]


class ControlPlane:
    """Registrations, admission, supervised ticking and crash-safe state.

    Parameters
    ----------
    config:
        Plane-level robustness knobs.
    state_dir:
        Optional crash-safe state directory. When it already holds a
        journal/snapshot written under the same configuration
        signature, construction *recovers*: every journaled input is
        replayed (silently — no events re-emitted) and the plane
        resumes at the exact committed tick.
    observer:
        Optional :class:`~repro.obs.observer.Observer`; when given and
        no trace is open, the plane opens a ``serve:`` causal trace so
        every lifecycle event carries trace/span ids.
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        state_dir: str | None = None,
        observer: Observer | None = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.observer = observer
        if observer is not None and observer.tracer is None:
            observer.start_trace("serve:plane", seed=self.config.seed)
        self._replaying = False
        self.tick = 0
        self.tenants: dict[str, TenantRuntime] = {}
        # Per-lane Algorithm 1 parameters, lane = registration index.
        self._configs: list[CaasperConfig] = []
        self._params: LaneParams | None = None
        self.specs: dict[str, TenantSpec] = {}
        self.admission = AdmissionController(self.config, self._obs)
        self.supervisor = Supervisor(self.config, self._obs)
        self.draining = False
        self.drained = False
        self.recovery: dict[str, Any] | None = None
        #: Tick of the newest journaled telemetry record (-1 if none).
        self._last_ingest_tick = -1
        self.state: ServeState | None = None
        if state_dir is not None:
            self.state = ServeState(
                state_dir,
                self.config.signature(),
                fsync=self.config.fsync_journal,
            )
            recovered = self.state.load()
            if not recovered.empty:
                self._replay(recovered.records, recovered.snapshot_tick)
                if recovered.dropped_torn_tail and self.recovery is not None:
                    self.recovery["torn_tail_dropped"] = True
            self.state.open_append()

    def _obs(self) -> Observer | None:
        """The live observer — silenced while replaying journaled inputs."""
        return None if self._replaying else self.observer

    # -- registration --------------------------------------------------------------

    def register(self, spec: TenantSpec) -> dict[str, Any]:
        """Admit one tenant; journals the spec so recovery rebuilds it.

        Returns ``{"ok": bool, "reason": str}`` — registration problems
        (duplicate, capacity, draining) are admission outcomes for the
        HTTP layer, not exceptions.
        """
        if self.draining:
            return {"ok": False, "reason": "draining"}
        if spec.tenant in self.specs:
            return {"ok": False, "reason": "duplicate"}
        if len(self.specs) >= self.config.max_tenants:
            return {"ok": False, "reason": "capacity"}
        if self.state is not None:
            self._journal(
                {"kind": "register", "tick": self.tick, "spec": spec.to_dict()}
            )
        self._register(spec)
        observer = self._obs()
        if observer is not None:
            observer.emit(
                TenantRegisteredEvent(
                    minute=self.tick, tenant=spec.tenant, seed=spec.seed, source="api"
                )
            )
        return {"ok": True, "reason": ""}

    def _register(self, spec: TenantSpec) -> None:
        tenant = spec.tenant
        runtime = TenantRuntime(
            spec, self.config, on_breaker_transition=self._breaker_cb(tenant)
        )
        config = runtime.loop.recommender.config
        # Serve tenants decide only through kernel cohorts (_decide_due).
        assert vectorizable(config), f"tenant {tenant!r} is not vectorizable"
        self.specs[tenant] = spec
        self.tenants[tenant] = runtime
        self._configs.append(config)
        self._params = None
        self.admission.register(tenant)
        self.supervisor.register(tenant)

    def _breaker_cb(self, tenant: str) -> TransitionCallback:
        def on_transition(
            minute: int, from_state: str, to_state: str, failures: int
        ) -> None:
            observer = self._obs()
            if observer is not None:
                observer.emit(
                    BreakerTransitionEvent(
                        minute=self.tick,
                        tenant=tenant,
                        from_state=from_state,
                        to_state=to_state,
                        failures=failures,
                    )
                )

        return on_transition

    # -- ingestion -----------------------------------------------------------------

    def ingest(
        self, tenant: str, samples: list[float]
    ) -> AdmissionDecision:
        """Offer one tenant's telemetry batch through admission control."""
        return self.ingest_batch({tenant: samples})[tenant]

    def ingest_batch(
        self, batch: dict[str, list[float]]
    ) -> dict[str, AdmissionDecision]:
        """Offer many tenants' telemetry in one journaled record.

        Only *admitted* samples are journaled — rejected batches were
        never part of the plane's world, so recovery replays exactly
        what was accepted. One journal record per call keeps the fsync
        cost proportional to ingest calls, not samples.
        """
        decisions: dict[str, AdmissionDecision] = {}
        admitted: dict[str, list[float]] = {}
        for tenant, samples in batch.items():
            clean = [float(sample) for sample in samples]
            decision = self.admission.offer(self.tick, tenant, clean)
            decisions[tenant] = decision
            if decision.admitted and clean:
                admitted[tenant] = clean
        if admitted and self.state is not None:
            self._journal(
                {"kind": "telemetry", "tick": self.tick, "batch": admitted}
            )
        return decisions

    # -- ticking -------------------------------------------------------------------

    def step_tick(self) -> dict[str, Any]:
        """Advance the whole fleet one simulated minute and commit it."""
        if self.drained:
            raise ServeError("plane already drained; no further ticks")
        self._tick_core()
        if self.state is not None:
            self._journal(
                {
                    "kind": "tick",
                    "tick": self.tick - 1,
                    "digest": self.ledger_digest(),
                }
            )
            interval = self.config.snapshot_interval_ticks
            if interval and self.tick % interval == 0:
                self.state.snapshot(self.tick)
        return {"tick": self.tick}

    def _tick_core(self) -> None:
        tick = self.tick
        # Phase 1: every tenant runs its minute up to the consult.
        due: list[tuple[int, str, DueConsult]] = []
        for lane, (tenant, runtime) in enumerate(self.tenants.items()):
            action = self.supervisor.poll(tenant, tick)
            if action == "wait":
                continue
            if action == "resume":
                runtime.reset()
            sample = self.admission.pop(tenant)
            try:
                consult = runtime.step(tick, sample)
            except Exception as exc:  # lint: disable=EXC001 - supervision boundary
                self.supervisor.on_crash(tenant, tick, exc)
                continue
            if consult is not None:
                due.append((lane, tenant, consult))
        # Phase 2: decide every due consult in kernel cohorts.
        targets = self._decide_due(due)
        # Phase 3: each tenant enacts its target, in registration order.
        for (_, tenant, consult), target in zip(due, targets):
            try:
                self.tenants[tenant].loop.enact(consult.minute, target)
            except Exception as exc:  # lint: disable=EXC001 - supervision boundary
                self.supervisor.on_crash(tenant, tick, exc)
        self.tick += 1

    def _decide_due(self, due: list[tuple[int, str, DueConsult]]) -> list[int]:
        """Algorithm 1 targets for the due consults, one kernel call per cohort.

        Consults sharing a core ceiling, curve parameters and window
        length form a cohort; each target is bit-equal to the tenant's
        own ``CaasperRecommender.decide(current).target_cores``.
        """
        if self._params is None:
            self._params = LaneParams.from_configs(self._configs)
        cohorts: dict[tuple[int, float, float, int], list[int]] = {}
        for position, (lane, _, consult) in enumerate(due):
            config = self._configs[lane]
            key = (
                config.max_cores,
                config.slope_scale,
                config.quantile,
                consult.window.size,
            )
            cohorts.setdefault(key, []).append(position)
        targets = [0] * len(due)
        for (max_cores, slope_scale, quantile, _), positions in cohorts.items():
            members = [due[position] for position in positions]
            decided = decide_cohort(
                np.stack([consult.window for _, _, consult in members]),
                np.array(
                    [consult.current for _, _, consult in members], dtype=np.int64
                ),
                self._params.gather(np.array([lane for lane, _, _ in members])),
                max_cores,
                slope_scale,
                quantile,
            )
            for position, target in zip(positions, decided.tolist()):
                targets[position] = target
        return targets

    # -- crash-safe state ----------------------------------------------------------

    def _journal(self, record: dict[str, Any]) -> None:
        assert self.state is not None
        self.state.append(record)
        if record["kind"] == "telemetry":
            self._last_ingest_tick = record["tick"]

    def _replay(
        self, records: list[dict[str, Any]], snapshot_tick: int
    ) -> None:
        """Rebuild the exact pre-crash state from journaled inputs."""
        self._replaying = True
        try:
            for record in records:
                kind = record.get("kind")
                if kind == "register":
                    self._register(TenantSpec.from_dict(dict(record["spec"])))
                elif kind == "telemetry":
                    self._last_ingest_tick = int(record["tick"])
                    for tenant, samples in record["batch"].items():
                        decision = self.admission.offer(
                            int(record["tick"]), tenant, samples
                        )
                        if not decision.admitted:
                            raise ServeError(
                                "replayed ingest was rejected "
                                f"(tenant={tenant!r}, seq={record.get('seq')})"
                                " — state directory is inconsistent"
                            )
                elif kind == "tick":
                    self._tick_core()
                    expected = record.get("digest", "")
                    if expected and expected != self.ledger_digest():
                        raise ServeError(
                            "recovered ledger diverges from the digest "
                            f"committed at tick {record['tick']} — state "
                            "directory is torn or was produced by "
                            "different code"
                        )
                else:
                    raise ServeError(
                        f"unknown journal record kind {kind!r} "
                        f"(seq={record.get('seq')})"
                    )
        finally:
            self._replaying = False
        self.recovery = {
            "tick": self.tick,
            "recovered_tenants": len(self.tenants),
            "tenants": sorted(self.tenants),
            "records": len(records),
            "snapshot_tick": snapshot_tick,
            "digest_verified": True,
        }
        if self.observer is not None:
            self.observer.emit(
                StateRecoveredEvent(
                    minute=self.tick,
                    recovered_tenants=len(self.tenants),
                    records=len(records),
                    snapshot_tick=snapshot_tick,
                )
            )

    # -- drain ---------------------------------------------------------------------

    def drain(self, reason: str = "sigterm") -> dict[str, Any]:
        """Graceful shutdown: stop admitting, finish queued work, snapshot.

        Runs up to ``drain_max_ticks`` extra ticks to consume queued
        telemetry (quarantined tenants' queues cannot drain, hence the
        bound), then takes a final snapshot and closes the journal.
        """
        if self.drained:
            return {"ok": True, "ticks": 0, "pending": 0}
        observer = self._obs()
        if observer is not None:
            observer.emit(
                DrainEvent(
                    minute=self.tick,
                    action="begin",
                    reason=reason,
                    pending=self.admission.total_queued(),
                )
            )
        self.draining = True
        self.admission.draining = True
        ticks_run = 0
        while (
            self.admission.total_queued() > 0
            and ticks_run < self.config.drain_max_ticks
        ):
            self._tick_core()
            if self.state is not None:
                self._journal(
                    {
                        "kind": "tick",
                        "tick": self.tick - 1,
                        "digest": self.ledger_digest(),
                    }
                )
            ticks_run += 1
        if self.state is not None:
            self.state.snapshot(self.tick)
            self.state.close()
        self.drained = True
        if observer is not None:
            observer.emit(
                DrainEvent(
                    minute=self.tick,
                    action="complete",
                    reason=reason,
                    pending=self.admission.total_queued(),
                )
            )
        return {
            "ok": True,
            "ticks": ticks_run,
            "pending": self.admission.total_queued(),
        }

    def quiesce(self, reason: str = "quiesce") -> None:
        """Shut down without consuming queued work: snapshot and close.

        The headless CLI uses this so a run always stops at exactly the
        requested tick — resumed and uninterrupted runs then compare
        byte-for-byte. Queued telemetry stays journaled and is consumed
        when a later process resumes.
        """
        if self.drained:
            return
        observer = self._obs()
        if observer is not None:
            observer.emit(
                DrainEvent(
                    minute=self.tick,
                    action="begin",
                    reason=reason,
                    pending=self.admission.total_queued(),
                )
            )
        self.draining = True
        self.admission.draining = True
        if self.state is not None:
            self.state.snapshot(self.tick)
            self.state.close()
        self.drained = True
        if observer is not None:
            observer.emit(
                DrainEvent(
                    minute=self.tick,
                    action="complete",
                    reason=reason,
                    pending=self.admission.total_queued(),
                )
            )

    def abandon(self) -> None:
        """Simulate a SIGKILL: close the journal fd and nothing else.

        Every appended record is already durable (flush + fsync per
        record), so this leaves the state directory exactly as a hard
        kill would — committed ticks intact, the in-flight tick absent.
        """
        if self.state is not None:
            self.state.close()

    # -- reporting -----------------------------------------------------------------

    def ledger_digest(self) -> str:
        """Digest of the per-tenant K/C/N ledger (the commit check)."""
        payload = {
            tenant: runtime.kcn() for tenant, runtime in self.tenants.items()
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def kcn(self) -> dict[str, dict[str, float | int]]:
        """Per-tenant K/C/N, sorted by tenant (the recovery oracle)."""
        return {
            tenant: self.tenants[tenant].kcn()
            for tenant in sorted(self.tenants)
        }

    def last_ingest_tick(self) -> int:
        """Tick of the newest journaled telemetry record (-1 if none).

        After a recovery, a harness compares this against :attr:`tick`
        to learn whether the interrupted tick's telemetry batch was
        already admitted (and must not be offered again) or was lost
        with the crash (and must be re-offered).
        """
        return self._last_ingest_tick

    def ready(self) -> tuple[bool, list[str]]:
        """Readiness: serving, and no tenant stuck in a degraded hole."""
        reasons: list[str] = []
        if self.draining:
            reasons.append("draining")
        open_breakers = sorted(
            tenant
            for tenant, runtime in self.tenants.items()
            if runtime.breaker.state != "closed"
        )
        if open_breakers:
            reasons.append(
                "breaker_open:" + ",".join(open_breakers[:5])
            )
        quarantined = self.supervisor.quarantined()
        if quarantined:
            reasons.append("quarantined:" + ",".join(quarantined[:5]))
        return (not reasons, reasons)

    def audit(self) -> dict[str, Any]:
        """Aggregated degradation counters for drills and reports."""
        resilience: dict[str, int] = {}
        for runtime in self.tenants.values():
            for key, value in runtime.loop.summary().items():
                resilience[key] = resilience.get(key, 0) + value
        breakers = {
            "opens": sum(
                runtime.breaker.opens for runtime in self.tenants.values()
            ),
            "closes": sum(
                runtime.breaker.closes for runtime in self.tenants.values()
            ),
            "skipped_consults": sum(
                runtime.breaker.skipped_consults
                for runtime in self.tenants.values()
            ),
        }
        return {
            "tick": self.tick,
            "tenants": len(self.tenants),
            "crashes": sum(
                runtime.crashes for runtime in self.tenants.values()
            ),
            "admission": self.admission.summary(),
            "supervisor": self.supervisor.summary(),
            "breakers": breakers,
            "resilience": resilience,
        }

    def status(self) -> dict[str, Any]:
        """Full deterministic status block (the ``/state`` endpoint)."""
        return {
            "tick": self.tick,
            "draining": self.draining,
            "digest": self.ledger_digest(),
            "tenants": {
                tenant: self.tenants[tenant].status()
                for tenant in sorted(self.tenants)
            },
            "admission": self.admission.summary(),
            "supervisor": self.supervisor.summary(),
            "recovery": self.recovery,
        }
