"""The serve self-check: chaos + SIGKILL drill with a strict audit.

``caasper serve --drill`` runs the same fleet twice:

1. **Oracle pass** — N tenants under the kitchen-sink fault scenario
   plus a seeded crash schedule, driven by a
   :class:`~repro.serve.harness.ServeHarness` with *no* state
   directory, for ``minutes`` ticks plus a cooldown tail that extends
   until every degradation episode has recovered (breakers closed, no
   backoff/quarantine/safe-mode).
2. **Chaos pass** — the identical fleet *with* a state directory,
   killed at ``kill_cycles`` seeded random ticks (journal closed cold,
   no drain, no snapshot — exactly what SIGKILL leaves) and restarted
   from disk each time.

The audit then holds the run to the PR's acceptance bar:

- the chaos pass's final per-tenant K/C/N ledger is **byte-identical**
  to the oracle's (torn state would show up here);
- every restart recovered through the digest cross-check;
- zero unhandled exceptions escaped the supervision boundary;
- every degradation mechanism actually fired (sheds, breaker opens,
  restarts, quarantines, safe-mode entries) — a drill that exercises
  nothing proves nothing;
- every episode recovered: no breaker open, no tenant in backoff,
  quarantine or safe-mode at the end;
- a final graceful drain succeeds.

Everything is seeded; the drill is a pure function of its arguments.
"""

from __future__ import annotations

import json
import random
import tempfile
from pathlib import Path
from typing import Any, Callable

from ..errors import ServeError
from .config import ServeConfig
from .harness import ServeHarness
from .plane import ControlPlane

__all__ = ["drill_config", "run_drill"]


def drill_config(tenants: int, seed: int = 0) -> ServeConfig:
    """Drill tuning: tight bounds so every degradation path fires."""
    return ServeConfig(
        queue_capacity=6,
        global_sample_cap=max(64, 4 * tenants),
        breaker_failure_threshold=2,
        breaker_open_ticks=20,
        quarantine_restarts=3,
        quarantine_window_ticks=120,
        quarantine_release_ticks=50,
        snapshot_interval_ticks=120,
        drain_max_ticks=64,
        seed=seed,
    )


def _converged(plane: ControlPlane) -> bool:
    """True when every degradation episode has recovered: no supervisor
    backoff or quarantine, every breaker closed, no tenant in safe mode."""
    counters = plane.supervisor.summary()
    if counters["in_backoff"] or counters["in_quarantine"]:
        return False
    return all(
        runtime.breaker.state == "closed" and not runtime.loop.safe_mode
        for runtime in plane.tenants.values()
    )


def _run_to_convergence(
    harness: ServeHarness, minutes: int, cooldown: int, max_extra: int
) -> int:
    """Run chaos horizon + cooldown, extending until converged."""
    harness.run(minutes + cooldown)
    extra = 0
    while not _converged(harness.plane) and extra < max_extra:
        harness.run(60)
        extra += 60
    return minutes + cooldown + extra


def run_drill(
    tenants: int = 200,
    minutes: int = 720,
    seed: int = 0,
    kill_cycles: int = 10,
    state_dir: str | None = None,
    scenario: str = "kitchen-sink",
    crash_rate: float = 0.005,
    cooldown: int = 240,
    max_extra_cooldown: int = 720,
    on_progress: Callable[[str], None] | None = None,
) -> dict[str, Any]:
    """Run the full chaos + SIGKILL drill; returns the audit report.

    ``state_dir`` defaults to a temporary directory created by the
    caller (the CLI passes one); it must be empty or absent.
    """
    say = on_progress or (lambda _message: None)
    if state_dir is None:
        state_dir = tempfile.mkdtemp(prefix="caasper-drill-")
    elif Path(state_dir).exists() and any(Path(state_dir).iterdir()):
        # Resuming a previous drill's files would silently change the
        # trajectory and fail the byte-compare with a confusing digest
        # mismatch; refuse up front instead.
        raise ServeError(
            f"drill state_dir {state_dir!r} is not empty; "
            "the drill needs a fresh directory"
        )

    harness_kwargs = dict(
        config=drill_config(tenants, seed=seed),
        seed=seed,
        scenario=scenario,
        scenario_minutes=minutes,
        crash_rate=crash_rate,
        crash_horizon_ticks=minutes,
    )

    say(f"oracle pass: {tenants} tenants x {minutes} min + cooldown")
    oracle = ServeHarness(tenants, **harness_kwargs)
    total_ticks = _run_to_convergence(
        oracle, minutes, cooldown, max_extra_cooldown
    )
    oracle_kcn = _canonical(oracle.kcn())
    say(f"oracle converged at tick {total_ticks}")

    # The chaos pass runs exactly the oracle's tick count, interrupted
    # by SIGKILL-equivalent cold stops at seeded random ticks.
    kill_rng = random.Random(seed * 31 + 17)
    kill_ticks = sorted(
        kill_rng.sample(range(10, max(total_ticks - 10, 11)), kill_cycles)
    )
    say(f"chaos pass: kills at ticks {kill_ticks}")

    unhandled: list[str] = []
    recoveries: list[dict[str, Any]] = []
    chaos = ServeHarness(tenants, state_dir=state_dir, **harness_kwargs)
    try:
        done = 0
        for kill_tick in kill_ticks:
            chaos.run(kill_tick - done)
            done = kill_tick
            chaos.crash()
            chaos = ServeHarness(
                tenants, state_dir=state_dir, **harness_kwargs
            )
            if chaos.plane.recovery is not None:
                recoveries.append(chaos.plane.recovery)
            say(
                f"killed at tick {kill_tick}, recovered to "
                f"tick {chaos.plane.tick}"
            )
        chaos.run(total_ticks - done)
    except Exception as exc:  # lint: disable=EXC001,EXC101 - drill verdict boundary: failures become audit entries
        unhandled.append(f"{type(exc).__name__}: {exc}")
    chaos_kcn = _canonical(chaos.kcn())

    audit = chaos.audit()
    resilience = audit["resilience"]
    supervisor = audit["supervisor"]
    drain_result = (
        chaos.plane.drain("drill") if not unhandled else {"ok": False}
    )

    checks: list[dict[str, Any]] = []

    def check(name: str, ok: bool, detail: str) -> None:
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    check(
        "no_unhandled_exceptions",
        not unhandled,
        "; ".join(unhandled) or "supervision boundary held",
    )
    check(
        "kcn_byte_identical",
        chaos_kcn == oracle_kcn,
        f"{len(oracle_kcn)} bytes compared across {tenants} tenants",
    )
    check(
        "all_kills_recovered",
        len(recoveries) == kill_cycles
        and all(entry.get("digest_verified") for entry in recoveries),
        f"{len(recoveries)}/{kill_cycles} restarts replayed with "
        "digest verification",
    )
    check(
        "sheds_occurred",
        audit["admission"]["shed"] > 0,
        f"{audit['admission']['shed']} samples shed",
    )
    check(
        "breakers_opened",
        audit["breakers"]["opens"] > 0,
        f"{audit['breakers']['opens']} opens, "
        f"{audit['breakers']['closes']} closes",
    )
    check(
        "restarts_occurred",
        supervisor["restarts"] > 0,
        f"{supervisor['restarts']} tenant restarts",
    )
    check(
        "quarantines_occurred",
        supervisor["quarantines"] > 0,
        f"{supervisor['quarantines']} quarantines",
    )
    check(
        "safe_mode_entered",
        resilience["safe_mode_entries"] > 0,
        f"{resilience['safe_mode_entries']} entries, "
        f"{resilience['safe_mode_exits']} clean exits",
    )
    check(
        "all_episodes_recovered",
        not unhandled and _converged(chaos.plane),
        "no open breaker, backoff, quarantine or safe-mode at the end",
    )
    check(
        "drain_succeeded",
        bool(drain_result.get("ok")),
        f"drained in {drain_result.get('ticks', '?')} extra ticks, "
        f"{drain_result.get('pending', '?')} pending",
    )

    return {
        "ok": all(entry["ok"] for entry in checks),
        "tenants": tenants,
        "minutes": minutes,
        "ticks": total_ticks,
        "seed": seed,
        "scenario": scenario,
        "kill_ticks": kill_ticks,
        "state_dir": state_dir,
        "checks": checks,
        "audit": audit,
        "kcn_digest": chaos.plane.ledger_digest(),
    }


def _canonical(kcn: dict[str, dict[str, float | int]]) -> str:
    return json.dumps(kcn, sort_keys=True, separators=(",", ":"))
