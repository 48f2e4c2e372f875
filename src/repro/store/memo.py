"""Memoised entry points: simulation and tuning trials through the store.

These wrappers are the seam the batch entry points
(:func:`~repro.sim.simulator.simulate_trace`,
:func:`~repro.sim.sweep.run_sweep`, the tuning searches and the fleet
runner) call when given a ``store=``. The contract:

- **Byte-identical or recomputed.** A hit decodes the stored canonical
  JSON back into result objects that are bit-identical (per
  :func:`repro.fleet.codec.canonical_json`) to what recomputation would
  produce. Any doubt — unsignable input, corrupt blob, epoch mismatch —
  falls through to recomputation. ``store=None`` is exactly today's
  behaviour.
- **Fresh recommenders only.** A cache hit skips the simulation loop,
  so the recommender passed to :func:`cached_simulate` is *not* fed
  observations on the hit path. Every in-repo caller (sweep factories,
  tuning trials, fleet jobs) constructs a fresh recommender per run, so
  nothing observable changes; callers warm-starting a recommender
  across runs must not pass a store.
- **Telemetry records the shortcut.** On a hit the observer sees a
  ``cache_hit`` event instead of the per-minute simulation trail; on a
  miss it sees the normal trail plus a ``cache_miss``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..baselines.base import Recommender
from ..core.config import CaasperConfig
from ..obs.tracing import derive_trace_id, simulate_trace_name
from ..sim.results import SimulationResult
from ..sim.simulator import SimulatorConfig, simulate_trace
from ..trace import CpuTrace
from .keys import simulate_key, trial_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.observer import Observer
    from ..tuning.search import TrialResult
    from .cas import ResultStore

__all__ = ["cached_simulate", "cached_trial"]


def cached_simulate(
    demand: CpuTrace,
    recommender: Recommender,
    config: SimulatorConfig,
    observer: "Observer | None" = None,
    store: "ResultStore | None" = None,
) -> SimulationResult:
    """:func:`~repro.sim.simulator.simulate_trace` through the store.

    With ``store=None``, or when the recommender cannot be signed
    (``store_payload()`` is ``None``), this is a plain call-through.
    """
    if store is None:
        return simulate_trace(demand, recommender, config, observer)
    key = simulate_key(demand, recommender, config)
    if key is None:
        return simulate_trace(demand, recommender, config, observer)
    hit = store.get(key, "simulate", observer=observer)
    if hit is not None:
        return hit  # type: ignore[no-any-return]
    result = simulate_trace(demand, recommender, config, observer)
    # Provenance: the same (seed=0, name) derivation simulate_trace uses
    # to open its run trace, so the stamp matches the run's trace id
    # whether or not an observer was attached.
    store.put(
        key,
        "simulate",
        result,
        observer=observer,
        producer_trace_id=derive_trace_id(
            0, simulate_trace_name(demand.name, recommender.name)
        ),
    )
    return result


def cached_trial(
    config: CaasperConfig,
    demand: CpuTrace,
    simulator: SimulatorConfig,
    observer: "Observer | None" = None,
    store: "ResultStore | None" = None,
) -> "TrialResult":
    """One tuning trial (fresh CaaSPER recommender) through the store."""
    from ..core.recommender import CaasperRecommender
    from ..tuning.search import TrialResult

    if store is not None:
        key = trial_key(config, demand, simulator)
        hit = store.get(key, "trial", observer=observer)
        if hit is not None:
            return hit  # type: ignore[no-any-return]
    else:
        key = None
    recommender = CaasperRecommender(config)
    result = simulate_trace(demand, recommender, simulator, observer)
    trial = TrialResult.from_simulation(config, result)
    if store is not None and key is not None:
        store.put(
            key,
            "trial",
            trial,
            observer=observer,
            producer_trace_id=derive_trace_id(
                0, simulate_trace_name(demand.name, recommender.name)
            ),
        )
    return trial
