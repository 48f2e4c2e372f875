"""The one memoisation path: probe, compute the misses, write back.

Every batch entry point that takes a ``store=`` — the sweep seam, the
batch engine, the tuning searches — memoises through :func:`memoize`;
:func:`cached_simulate` and :func:`cached_trial` are its one-run
wrappers. The contract:

- **Byte-identical or recomputed.** A hit decodes the stored canonical
  JSON back into result objects that are bit-identical (per
  :func:`repro.fleet.codec.canonical_json`) to what recomputation would
  produce. Any doubt — unsignable input, corrupt blob, epoch mismatch —
  falls through to recomputation. ``store=None`` computes everything
  and touches no store.
- **Fresh recommenders only.** A cache hit skips the simulation loop,
  so the recommender passed to :func:`cached_simulate` is *not* fed
  observations on the hit path. Every in-repo caller (sweep factories,
  tuning trials, fleet jobs) constructs a fresh recommender per run, so
  nothing observable changes; callers warm-starting a recommender
  across runs must not pass a store.
- **Telemetry records the shortcut.** On a hit the observer sees a
  ``cache_hit`` event instead of the per-minute simulation trail; on a
  miss it sees a ``cache_miss``, then the normal trail.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence

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

__all__ = ["cached_simulate", "cached_trial", "memoize", "producer_trace_id"]


def memoize(
    store: "ResultStore | None",
    kind: str,
    keys: Sequence[str | None],
    producer_trace_ids: Sequence[str],
    compute: Callable[[list[int]], Sequence[Any]],
    observer: "Observer | None" = None,
) -> list[Any]:
    """Results for every key, computing only the store misses.

    Probes each key in order, calls ``compute(misses)`` once with the
    miss positions (it returns one result per position, in that order),
    then writes each computed result back in position order, stamped
    with its ``producer_trace_ids`` entry. A ``None`` store or a
    ``None`` key (an unsignable input) is compute only: no read and no
    write.
    """
    results: list[Any] = [None] * len(keys)
    misses: list[int] = []
    for index, key in enumerate(keys):
        hit = None
        if store is not None and key is not None:
            hit = store.get(key, kind, observer=observer)
        if hit is None:
            misses.append(index)
        else:
            results[index] = hit
    for index, result in zip(misses, compute(misses), strict=True):
        results[index] = result
    if store is not None:
        for index in misses:
            key = keys[index]
            if key is not None:
                store.put(
                    key,
                    kind,
                    results[index],
                    observer=observer,
                    producer_trace_id=producer_trace_ids[index],
                )
    return results


def producer_trace_id(demand: CpuTrace, recommender_name: str) -> str:
    """The provenance stamp of one simulation's blob: the (seed=0, name)
    trace id ``simulate_trace`` opens its run under, so the stamp
    matches the run whether or not an observer was attached."""
    return derive_trace_id(0, simulate_trace_name(demand.name, recommender_name))


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
    key = simulate_key(demand, recommender, config) if store is not None else None
    [result] = memoize(
        store,
        "simulate",
        [key],
        [producer_trace_id(demand, recommender.name)],
        lambda misses: [
            simulate_trace(demand, recommender, config, observer) for _ in misses
        ],
        observer,
    )
    return result  # type: ignore[no-any-return]


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

    recommender = CaasperRecommender(config)

    def compute(misses: list[int]) -> list[TrialResult]:
        return [
            TrialResult.from_simulation(
                config, simulate_trace(demand, recommender, simulator, observer)
            )
            for _ in misses
        ]

    key = trial_key(config, demand, simulator) if store is not None else None
    [trial] = memoize(
        store,
        "trial",
        [key],
        [producer_trace_id(demand, recommender.name)],
        compute,
        observer,
    )
    return trial  # type: ignore[no-any-return]
