"""The structure-of-arrays batch simulation engine.

:class:`BatchEngine` replays many demand traces through the Algorithm 1
control loop at once. Lanes live side by side in ``(lanes, minutes)``
matrices (demand, usage, limits) plus parallel state vectors (current
limit, pending resize, cooldown bookkeeping), so each simulated step is
a handful of array ops across the whole batch instead of a Python loop
per lane per minute.

The loop only *visits* minutes where something can happen — the union of
every lane's decision grid and the enactment minutes of scheduled
resizes — and bulk-fills the usage/limits segments in between, since
limits are constant between visited minutes. Ragged batches are handled
by NaN-padding shorter lanes' demand (the padding propagates through the
fills and is sliced off at the end) and masking finished lanes out of
the decision step; a lane whose trace has ended costs nothing beyond its
column slice, and once every lane of an interval cohort is done its grid
contributes no more visits (the converged-lane early exit).

Byte identity with :func:`repro.sim.simulator.simulate_trace` is the
contract, not a goal: decisions go through the certified kernels of
:mod:`repro.engine.kernel`, enact/cooldown/billing arithmetic replicates
the scalar loop exactly, and configurations the kernels cannot express
(non-naive forecasters, confidence intervals, auto-detected seasonality)
fall back to the scalar oracle itself, lane by lane. The scalar path
also remains the only one that produces the per-minute observability
trail — callers wanting a full audit keep ``observer=`` runs scalar.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..core.config import CaasperConfig
from ..core.recommender import CaasperRecommender, history_capacity
from ..errors import SimulationError
from ..obs.events import EngineBatchEvent
from ..sim.metrics import SimulationMetrics
from ..sim.results import ScalingEvent, SimulationResult
from ..sim.simulator import simulate_trace
from .jobs import EngineJob
from .kernel import (
    LaneParams,
    axis_reductions_certified,
    decide_batch,
    decide_lane,
    rounding_code,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.observer import Observer
    from ..store.cas import ResultStore

__all__ = ["BatchEngine", "decide_cohort", "vectorizable"]

def vectorizable(config: CaasperConfig) -> bool:
    """True when the kernels can express this configuration directly.

    Reactive mode always qualifies. Proactive mode qualifies only for
    the paper-default shape — the naive seasonal forecaster with a fixed
    period and point estimates. Everything else (Holt-Winters/Fourier,
    confidence bands, ACF period auto-detection) runs scalar.
    """
    if not config.proactive:
        return True
    return (
        config.forecaster == "naive"
        and config.forecast_confidence is None
        and config.seasonal_period_minutes is not None
    )


@dataclass
class _Cohort:
    """Lanes that share curve/window geometry and can decide together."""

    lanes: np.ndarray
    proactive: bool
    window_minutes: int
    max_cores: int
    slope_scale: float
    quantile: float
    period: int
    horizon: int
    history_tail: int
    maxlen: int
    hidx: np.ndarray | None


def _cohort_key(config: CaasperConfig) -> tuple:
    base = (
        config.proactive,
        config.window_minutes,
        config.max_cores,
        config.slope_scale,
        config.quantile,
    )
    if not config.proactive:
        return base
    return base + (
        config.seasonal_period_minutes,
        config.forecast_horizon_minutes,
        config.history_tail_minutes,
    )


def _build_cohorts(jobs: Sequence[EngineJob]) -> list[_Cohort]:
    groups: dict[tuple, list[int]] = {}
    for lane, job in enumerate(jobs):
        groups.setdefault(_cohort_key(job.config), []).append(lane)
    cohorts = []
    for lanes in groups.values():
        config = jobs[lanes[0]].config
        period = config.seasonal_period_minutes if config.proactive else 0
        assert period is not None  # vectorizable() guarantees it
        cohorts.append(
            _Cohort(
                lanes=np.array(lanes, dtype=np.int64),
                proactive=config.proactive,
                window_minutes=config.window_minutes,
                max_cores=config.max_cores,
                slope_scale=config.slope_scale,
                quantile=config.quantile,
                period=period,
                horizon=config.forecast_horizon_minutes,
                history_tail=config.history_tail_minutes,
                maxlen=history_capacity(config),
                hidx=(
                    np.arange(config.forecast_horizon_minutes) % period
                    if config.proactive
                    else None
                ),
            )
        )
    return cohorts


def decide_cohort(
    window: np.ndarray,
    cur: np.ndarray,
    params: LaneParams,
    max_cores: int,
    slope_scale: float,
    quantile: float,
) -> np.ndarray:
    """Algorithm 1 for every row of a cohort's ``(lanes, n)`` window.

    The one place that picks a kernel: many rows go through
    :func:`decide_batch` in one call; a single row, or every row when
    axis reductions are not certified on this build, goes through
    :func:`decide_lane`. Either way each target is bit-equal to the
    scalar oracle's.
    """
    if len(window) > 1 and axis_reductions_certified():
        return decide_batch(window, cur, params, max_cores, slope_scale, quantile)
    ks = np.arange(1, max_cores + 1)
    # Zipped in decide_lane's positional order, as Python scalars.
    lanes = zip(
        window,
        cur.tolist(),
        params.s_high.tolist(),
        params.s_low.tolist(),
        params.m_high.tolist(),
        params.m_low.tolist(),
        params.sf_max_up.tolist(),
        params.sf_max_down.tolist(),
        params.c_min.tolist(),
        params.scale_down_headroom.tolist(),
        params.rounding.tolist(),
    )
    return np.array(
        [decide_lane(*lane, max_cores, slope_scale, quantile, ks) for lane in lanes],
        dtype=np.int64,
    )


def _finalize(
    job: EngineJob,
    usage: np.ndarray,
    limits: np.ndarray,
    events: list[ScalingEvent],
) -> SimulationResult:
    """Assemble a result exactly as the scalar loop's epilogue does."""
    demand_series = job.demand.samples
    price = job.simulator.billing.price(limits)
    metrics = SimulationMetrics.from_series(
        demand_series, usage, limits, len(events), price
    )
    return SimulationResult(
        name=job.name,
        demand=demand_series.copy(),
        usage=usage,
        limits=limits,
        events=tuple(events),
        metrics=metrics,
    )


class BatchEngine:
    """Vectorized replacement for N independent ``simulate_trace`` calls.

    Parameters
    ----------
    observer:
        Optional observer. The engine emits a single batch-level
        :class:`~repro.obs.events.EngineBatchEvent` per :meth:`run`; it
        does *not* reproduce the scalar loop's per-minute audit trail —
        integrations that need one keep using the scalar path.
    """

    def __init__(self, observer: "Observer | None" = None) -> None:
        self.observer = observer

    def run(
        self,
        jobs: Sequence[EngineJob],
        store: "ResultStore | None" = None,
    ) -> list[SimulationResult]:
        """Simulate every job; results are in job order.

        Each result is canonical-JSON byte-identical to
        ``simulate_trace(job.demand, CaasperRecommender(job.config),
        job.simulator)``. With ``store=``, lanes are memoised under the
        same per-trace keys the scalar path uses
        (:func:`repro.store.keys.simulate_key`), so batch results and
        scalar results hit each other's cache entries.
        """
        jobs = list(jobs)
        start = time.perf_counter() if self.observer is not None else 0.0
        results: list[SimulationResult | None] = [None] * len(jobs)
        keys: list = [None] * len(jobs)
        cache_hits = 0

        pending: list[int] = []
        for index, job in enumerate(jobs):
            if store is not None:
                from ..store.keys import simulate_key

                probe = CaasperRecommender(job.config)
                key = simulate_key(job.demand, probe, job.simulator)
                keys[index] = key
                if key is not None:
                    hit = store.get(key, "simulate", observer=self.observer)
                    if hit is not None:
                        results[index] = hit
                        cache_hits += 1
                        continue
            pending.append(index)

        vector = [i for i in pending if vectorizable(jobs[i].config)]
        scalar = [i for i in pending if not vectorizable(jobs[i].config)]

        for index in scalar:
            job = jobs[index]
            results[index] = simulate_trace(
                job.demand,
                CaasperRecommender(job.config),
                job.simulator,
            )

        if len(vector) == 1:
            results[vector[0]] = _simulate_lane(jobs[vector[0]])
        elif vector:
            batch = _simulate_many([jobs[i] for i in vector])
            for index, result in zip(vector, batch):
                results[index] = result

        if store is not None:
            from ..obs.tracing import derive_trace_id, simulate_trace_name

            for index in pending:
                key = keys[index]
                result = results[index]
                if key is None or result is None:
                    continue
                store.put(
                    key,
                    "simulate",
                    result,
                    observer=self.observer,
                    producer_trace_id=derive_trace_id(
                        0,
                        simulate_trace_name(jobs[index].demand.name, jobs[index].name),
                    ),
                )

        if self.observer is not None:
            self.observer.emit(
                EngineBatchEvent(
                    minute=0,
                    lanes=len(jobs),
                    vector_lanes=len(vector),
                    scalar_lanes=len(scalar),
                    cache_hits=cache_hits,
                    cohorts=len({_cohort_key(jobs[i].config) for i in vector}),
                    elapsed_seconds=time.perf_counter() - start,
                )
            )
        return [r for r in results if r is not None]


def _simulate_lane(job: EngineJob) -> SimulationResult:
    """Single-lane fast path: scalar state, vectorized curve estimation.

    Replicates the scalar loop with three changes that keep the math
    identical: usage/limits segments between interesting minutes are
    bulk-filled, the PvP curve is built with one ``searchsorted`` over
    the sorted window, and (when certified) the window reductions use
    the cheaper bit-equal replications of :func:`decide_lane`.
    """
    config, sim = job.config, job.simulator
    minutes = job.demand.minutes
    demand = job.demand.samples
    usage = np.empty(minutes, dtype=float)
    limit_series = np.empty(minutes, dtype=float)

    interval = sim.decision_interval_minutes
    cooldown = sim.cooldown_minutes
    delay = sim.resize_delay_minutes
    max_cores = config.max_cores
    ks = np.arange(1, max_cores + 1)
    rounding = rounding_code(config.rounding.value)
    if config.proactive:
        period = config.seasonal_period_minutes
        assert period is not None  # vectorizable() guarantees it
        maxlen = history_capacity(config)
        hidx = np.arange(config.forecast_horizon_minutes) % period

    limit = int(sim.initial_cores)
    pending = -1
    pending_decided = -1
    last_enacted = -(10**9)
    events: list[ScalingEvent] = []
    filled = 0

    grid_minute = interval
    enact_minute: int | None = None
    while grid_minute < minutes or enact_minute is not None:
        if enact_minute is not None and (
            grid_minute >= minutes or enact_minute <= grid_minute
        ):
            minute = enact_minute
        else:
            minute = grid_minute

        if filled < minute:
            np.minimum(demand[filled:minute], float(limit), out=usage[filled:minute])
            limit_series[filled:minute] = limit

        if enact_minute is not None and minute >= enact_minute:
            events.append(
                ScalingEvent(
                    decided_minute=pending_decided,
                    enacted_minute=minute,
                    from_cores=limit,
                    to_cores=pending,
                )
            )
            limit = pending
            last_enacted = minute
            pending = -1
            enact_minute = None

        usage[minute] = min(float(demand[minute]), float(limit))
        limit_series[minute] = limit
        filled = minute + 1

        if minute == grid_minute:
            grid_minute += interval
            if pending < 0 and minute - last_enacted >= cooldown:
                if config.proactive and minute + 1 >= period:
                    tail = min(min(minute + 1, maxlen), config.history_tail_minutes)
                    last_period = usage[minute + 1 - period : minute + 1]
                    horizon = np.maximum(last_period[hidx], 0.0)
                    window = np.concatenate(
                        [usage[minute + 1 - tail : minute + 1], horizon]
                    )
                else:
                    n = min(minute + 1, config.window_minutes)
                    window = usage[minute + 1 - n : minute + 1]
                target = decide_lane(
                    window,
                    limit,
                    s_high=config.s_high,
                    s_low=config.s_low,
                    m_high=config.m_high,
                    m_low=config.m_low,
                    sf_max_up=float(config.sf_max_up),
                    sf_max_down=float(config.sf_max_down),
                    c_min=config.c_min,
                    scale_down_headroom=config.scale_down_headroom,
                    rounding=rounding,
                    max_cores=max_cores,
                    slope_scale=config.slope_scale,
                    quantile=config.quantile,
                    ks=ks,
                )
                if target < 1:
                    raise SimulationError(
                        f"{job.name} recommended non-positive cores "
                        f"({target}) at minute {minute}"
                    )
                clamped = max(sim.min_cores, min(sim.max_cores, target))
                if clamped != limit:
                    pending = clamped
                    pending_decided = minute
                    effective = max(minute + 1, minute + delay)
                    if effective < minutes:
                        enact_minute = effective
                    # else: the resize never lands inside the trace; the
                    # set pending blocks later decisions, like the oracle.

    if filled < minutes:
        np.minimum(demand[filled:], float(limit), out=usage[filled:])
        limit_series[filled:] = limit

    return _finalize(job, usage, limit_series, events)


def _simulate_many(jobs: Sequence[EngineJob]) -> list[SimulationResult]:
    """The SoA event loop over every vector-eligible lane at once."""
    lanes = len(jobs)
    t_end = np.array([job.demand.minutes for job in jobs], dtype=np.int64)
    t_max = int(t_end.max())

    demand = np.full((lanes, t_max), np.nan)
    for lane, job in enumerate(jobs):
        demand[lane, : job.demand.minutes] = job.demand.samples
    usage = np.empty((lanes, t_max))
    limit_series = np.empty((lanes, t_max))

    interval = np.array(
        [job.simulator.decision_interval_minutes for job in jobs], dtype=np.int64
    )
    cooldown = np.array(
        [job.simulator.cooldown_minutes for job in jobs], dtype=np.int64
    )
    delay = np.array(
        [job.simulator.resize_delay_minutes for job in jobs], dtype=np.int64
    )
    sim_min = np.array([job.simulator.min_cores for job in jobs], dtype=np.int64)
    sim_max = np.array([job.simulator.max_cores for job in jobs], dtype=np.int64)

    limit = np.array([job.simulator.initial_cores for job in jobs], dtype=np.int64)
    pending = np.full(lanes, -1, dtype=np.int64)
    pending_decided = np.full(lanes, -1, dtype=np.int64)
    pending_effective = np.zeros(lanes, dtype=np.int64)
    last_enacted = np.full(lanes, -(10**9), dtype=np.int64)
    events: list[list[ScalingEvent]] = [[] for _ in range(lanes)]

    params = LaneParams.from_configs([job.config for job in jobs])
    cohorts = _build_cohorts(jobs)

    # Visited minutes: the union of each interval's decision grid (bounded
    # by the longest trace using that interval — shorter/converged lanes
    # stop contributing visits) merged with resize-enactment minutes.
    grid_minutes: set[int] = set()
    for value in np.unique(interval).tolist():
        horizon = int(t_end[interval == value].max())
        grid_minutes.update(range(value, horizon, value))
    grid = sorted(grid_minutes)
    enact_heap: list[int] = []

    filled = 0
    grid_pos = 0
    while grid_pos < len(grid) or enact_heap:
        if enact_heap and (grid_pos >= len(grid) or enact_heap[0] <= grid[grid_pos]):
            minute = enact_heap[0]
        else:
            minute = grid[grid_pos]
        is_decision = grid_pos < len(grid) and grid[grid_pos] == minute
        if is_decision:
            grid_pos += 1
        while enact_heap and enact_heap[0] == minute:
            heapq.heappop(enact_heap)

        if filled < minute:
            limit_f = limit.astype(float)[:, None]
            np.minimum(
                demand[:, filled:minute], limit_f, out=usage[:, filled:minute]
            )
            limit_series[:, filled:minute] = limit_f

        enacting = (pending >= 0) & (pending_effective <= minute) & (minute < t_end)
        if enacting.any():
            for lane in np.nonzero(enacting)[0].tolist():
                events[lane].append(
                    ScalingEvent(
                        decided_minute=int(pending_decided[lane]),
                        enacted_minute=minute,
                        from_cores=int(limit[lane]),
                        to_cores=int(pending[lane]),
                    )
                )
            limit[enacting] = pending[enacting]
            last_enacted[enacting] = minute
            pending[enacting] = -1

        limit_f = limit.astype(float)
        np.minimum(demand[:, minute], limit_f, out=usage[:, minute])
        limit_series[:, minute] = limit_f
        filled = minute + 1

        if is_decision:
            due = (
                (minute < t_end)
                & (minute % interval == 0)
                & (pending < 0)
                & (minute - last_enacted >= cooldown)
            )
            if due.any():
                _decide_cohorts(
                    jobs,
                    cohorts,
                    due,
                    minute,
                    usage,
                    limit,
                    params,
                    sim_min,
                    sim_max,
                    pending,
                    pending_decided,
                    pending_effective,
                    delay,
                    t_end,
                    enact_heap,
                )

    if filled < t_max:
        limit_f = limit.astype(float)[:, None]
        np.minimum(demand[:, filled:], limit_f, out=usage[:, filled:])
        limit_series[:, filled:] = limit_f

    return [
        _finalize(
            job,
            usage[lane, : job.demand.minutes].copy(),
            limit_series[lane, : job.demand.minutes].copy(),
            events[lane],
        )
        for lane, job in enumerate(jobs)
    ]


def _decide_cohorts(
    jobs: Sequence[EngineJob],
    cohorts: list[_Cohort],
    due: np.ndarray,
    minute: int,
    usage: np.ndarray,
    limit: np.ndarray,
    params: LaneParams,
    sim_min: np.ndarray,
    sim_max: np.ndarray,
    pending: np.ndarray,
    pending_decided: np.ndarray,
    pending_effective: np.ndarray,
    delay: np.ndarray,
    t_end: np.ndarray,
    enact_heap: list[int],
) -> None:
    """Run one decision minute: window assembly + kernel per cohort."""
    for cohort in cohorts:
        idx = cohort.lanes[due[cohort.lanes]]
        if idx.size == 0:
            continue
        if cohort.proactive and minute + 1 >= cohort.period:
            tail = min(min(minute + 1, cohort.maxlen), cohort.history_tail)
            last_period = usage[idx, minute + 1 - cohort.period : minute + 1]
            horizon = np.maximum(last_period[:, cohort.hidx], 0.0)
            window = np.concatenate(
                [usage[idx, minute + 1 - tail : minute + 1], horizon], axis=1
            )
        else:
            n = min(minute + 1, cohort.window_minutes)
            window = usage[idx, minute + 1 - n : minute + 1]
        targets = decide_cohort(
            window,
            limit[idx],
            params.gather(idx),
            cohort.max_cores,
            cohort.slope_scale,
            cohort.quantile,
        )
        if (targets < 1).any():
            bad = int(targets[targets < 1][0])
            name = jobs[int(idx[0])].name
            raise SimulationError(
                f"{name} recommended non-positive cores ({bad}) "
                f"at minute {minute}"
            )
        clamped = np.maximum(sim_min[idx], np.minimum(sim_max[idx], targets))
        changed = clamped != limit[idx]
        moving = idx[changed]
        if moving.size:
            pending[moving] = clamped[changed]
            pending_decided[moving] = minute
            pending_effective[moving] = minute + delay[moving]
            effectives = np.maximum(minute + 1, minute + delay[moving])
            for lane, effective in zip(moving.tolist(), effectives.tolist()):
                if effective < int(t_end[lane]):
                    heapq.heappush(enact_heap, int(effective))
