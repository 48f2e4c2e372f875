"""Random-search tuning driver (§5, §6.3).

"To find the best parameter setting for autoscaling, we did a random
search over the parameters described in §5, with a total of 5000
combinations per CPU trace."

Each trial materializes a fresh recommender from a sampled config, runs
the trace simulator, and records ``(K, C, N)``. The outcome object then
answers the two §5 questions: the Pareto frontier of the population
(Figure 12) and the G-optimal configuration per α (Figure 13).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core.config import CaasperConfig
from ..errors import TuningError
from ..sim.simulator import SimulatorConfig
from ..trace import CpuTrace
from .objective import sample_alphas
from .pareto import pareto_frontier
from .space import ParameterSpace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.batch import BatchEngine
    from ..sim.results import SimulationResult
    from ..store.cas import ResultStore

__all__ = ["RandomSearch", "SearchOutcome", "TrialResult"]


def _engine_outcome(
    configs: list[CaasperConfig],
    simulator_config: SimulatorConfig,
    demand: CpuTrace,
    engine: "BatchEngine",
    store: "ResultStore | None" = None,
) -> SearchOutcome:
    """Step every trial config as lanes of one engine batch, in order.

    Shared by the random and grid drivers. Memoises under the same
    ``trial`` keys as :func:`~repro.store.memo.cached_trial`:
    previously evaluated (config, demand, simulator) triples decode
    instead of simulating, and fresh trials are written back for the
    scalar paths to hit later.
    """
    from ..engine.jobs import EngineJob
    from ..store.memo import memoize, producer_trace_id

    jobs = [
        EngineJob.from_config(demand, config, simulator_config) for config in configs
    ]

    def compute(misses: list[int]) -> list[TrialResult]:
        # No store handed to the engine: trials memoise as ``trial``
        # blobs (K, C, N + config), not full ``simulate`` results.
        results = engine.run([jobs[index] for index in misses])
        return [
            TrialResult.from_simulation(configs[index], result)
            for index, result in zip(misses, results)
        ]

    keys: list[str | None] = [None] * len(configs)
    if store is not None:
        from ..store.keys import trial_key

        keys = [trial_key(config, demand, simulator_config) for config in configs]
    producers = [producer_trace_id(demand, job.name) for job in jobs]
    trials = memoize(store, "trial", keys, producers, compute)
    return SearchOutcome(trials=tuple(trials))


@dataclass(frozen=True)
class TrialResult:
    """One evaluated parameter combination.

    Attributes
    ----------
    config:
        The sampled configuration.
    total_slack, total_insufficient_cpu, num_scalings:
        The §5 metrics ``K``, ``C``, ``N`` of its simulated run.
    """

    config: CaasperConfig
    total_slack: float
    total_insufficient_cpu: float
    num_scalings: int

    @classmethod
    def from_simulation(
        cls, config: CaasperConfig, result: SimulationResult
    ) -> "TrialResult":
        """The trial of ``config``: K, C and N read off its simulated run."""
        metrics = result.metrics
        return cls(
            config=config,
            total_slack=metrics.total_slack,
            total_insufficient_cpu=metrics.total_insufficient_cpu,
            num_scalings=metrics.num_scalings,
        )

    @property
    def is_proactive(self) -> bool:
        """True for proactive (blue in Figure 12) combinations."""
        return self.config.proactive


@dataclass(frozen=True)
class SearchOutcome:
    """All trials of one random search."""

    trials: tuple[TrialResult, ...]

    def __post_init__(self) -> None:
        if not self.trials:
            raise TuningError("search produced no trials")

    def slack_values(self) -> np.ndarray:
        """``K`` per trial."""
        return np.asarray([trial.total_slack for trial in self.trials])

    def throttle_values(self) -> np.ndarray:
        """``C`` per trial."""
        return np.asarray(
            [trial.total_insufficient_cpu for trial in self.trials]
        )

    def scaling_counts(self) -> np.ndarray:
        """``N`` per trial."""
        return np.asarray([trial.num_scalings for trial in self.trials])

    def pareto_indices(self) -> list[int]:
        """Figure 12's red ×s: the (K, C)-Pareto-optimal trials."""
        return pareto_frontier(self.slack_values(), self.throttle_values())

    def best_for_alpha(self, alpha: float) -> TrialResult:
        """The G-minimizing trial for one slack penalty α (Eq. 5)."""
        best = min(
            self.trials,
            key=lambda trial: alpha * trial.total_slack
            + trial.total_insufficient_cpu,
        )
        return best

    def best_per_alpha(
        self, alpha_count: int = 50, seed: int = 0, log_span: float = 8.0
    ) -> dict[float, TrialResult]:
        """Eq. 6: the optimal trial for each sampled α, keyed by α."""
        alphas = sample_alphas(alpha_count, seed=seed, log_span=log_span)
        return {float(a): self.best_for_alpha(float(a)) for a in alphas}


class RandomSearch:
    """Random search over a parameter space against one demand trace.

    Parameters
    ----------
    demand:
        The workload trace to tune for.
    simulator_config:
        Environment (initial cores, resize delay, guardrails, billing).
    space:
        The searchable space; its ``base`` config supplies non-searched
        fields.
    """

    def __init__(
        self,
        demand: CpuTrace,
        simulator_config: SimulatorConfig,
        space: ParameterSpace | None = None,
    ) -> None:
        self.demand = demand
        self.simulator_config = simulator_config
        self.space = space or ParameterSpace()

    def evaluate(
        self, config: CaasperConfig, store: "ResultStore | None" = None
    ) -> TrialResult:
        """Simulate one configuration and extract (K, C, N).

        A ``store`` memoises the trial: a previously evaluated
        (config, demand, simulator) triple decodes byte-identically
        instead of re-simulating.
        """
        from ..store.memo import cached_trial

        return cached_trial(config, self.demand, self.simulator_config, store=store)

    def run(
        self,
        trials: int,
        seed: int = 0,
        store: "ResultStore | None" = None,
        engine: "BatchEngine | None" = None,
    ) -> SearchOutcome:
        """Evaluate ``trials`` sampled configurations (deterministic).

        A ``store`` memoises trials across invocations. An ``engine``
        (a :class:`~repro.engine.batch.BatchEngine`) steps every sampled
        config as one vectorized batch over the shared demand trace —
        byte-identical to the serial run — and composes with ``store``
        under the same ``trial`` keys. Worker processes take the trials
        as a :func:`~repro.fleet.plans.trial_plan` instead.
        """
        if trials < 1:
            raise TuningError(f"trials must be >= 1, got {trials}")
        configs = self.space.sample_many(trials, seed=seed)
        if engine is not None:
            return _engine_outcome(
                list(configs),
                self.simulator_config,
                self.demand,
                engine,
                store=store,
            )
        return SearchOutcome(
            trials=tuple(self.evaluate(config, store=store) for config in configs)
        )

    def tuned_config(
        self, trials: int, alpha: float, seed: int = 0
    ) -> CaasperConfig:
        """Convenience: run a search and return the G-optimal config."""
        outcome = self.run(trials, seed=seed)
        return outcome.best_for_alpha(alpha).config
