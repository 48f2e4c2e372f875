"""Deterministic grid search over the CaaSPER parameter space.

The §5 tuning uses random search (5000 combinations); for small,
reviewable sweeps — "what do these three window sizes do?" — an explicit
Cartesian grid is the better tool. Produces the same
:class:`~repro.tuning.search.SearchOutcome` as the random driver, so
Pareto extraction and the Eq. 5 objective work unchanged.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from ..core.config import CaasperConfig
from ..errors import ConfigError, TuningError
from ..sim.simulator import SimulatorConfig
from ..trace import CpuTrace
from .search import RandomSearch, SearchOutcome

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.batch import BatchEngine
    from ..store.cas import ResultStore

__all__ = ["GridSearch", "grid_configs"]


def grid_configs(
    base: CaasperConfig, grid: Mapping[str, Sequence[Any]]
) -> list[CaasperConfig]:
    """Materialize every valid combination of the grid over ``base``.

    Invalid combinations (cross-field constraint violations) are
    skipped; an entirely invalid grid raises.
    """
    if not grid:
        raise TuningError("grid must define at least one dimension")
    names = sorted(grid)
    for name in names:
        if not grid[name]:
            raise TuningError(f"grid dimension {name!r} has no values")
    configs: list[CaasperConfig] = []
    for combo in itertools.product(*(grid[name] for name in names)):
        updates = dict(zip(names, combo))
        try:
            configs.append(base.with_updates(**updates))
        except ConfigError:
            # Cross-field constraint violation (s_low >= s_high, ...):
            # skip the combination. Anything else — a typo'd dimension
            # name raising TypeError, an injected FaultError — must
            # propagate rather than silently shrink the grid.
            continue
    if not configs:
        raise TuningError("no valid configuration in the grid")
    return configs


class GridSearch:
    """Exhaustive evaluation of a small parameter grid.

    Parameters
    ----------
    demand, simulator_config:
        Same evaluation environment as :class:`RandomSearch`.
    base:
        Config supplying every non-gridded field.
    grid:
        Mapping of config-field name → candidate values.
    """

    def __init__(
        self,
        demand: CpuTrace,
        simulator_config: SimulatorConfig,
        base: CaasperConfig,
        grid: Mapping[str, Sequence[Any]],
    ) -> None:
        self._driver = RandomSearch(demand, simulator_config)
        self.configs = grid_configs(base, grid)

    def __len__(self) -> int:
        return len(self.configs)

    def run(
        self,
        store: "ResultStore | None" = None,
        engine: "BatchEngine | None" = None,
    ) -> SearchOutcome:
        """Evaluate every grid point (deterministic, no seed needed).

        A ``store`` memoises grid points across invocations — re-running
        a grid that overlaps a previous one only simulates the new
        cells. An ``engine`` (a :class:`~repro.engine.batch.BatchEngine`)
        steps every grid point as one vectorized batch — byte-identical
        to the serial run, and composable with ``store``. Worker
        processes take :attr:`configs` as a
        :func:`~repro.fleet.plans.trial_plan` instead.
        """
        if engine is not None:
            from .search import _engine_outcome

            return _engine_outcome(
                self.configs,
                self._driver.simulator_config,
                self._driver.demand,
                engine,
                store=store,
            )
        return SearchOutcome(
            trials=tuple(
                self._driver.evaluate(config, store=store)
                for config in self.configs
            )
        )
