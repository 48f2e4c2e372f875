"""CaasperRecommender: the deployable recommender (Figure 1, step 3).

Ties the pieces together behind the generic
:class:`~repro.baselines.base.Recommender` contract so the simulator, the
live-cluster control loop and the tuning search all drive CaaSPER exactly
like they drive every baseline:

- accumulates usage history (bounded to what forecasting needs),
- at each decision point builds the Algorithm 1 input window — reactive,
  or Eq. 4 combined when proactive mode is enabled and ready,
- runs :class:`~repro.core.reactive.ReactivePolicy`,
- keeps the fully-derived :class:`~repro.core.reactive.ReactiveDecision`
  of its latest decision; an observer records the whole trail for
  interpretability (R6).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..baselines.base import Recommender
from ..errors import ConfigError
from ..forecast.base import Forecaster
from ..trace import CpuTrace, validate_usage_sample
from .config import CaasperConfig
from .proactive import ProactiveWindowBuilder
from .reactive import ReactiveDecision, ReactivePolicy

__all__ = ["CaasperRecommender", "history_capacity"]

#: How many seasonal periods of history the recommender retains; the naïve
#: forecaster needs one, Holt-Winters needs two, so two plus slack.
_HISTORY_PERIODS = 3


def history_capacity(config: CaasperConfig) -> int:
    """Minutes of usage history a configuration can use (its deque bound)."""
    if not config.proactive:
        return config.window_minutes
    period = config.seasonal_period_minutes
    if period is None:
        # Auto-detection needs enough signal; keep a week of minutes.
        return 7 * 24 * 60
    return max(_HISTORY_PERIODS * period, config.window_minutes)


class CaasperRecommender(Recommender):
    """The CaaSPER vertical autoscaler as a pluggable recommender.

    Parameters
    ----------
    config:
        Full algorithm configuration; defaults to the paper-flavoured
        defaults of :class:`~repro.core.config.CaasperConfig`.
    forecaster:
        Optional custom forecaster instance (otherwise resolved from
        ``config.forecaster`` via the registry).
    """

    name = "caasper"

    def __init__(
        self,
        config: CaasperConfig | None = None,
        forecaster: Forecaster | None = None,
    ) -> None:
        self.config = config or CaasperConfig()
        self.policy = ReactivePolicy(self.config)
        self._custom_forecaster = forecaster is not None
        self._window_builder = ProactiveWindowBuilder(self.config, forecaster)
        self._last_decision: ReactiveDecision | None = None
        self._usage: deque[float] = deque(maxlen=history_capacity(self.config))
        self._first_minute: int | None = None
        self._last_minute: int | None = None
        if self.config.proactive:
            self.name = "caasper-proactive"

    # -- Recommender interface ---------------------------------------------------

    def observe(self, minute: int, usage: float, limit: int) -> None:
        usage = validate_usage_sample(usage, context=f"{self.name} observe")
        if self._last_minute is not None and minute < self._last_minute:
            raise ConfigError(
                f"observations must be time-ordered ({minute} after "
                f"{self._last_minute})"
            )
        if self._last_minute is not None and minute == self._last_minute:
            self._usage[-1] = float(usage)
            return
        if self._first_minute is None:
            self._first_minute = minute
        if len(self._usage) == self._usage.maxlen:
            self._first_minute = (self._first_minute or 0) + 1
        self._last_minute = minute
        self._usage.append(float(usage))

    def recommend(self, minute: int, current_limit: int) -> int:
        if not self._usage:
            # Nothing observed yet: keep the current allocation.
            return max(current_limit, self.config.c_min)
        decision = self.decide(current_limit)
        return decision.target_cores

    def reset(self) -> None:
        self._usage.clear()
        self._first_minute = None
        self._last_minute = None
        self._last_decision = None

    def store_payload(self) -> dict[str, object] | None:
        """Result-store identity: the config, unless a custom forecaster
        was injected (an arbitrary instance has no content signature, so
        such a recommender is uncacheable)."""
        if self._custom_forecaster:
            return None
        return super().store_payload()

    # -- CaaSPER-specific API ------------------------------------------------------

    def history(self) -> CpuTrace:
        """The retained usage history as a trace."""
        return CpuTrace(
            np.asarray(self._usage, dtype=float),
            name="history",
            start_minute=self._first_minute or 0,
        )

    def batchable_snapshot(self) -> CaasperConfig | None:
        """The config driving this recommender, if a batch engine may
        replay it from scratch.

        Returns ``None`` when this instance cannot be reproduced from its
        configuration alone: a custom forecaster was injected, or history
        has already been observed (a mid-flight recommender has state the
        engine would have to replicate minute-by-minute anyway).
        """
        if self._custom_forecaster:
            return None
        if self._usage or self._last_minute is not None:
            return None
        return self.config

    def usage_window(self) -> np.ndarray:
        """The retained usage history as a flat float array (oldest first)."""
        return np.asarray(self._usage, dtype=float)

    def decision_window(self) -> CpuTrace:
        """The Algorithm 1 input window for a decision now.

        The reactive tail of the history, or the Eq. 4 combined window
        once proactive mode is ready — including the forecast fault gate
        and the ``ForecastError`` → reactive fallback. :meth:`decide`
        decides on it; callers that batch decisions through the kernels
        (the serve plane) read it directly.
        """
        return self._window_builder.build(self.history()).window

    def decide(self, current_cores: int) -> ReactiveDecision:
        """Run one full CaaSPER decision against the retained history."""
        decision = self.policy.decide(
            current_cores, self.decision_window(), truncate_window=False
        )
        self._last_decision = decision
        return decision

    def window_stats(self) -> dict[str, float] | None:
        """History summary for the observability decision trail."""
        if not self._usage:
            return None
        usage = np.asarray(self._usage, dtype=float)
        return {
            "samples": float(usage.size),
            "mean_cores": float(usage.mean()),
            "max_cores": float(usage.max()),
            "p95_cores": float(np.percentile(usage, 95.0)),
        }

    @property
    def last_decision(self) -> ReactiveDecision | None:
        """Most recent decision, or ``None`` before the first."""
        return self._last_decision

    @property
    def window_builder(self) -> ProactiveWindowBuilder:
        """The Eq. 4 window builder (fault-injection seam attachment point).

        Chaos runs (:mod:`repro.faults`) use this to point the builder's
        ``fault_gate`` at an injector, so forecaster faults degrade
        through the existing ``ForecastError`` → reactive rule.
        """
        return self._window_builder
