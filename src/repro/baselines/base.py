"""The pluggable recommender contract (Figure 1, step 3).

A recommender is the component that, given the metrics a metrics server has
collected, publishes a decision about the optimal CPU allocation. Both the
trace-driven simulator (§5) and the live-cluster control loop (§2.2) drive
recommenders through the same two-method protocol:

- :meth:`Recommender.observe` is called once per minute with the usage
  sample and the allocation that was in force during that minute.
- :meth:`Recommender.recommend` is called at each decision point and must
  return the desired integer core ``limits`` (the paper's R1 invariant:
  ``limits == requests``, whole cores).

Recommenders are stateful (they own their history), mirroring how the VPA
recommender process accumulates a decayed histogram across restarts.
"""

from __future__ import annotations

import dataclasses
from abc import ABC, abstractmethod
from collections import deque
from typing import Any

import numpy as np

from ..errors import ConfigError
from ..trace import CpuTrace, validate_usage_sample

__all__ = ["Recommender", "WindowedRecommender", "window_summary"]


def window_summary(usage: np.ndarray) -> dict[str, float] | None:
    """The ``window_stats`` summary of a usage window (``None`` when empty)."""
    if usage.size == 0:
        return None
    return {
        "samples": float(usage.size),
        "mean_cores": float(usage.mean()),
        "max_cores": float(usage.max()),
        "p95_cores": float(np.percentile(usage, 95.0)),
    }


class Recommender(ABC):
    """Abstract vertical-scaling recommender.

    Subclasses must implement :meth:`recommend`; most also override
    :meth:`observe` to accumulate history. The returned value must be a
    positive integer number of cores — the scaler enforces service
    guardrails on top (minimum cores, node capacity).
    """

    #: Human-readable name used in result tables and figures.
    name: str = "recommender"

    #: Decision-provenance protocol for observability: recommenders that
    #: can explain themselves (CaaSPER) set this to the full derivation
    #: of their most recent recommendation; opaque baselines leave it
    #: None. The simulator and control loop forward it into
    #: :class:`~repro.obs.events.DecisionEvent` audit records.
    last_decision = None

    def window_stats(self) -> dict[str, float] | None:
        """Summary of the observation window behind the next decision.

        Optional observability hook: returns ``None`` for recommenders
        with no inspectable window. Windowed recommenders report sample
        count and the usage distribution the decision will see.
        """
        return None

    def store_payload(self) -> dict[str, Any] | None:
        """Content description of this recommender for result-store keys.

        A recommender is cacheable iff its behaviour is a pure function
        of describable content. The default covers the common shape — a
        frozen dataclass ``config`` attribute plus the class identity —
        and returns ``None`` otherwise, which makes the recommender
        *uncacheable*: :func:`repro.store.keys.simulate_key` yields no
        key and every caller falls through to recomputation. Subclasses
        whose behaviour depends on anything beyond their config (an
        injected forecaster instance, ambient state) must override this
        to return ``None``; constructor-parameterised baselines without
        a config dataclass are conservatively uncacheable already.
        """
        config = getattr(self, "config", None)
        if config is not None and dataclasses.is_dataclass(config):
            return {
                "class": f"{type(self).__module__}.{type(self).__qualname__}",
                "name": self.name,
                "config": config,
            }
        return None

    def observe(self, minute: int, usage: float, limit: int) -> None:
        """Record one usage sample.

        Parameters
        ----------
        minute:
            Absolute simulation minute of the sample.
        usage:
            Observed CPU usage in cores during that minute. Note this is
            *usage*, not demand: a throttled application reports usage
            pinned at its limit, which is precisely the signal problem the
            paper's PvP-slope analysis solves.
        limit:
            The CPU ``limits`` (== ``requests``) in force during the
            sample, in whole cores.
        """

    @abstractmethod
    def recommend(self, minute: int, current_limit: int) -> int:
        """Return the desired whole-core ``limits`` for the next interval."""

    def reset(self) -> None:
        """Discard accumulated history (fresh deployment)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class WindowedRecommender(Recommender):
    """Base class for recommenders that keep a bounded usage window.

    Maintains the most recent ``window_minutes`` of ``(usage, limit)``
    samples in arrival order. Subclasses read :attr:`usage_window` /
    :attr:`limit_window` or :meth:`window_trace`.
    """

    def __init__(self, window_minutes: int) -> None:
        if window_minutes <= 0:
            raise ConfigError(
                f"window_minutes must be positive, got {window_minutes}"
            )
        self.window_minutes = int(window_minutes)
        self._usage: deque[float] = deque(maxlen=self.window_minutes)
        self._limits: deque[int] = deque(maxlen=self.window_minutes)
        self._last_minute: int | None = None

    # -- Recommender interface -------------------------------------------------

    def observe(self, minute: int, usage: float, limit: int) -> None:
        usage = validate_usage_sample(usage, context=f"{self.name} observe")
        if self._last_minute is not None and minute <= self._last_minute:
            # Tolerate replays of the same minute (controller retries) but
            # never let time run backwards silently.
            if minute < self._last_minute:
                raise ConfigError(
                    f"{self.name}: observations must be time-ordered "
                    f"({minute} after {self._last_minute})"
                )
            self._usage[-1] = float(usage)
            self._limits[-1] = int(limit)
            return
        self._last_minute = minute
        self._usage.append(float(usage))
        self._limits.append(int(limit))

    def reset(self) -> None:
        self._usage.clear()
        self._limits.clear()
        self._last_minute = None

    # -- helpers for subclasses -------------------------------------------------

    @property
    def sample_count(self) -> int:
        """Number of samples currently in the window."""
        return len(self._usage)

    @property
    def usage_window(self) -> np.ndarray:
        """Usage samples in the window, oldest first."""
        return np.asarray(self._usage, dtype=float)

    @property
    def limit_window(self) -> np.ndarray:
        """Limits in force per sample, oldest first."""
        return np.asarray(self._limits, dtype=float)

    def window_trace(self, name: str = "window") -> CpuTrace:
        """The current window as a :class:`~repro.trace.CpuTrace`."""
        start = 0 if self._last_minute is None else (
            self._last_minute - self.sample_count + 1
        )
        return CpuTrace(self.usage_window, name, start_minute=start)

    def has_full_window(self) -> bool:
        """True once the window has been completely filled."""
        return self.sample_count >= self.window_minutes

    def window_stats(self) -> dict[str, float] | None:
        """Usage-window summary for the observability decision trail."""
        return window_summary(self.usage_window)
