"""Window preprocessing — the ``Preprocess CPU`` step of Algorithm 1.

Before the PvP-curve is estimated, the raw observation window is cleaned:

- exact zeros from collection gaps are kept (they are real idle minutes);
- the window is optionally truncated to the configured reactive length.

Kept deliberately light: the algorithm's robustness comes from the
quantile-based thresholds, not from heavy filtering.
"""

from __future__ import annotations

from ..errors import ConfigError
from ..trace import CpuTrace

__all__ = ["preprocess_window"]


def preprocess_window(
    trace: CpuTrace,
    window_minutes: int | None = None,
) -> CpuTrace:
    """Clean an observation window for PvP estimation.

    Parameters
    ----------
    trace:
        The raw usage window (most recent samples last).
    window_minutes:
        If given, keep only the trailing ``window_minutes`` samples.
    """
    if window_minutes is not None:
        if window_minutes <= 0:
            raise ConfigError(
                f"window_minutes must be positive, got {window_minutes}"
            )
        if trace.minutes > window_minutes:
            trace = trace.window(-window_minutes)
    return trace
