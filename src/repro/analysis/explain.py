"""Decision audit trail rendering (R6: interpretability).

"When using ML to help customers select optimal configurations, it is
important that the model is interpretable so that they understand
trade-offs and can make an informed decision."

Every CaaSPER decision carries its complete derivation
(:class:`~repro.core.reactive.ReactiveDecision`), and instrumented runs
additionally record each consultation as a
:class:`~repro.obs.events.DecisionEvent`. This module renders either
source as a human-readable audit log — the slope, skew, scaling factor,
branch and reason behind each resize — and summarizes which branches
drove the run.

Input is the recorded observability trail (ring buffer or JSONL
trace): it carries the decision *as enacted* — minute, guardrail clamps
and all — without re-running anything.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Sequence, Union

from ..core.reactive import ReactiveDecision
from ..core.recommender import CaasperRecommender
from ..errors import SimulationError
from ..obs.events import DecisionEvent
from ..obs.observer import Observer
from ..obs.trace_log import decision_events, read_events

__all__ = [
    "explain_decisions",
    "explain_trace",
    "decision_log",
    "branch_summary",
    "load_decision_trail",
]

#: Either derivation source renders through the same audit log.
DecisionLike = Union[ReactiveDecision, DecisionEvent]


def _fmt(value: float | None, width: int, precision: int = 2) -> str:
    """Fixed-width float, with a placeholder for opaque recommenders."""
    if value is None:
        return f"{'-':>{width}}"
    return f"{value:>{width}.{precision}f}"


def load_decision_trail(
    source: "Observer | str | Path | Sequence[DecisionLike]",
) -> list[DecisionLike]:
    """Normalise any decision-trail source to a list of decisions.

    Accepts an :class:`~repro.obs.observer.Observer` (its buffered
    decision events), a JSONL trace path, or an already-materialised
    sequence of decisions/events.
    """
    if isinstance(source, Observer):
        return list(source.decisions())
    if isinstance(source, (str, Path)):
        return list(decision_events(read_events(source)))
    return list(source)


def decision_log(
    decisions: Sequence[DecisionLike],
    only_scaling: bool = False,
    limit: int | None = None,
) -> str:
    """Render a sequence of decisions as an aligned audit log.

    Parameters
    ----------
    decisions:
        The decision trail, in time order — live
        :class:`~repro.core.reactive.ReactiveDecision` objects or
        recorded :class:`~repro.obs.events.DecisionEvent` entries.
    only_scaling:
        Skip ``hold`` decisions (the usual view).
    limit:
        Keep only the most recent ``limit`` entries.
    """
    if not decisions:
        raise SimulationError("no decisions to explain")
    entries = [
        decision
        for decision in decisions
        if not only_scaling or decision.is_scaling
    ]
    if limit is not None:
        entries = entries[-limit:]
    if not entries:
        return "(no scaling decisions)"

    lines = [
        f"{'#':>4}  {'cores':>11}  {'slope':>6}  {'skew':>6}  "
        f"{'SF':>5}  {'P-usage':>8}  branch      reason",
    ]
    for index, decision in enumerate(entries):
        transition = f"{decision.current_cores}->{decision.target_cores}"
        label = getattr(decision, "minute", index)
        lines.append(
            f"{label:>4}  {transition:>11}  {_fmt(decision.slope, 6)}  "
            f"{_fmt(decision.skew, 6)}  "
            f"{_fmt(decision.raw_scaling_factor, 5)}  "
            f"{_fmt(decision.usage_quantile, 8)}  {decision.branch:<10}  "
            f"{decision.reason}"
        )
    return "\n".join(lines)


def branch_summary(decisions: Sequence[DecisionLike]) -> dict[str, int]:
    """Count decisions per Algorithm 1 branch."""
    if not decisions:
        raise SimulationError("no decisions to summarize")
    return dict(Counter(decision.branch for decision in decisions))


def _render_report(
    title: str, decisions: Sequence[DecisionLike], only_scaling: bool, limit: int | None
) -> str:
    counts = branch_summary(decisions)
    scaling = sum(1 for decision in decisions if decision.is_scaling)
    header = [
        f"decision audit for {title!r}: "
        f"{len(decisions)} decisions, {scaling} scalings",
        "branches: "
        + ", ".join(
            f"{branch}={count}" for branch, count in sorted(counts.items())
        ),
        "",
    ]
    return "\n".join(header) + decision_log(
        decisions, only_scaling=only_scaling, limit=limit
    )


def explain_trace(
    source: "Observer | str | Path | Sequence[DecisionLike]",
    title: str | None = None,
    only_scaling: bool = True,
    limit: int | None = 40,
) -> str:
    """Full R6 report from a recorded observability trail.

    ``source`` is an observer, a JSONL trace path, or a decision-event
    sequence (see :func:`load_decision_trail`).

    Raises
    ------
    SimulationError
        When the source holds no decision events.
    """
    decisions = load_decision_trail(source)
    if not decisions:
        raise SimulationError("trace holds no decision events")
    if title is None:
        title = getattr(decisions[0], "recommender", "trace")
    return _render_report(title, decisions, only_scaling, limit)


def explain_decisions(
    recommender: CaasperRecommender,
    observer: Observer,
    only_scaling: bool = True,
    limit: int | None = 40,
) -> str:
    """Full R6 report for one recommender's recorded decision events.

    Renders the :class:`~repro.obs.events.DecisionEvent` entries
    ``observer`` recorded for ``recommender`` (matched by name): each
    carries the decision as enacted, minute and guardrail clamps
    included.

    Raises
    ------
    SimulationError
        When the observer holds no decision events for this recommender
        (it was not attached to the run, or the recommender was never
        consulted).
    """
    recorded = [
        event
        for event in observer.decisions()
        if event.recommender == recommender.name
    ]
    if not recorded:
        raise SimulationError(
            f"{recommender.name}: the observer recorded no decisions — "
            "attach it to the run and make at least one recommendation"
        )
    return _render_report(recommender.name, recorded, only_scaling, limit)
