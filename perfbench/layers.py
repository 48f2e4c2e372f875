"""Per-layer tracing for the benchmark, installed from outside the program.

The traced run wraps the public entry points of each layer by name
(``module:Qualified.name``), at the place the caller looks the name up:
a function imported at module level is patched in the importing module
(``repro.engine.batch:decide_batch``), one imported inside a function
body is patched in its home module (``repro.engine.kernel:decide_batch``),
and a method is patched on its class. A target that no longer resolves
is reported absent instead of failing, so the traced run survives
refactors that rename or delete an entry point.

Each wrapped call pushes a frame on one stack: its duration is charged
to the layer's total, its duration less the wrapped calls it made is the
layer's self time, and its duration is charged to the caller's frame as
child time. Coarse layers also keep every call as a span (name, start,
end, parent span, run id) in memory; per-minute layers such as
``observe`` keep only counts and times. Nothing is written until the run
ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

__all__ = ["HOOKS", "LAYER_METRICS", "Hook", "Tracer", "layer_metrics"]


def _lanes(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    """Lanes of a kernel call: rows of its window matrix."""
    try:
        return {"lanes": len(args[0])}
    except (IndexError, TypeError):
        return {}


def _success(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    """Placement attempts that landed (returned a node)."""
    return {"success": 0 if result is None else 1}


def _put_bytes(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"bytes": result if isinstance(result, int) else 0}


def _get_hit(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"hits": 0 if result is None else 1}


def _cohort_key(config: Any) -> tuple:
    """Lanes that can share a kernel call, from public config fields."""
    key = (
        config.proactive,
        config.window_minutes,
        config.max_cores,
        config.slope_scale,
        config.quantile,
    )
    if not config.proactive:
        return key
    return key + (
        config.seasonal_period_minutes,
        config.forecast_horizon_minutes,
        config.history_tail_minutes,
    )


def _engine_jobs(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    """Cohorts and vector lanes among the jobs handed to the engine."""
    jobs = args[1] if len(args) > 1 else kwargs.get("jobs")
    if not isinstance(jobs, (list, tuple)):
        return {}
    try:
        from repro.engine import vectorizable
    except ImportError:
        return {}
    vector = [job.config for job in jobs if vectorizable(job.config)]
    return {
        "cohorts": len({_cohort_key(config) for config in vector}),
        "vector_lanes": len(vector),
    }


@dataclass(frozen=True)
class Hook:
    """One layer: the entry points that make it up, and what to count.

    ``spans`` keeps every call as a span; otherwise only the call count
    and times are kept. ``count`` maps a call's arguments and result to
    extra counters summed under the layer (for example kernel lanes).
    """

    layer: str
    targets: tuple[str, ...]
    spans: bool = False
    count: Callable[[tuple, dict, Any], dict[str, float]] | None = None


_PLACEMENT = "repro.capacity.placement:PlacementEngine."
_AUTOSCALER = "repro.capacity.autoscaler:NodePoolAutoscaler."
_RECOMMENDER = "repro.core.recommender:CaasperRecommender."

HOOKS: tuple[Hook, ...] = (
    Hook("capacity.engine", ("repro.capacity.engine:ClusterEngine.run",), spans=True),
    Hook(
        "capacity.placement",
        tuple(_PLACEMENT + name for name in ("place", "migrate", "resize_in_place")),
        count=_success,
    ),
    Hook(
        "capacity.autoscaler",
        tuple(
            _AUTOSCALER + name
            for name in ("tick_provisioning", "tick_drains", "evaluate", "charge")
        ),
    ),
    Hook("capacity.water_fill", ("repro.capacity.engine:water_fill",)),
    Hook("recommender.observe", (_RECOMMENDER + "observe",)),
    Hook("recommender.usage_window", (_RECOMMENDER + "usage_window",)),
    Hook("recommender.recommend", (_RECOMMENDER + "recommend",)),
    Hook(
        "kernel.decide_batch",
        ("repro.engine.kernel:decide_batch", "repro.engine.batch:decide_batch"),
        count=_lanes,
    ),
    Hook(
        "kernel.decide_lane",
        ("repro.engine.kernel:decide_lane", "repro.engine.batch:decide_lane"),
    ),
    Hook(
        "engine.run",
        ("repro.engine.batch:BatchEngine.run",),
        spans=True,
        count=_engine_jobs,
    ),
    Hook(
        "sim.simulate_trace",
        ("repro.engine.batch:simulate_trace", "repro.sim.sweep:simulate_trace"),
        spans=True,
    ),
    Hook("store.put", ("repro.store.cas:ResultStore.put",), spans=True, count=_put_bytes),
    Hook("store.get", ("repro.store.cas:ResultStore.get",), spans=True, count=_get_hit),
    Hook(
        "store.keys",
        (
            "repro.store.keys:simulate_key",
            "repro.store.keys:trial_key",
            "repro.store.memo:simulate_key",
            "repro.store.memo:trial_key",
        ),
    ),
    Hook("codec.encode", ("repro.store.cas:encode",)),
    Hook("codec.decode", ("repro.fleet.codec:decode_json",)),
    Hook("serve.step_tick", ("repro.serve.plane:ControlPlane.step_tick",), spans=True),
    Hook(
        "serve.ingest_batch",
        ("repro.serve.plane:ControlPlane.ingest_batch",),
        spans=True,
    ),
    Hook("serve.admission.offer", ("repro.serve.admission:AdmissionController.offer",)),
    Hook("serve.admission.pop", ("repro.serve.admission:AdmissionController.pop",)),
    Hook("serve.supervisor.poll", ("repro.serve.supervisor:Supervisor.poll",)),
    Hook("serve.tenant.step", ("repro.serve.tenant:TenantRuntime.step",)),
    Hook(
        "serve.journal.append",
        ("repro.serve.state:ServeState.append",),
        spans=True,
    ),
    Hook(
        "serve.journal.snapshot",
        ("repro.serve.state:ServeState.snapshot",),
        spans=True,
    ),
)


def _resolve(target: str) -> tuple[Any, str, Any]:
    """``(owner, attribute, value)`` for ``module:Qual.name``.

    Raises ImportError or AttributeError when the target is absent.
    """
    module_name, _, qualname = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attribute, inspect.getattr_static(owner, attribute)


class Tracer:
    """Counts, times and spans of the wrapped layers for one run."""

    def __init__(self, hooks: tuple[Hook, ...] = HOOKS) -> None:
        self.hooks = hooks
        #: layer -> {"calls", "s", "self_s", plus the hook's counters}.
        self.stats: dict[str, dict[str, float]] = {
            hook.layer: {"calls": 0, "s": 0.0, "self_s": 0.0} for hook in hooks
        }
        #: ``(name, start, end, span id, parent span id, run id)``.
        self.spans: list[tuple[str, float, float, int, int, str]] = []
        self.absent: list[str] = []
        self.run_id = ""
        self._stack: list[list[Any]] = []  # [child seconds, span id]
        self._next_span = 1
        #: ``(owner, attribute, original, whether owner defined it itself)``.
        self._installed: list[tuple[Any, str, Any, bool]] = []

    # -- recording ------------------------------------------------------------

    def _parent_span(self) -> int:
        for frame in reversed(self._stack):
            if frame[1]:
                return frame[1]
        return 0

    def call(self, hook: Hook, fn: Callable, args: tuple, kwargs: dict) -> Any:
        span_id = 0
        parent_span = 0
        if hook.spans:
            span_id = self._next_span
            self._next_span += 1
            parent_span = self._parent_span()
        frame = [0.0, span_id]
        self._stack.append(frame)
        start = perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter()
            self._stack.pop()
            elapsed = end - start
            stat = self.stats.setdefault(
                hook.layer, {"calls": 0, "s": 0.0, "self_s": 0.0}
            )
            stat["calls"] += 1
            stat["s"] += elapsed
            stat["self_s"] += elapsed - frame[0]
            if self._stack:
                self._stack[-1][0] += elapsed
            if hook.count is not None:
                for key, value in hook.count(args, kwargs, result).items():
                    stat[key] = stat.get(key, 0) + value
            if hook.spans:
                self.spans.append(
                    (hook.layer, start, end, span_id, parent_span, self.run_id)
                )

    def root(self, name: str, run_id: str, fn: Callable[[], Any]) -> Any:
        """Call ``fn`` under a root span; spans inside carry ``run_id``."""
        self.run_id = run_id
        return self.call(Hook(name, (), spans=True), fn, (), {})

    # -- installation ---------------------------------------------------------

    def _wrap(self, hook: Hook, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.call(hook, fn, args, kwargs)

        return traced

    def install(self) -> list[str]:
        """Wrap every resolvable target; returns (and keeps) the absent ones."""
        self.absent = []
        for hook in self.hooks:
            for target in hook.targets:
                try:
                    owner, attribute, original = _resolve(target)
                except (ImportError, AttributeError):
                    self.absent.append(target)
                    continue
                if isinstance(original, (staticmethod, classmethod)):
                    wrapped: Any = type(original)(self._wrap(hook, original.__func__))
                elif callable(original):
                    wrapped = self._wrap(hook, original)
                else:
                    self.absent.append(target)
                    continue
                own = attribute in vars(owner)
                setattr(owner, attribute, wrapped)
                self._installed.append((owner, attribute, original, own))
        return list(self.absent)

    def uninstall(self) -> None:
        """Put every original back, in reverse order of installation."""
        while self._installed:
            owner, attribute, original, own = self._installed.pop()
            if own:
                setattr(owner, attribute, original)
            else:  # inherited: drop the override, do not pin the base's
                delattr(owner, attribute)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()


#: Every per-layer metric the traced run reports: name -> unit.
LAYER_METRICS: dict[str, str] = {
    "capacity.engine.calls": "count",
    "capacity.engine.s": "s",
    "capacity.engine.self_s": "s",
    "capacity.placement.calls": "count",
    "capacity.placement.s": "s",
    "capacity.placement.success_ratio": "ratio",
    "capacity.autoscaler.calls": "count",
    "capacity.autoscaler.s": "s",
    "capacity.water_fill.calls": "count",
    "capacity.water_fill.s": "s",
    "recommender.observe.calls": "count",
    "recommender.observe.s": "s",
    "recommender.usage_window.calls": "count",
    "recommender.usage_window.s": "s",
    "recommender.recommend.calls": "count",
    "recommender.recommend.s": "s",
    "kernel.decide_batch.calls": "count",
    "kernel.decide_batch.lanes": "count",
    "kernel.decide_batch.s": "s",
    "kernel.lanes_per_call": "lanes/call",
    "kernel.decide_lane.calls": "count",
    "kernel.decide_lane.s": "s",
    "engine.run.calls": "count",
    "engine.run.self_s": "s",
    "engine.cohorts": "count",
    "engine.vector_lanes": "count",
    "sim.simulate_trace.calls": "count",
    "sim.simulate_trace.s": "s",
    "store.put.calls": "count",
    "store.put.s": "s",
    "store.put.bytes": "B",
    "store.get.calls": "count",
    "store.get.s": "s",
    "store.hit_ratio": "ratio",
    "store.keys.calls": "count",
    "store.keys.s": "s",
    "codec.encode.calls": "count",
    "codec.encode.s": "s",
    "codec.decode.calls": "count",
    "codec.decode.s": "s",
    "serve.step_tick.calls": "count",
    "serve.step_tick.s": "s",
    "serve.ingest_batch.calls": "count",
    "serve.ingest_batch.s": "s",
    "serve.admission.offer.calls": "count",
    "serve.admission.offer.s": "s",
    "serve.admission.pop.calls": "count",
    "serve.admission.pop.s": "s",
    "serve.supervisor.poll.calls": "count",
    "serve.supervisor.poll.s": "s",
    "serve.tenant.step.calls": "count",
    "serve.tenant.step.s": "s",
    "serve.journal.append.calls": "count",
    "serve.journal.append.s": "s",
    "serve.journal.snapshot.calls": "count",
    "serve.journal.snapshot.s": "s",
    "serve.plane.self_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.absent_targets": "count",
    "trace.spans": "count",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` value from one run's traced stats.

    A layer that was never called (or whose targets are absent) reads 0.
    """
    stats = tracer.stats

    def stat(layer: str, key: str) -> float:
        return stats.get(layer, {}).get(key, 0)

    values: dict[str, float] = {}
    for name in LAYER_METRICS:
        layer, _, key = name.rpartition(".")
        if key in ("calls", "s", "self_s", "lanes", "bytes") and layer in stats:
            values[name] = stat(layer, key)
    values.update(
        {
            "capacity.placement.success_ratio": _ratio(
                stat("capacity.placement", "success"),
                stat("capacity.placement", "calls"),
            ),
            "kernel.lanes_per_call": _ratio(
                stat("kernel.decide_batch", "lanes"),
                stat("kernel.decide_batch", "calls"),
            ),
            "engine.cohorts": stat("engine.run", "cohorts"),
            "engine.vector_lanes": stat("engine.run", "vector_lanes"),
            "store.hit_ratio": _ratio(
                stat("store.get", "hits"), stat("store.get", "calls")
            ),
            "serve.plane.self_s": stat("serve.step_tick", "self_s")
            + stat("serve.ingest_batch", "self_s"),
            "trace.overhead_ratio": overhead_ratio,
            "trace.absent_targets": len(tracer.absent),
            "trace.spans": len(tracer.spans),
        }
    )
    missing = set(LAYER_METRICS) - set(values)
    if missing:
        raise KeyError(f"per-layer metrics without a source: {sorted(missing)}")
    return values
