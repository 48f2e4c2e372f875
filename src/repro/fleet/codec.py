"""JSON codec for fleet job results.

The checkpoint journal (:mod:`repro.fleet.journal`) stores job results
as JSON lines, so every result type a job can return must round-trip
through plain JSON losslessly. This module provides that codec as a
tagged recursive encoding: composite values become
``{"__fleet__": "<tag>", ...}`` objects, and :func:`decode` rebuilds
the originals bit-for-bit (numpy arrays included — floats travel as
Python floats, which JSON preserves exactly for IEEE doubles via
``repr`` round-tripping).

Supported result types: :class:`~repro.sim.results.SimulationResult`
(with its metrics/events), :class:`~repro.tuning.search.TrialResult`,
:class:`~repro.core.config.CaasperConfig`,
:class:`~repro.fleet.jobs.JobFailure`, numpy arrays, and arbitrary
JSON-native nests of those.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

import numpy as np

from ..core.config import CaasperConfig, RoundingMode
from ..errors import FleetError
from ..sim.metrics import SimulationMetrics
from ..sim.results import ScalingEvent, SimulationResult
from ..tuning.search import TrialResult
from .jobs import JobFailure

__all__ = ["encode", "decode", "canonical_json", "decode_json"]

_TAG = "__fleet__"


def encode(value: Any) -> Any:
    """Convert a job result into JSON-native data (tagged where needed)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.ndarray):
        return {_TAG: "ndarray", "values": [float(v) for v in value]}
    if isinstance(value, (list, tuple)):
        return [encode(item) for item in value]
    if isinstance(value, SimulationResult):
        return {
            _TAG: "simulation_result",
            "name": value.name,
            "demand": encode(value.demand),
            "usage": encode(value.usage),
            "limits": encode(value.limits),
            "events": [encode(event) for event in value.events],
            "metrics": encode(value.metrics),
            "detail": encode(dict(value.detail)),
        }
    if isinstance(value, SimulationMetrics):
        return {
            _TAG: "simulation_metrics",
            "total_slack": value.total_slack,
            "total_insufficient_cpu": value.total_insufficient_cpu,
            "num_scalings": value.num_scalings,
            "minutes": value.minutes,
            "throttled_observations": value.throttled_observations,
            "price": value.price,
        }
    if isinstance(value, ScalingEvent):
        return {
            _TAG: "scaling_event",
            "decided_minute": value.decided_minute,
            "enacted_minute": value.enacted_minute,
            "from_cores": value.from_cores,
            "to_cores": value.to_cores,
        }
    if isinstance(value, CaasperConfig):
        payload = value.as_dict()  # rounding already flattened to its value
        payload["extra"] = {str(k): encode(v) for k, v in value.extra.items()}
        return {_TAG: "caasper_config", "fields": payload}
    if isinstance(value, JobFailure):
        return {
            _TAG: "job_failure",
            "job_id": value.job_id,
            "error_type": value.error_type,
            "message": value.message,
            "traceback": value.traceback,
            "failure_kind": value.failure_kind,
        }
    if isinstance(value, TrialResult):
        return {
            _TAG: "trial_result",
            "config": encode(value.config),
            "total_slack": value.total_slack,
            "total_insufficient_cpu": value.total_insufficient_cpu,
            "num_scalings": value.num_scalings,
        }
    if isinstance(value, Mapping):
        return {str(key): encode(item) for key, item in value.items()}
    raise FleetError(
        f"cannot encode result of type {type(value).__name__} for the "
        "fleet journal"
    )


def decode(value: Any) -> Any:
    """Inverse of :func:`encode`."""
    if isinstance(value, list):
        return [decode(item) for item in value]
    if not isinstance(value, dict):
        return value
    tag = value.get(_TAG)
    if tag is None:
        return {key: decode(item) for key, item in value.items()}
    if tag == "ndarray":
        return np.asarray(value["values"], dtype=float)
    if tag == "simulation_result":
        return SimulationResult(
            name=value["name"],
            demand=decode(value["demand"]),
            usage=decode(value["usage"]),
            limits=decode(value["limits"]),
            events=tuple(decode(event) for event in value["events"]),
            metrics=decode(value["metrics"]),
            detail=decode(value["detail"]),
        )
    if tag == "simulation_metrics":
        return SimulationMetrics(
            total_slack=value["total_slack"],
            total_insufficient_cpu=value["total_insufficient_cpu"],
            num_scalings=value["num_scalings"],
            minutes=value["minutes"],
            throttled_observations=value["throttled_observations"],
            price=value["price"],
        )
    if tag == "scaling_event":
        return ScalingEvent(
            decided_minute=value["decided_minute"],
            enacted_minute=value["enacted_minute"],
            from_cores=value["from_cores"],
            to_cores=value["to_cores"],
        )
    if tag == "caasper_config":
        fields = dict(value["fields"])
        fields["rounding"] = RoundingMode(fields["rounding"])
        extra = fields.pop("extra", {})
        return CaasperConfig(**fields, extra=extra)
    if tag == "job_failure":
        return JobFailure(
            job_id=value["job_id"],
            error_type=value["error_type"],
            message=value["message"],
            traceback=value["traceback"],
            failure_kind=value["failure_kind"],
        )
    if tag == "trial_result":
        return TrialResult(
            config=decode(value["config"]),
            total_slack=value["total_slack"],
            total_insufficient_cpu=value["total_insufficient_cpu"],
            num_scalings=value["num_scalings"],
        )
    raise FleetError(f"unknown fleet codec tag {tag!r}")


def canonical_json(value: Any) -> str:
    """Deterministic JSON form of a result — the determinism oracle.

    Two results are bit-identical iff their canonical JSON strings are
    equal; the determinism tests and the journal both rely on this.
    """
    return json.dumps(encode(value), sort_keys=True, separators=(",", ":"))


def decode_json(text: str) -> Any:
    """Parse canonical/journal JSON back into result objects."""
    return decode(json.loads(text))
