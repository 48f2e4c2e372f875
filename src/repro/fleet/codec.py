"""JSON codec for fleet job results.

The checkpoint journal (:mod:`repro.fleet.journal`) stores job results
as JSON lines, so every result type a job can return must round-trip
through plain JSON losslessly. This module provides that codec as a
tagged recursive encoding: composite values become
``{"__fleet__": "<tag>", ...}`` objects, and :func:`decode` rebuilds
the originals bit-for-bit (numpy arrays included — floats travel as
Python floats, which JSON preserves exactly for IEEE doubles via
``repr`` round-tripping).

Result dataclasses are listed once, in :data:`_CLASSES`: :func:`encode`
writes every field :func:`dataclasses.fields` reports and
:func:`decode` rebuilds the class from them, so adding a result type is
one table entry. Numpy arrays and
:class:`~repro.core.config.CaasperConfig` keep their own branches,
whose bytes are pinned; JSON-native nests of all of these pass through.
"""

from __future__ import annotations

import dataclasses
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

#: Tag → result dataclass. The tags are part of the journal and blob
#: format; a class is looked up by its exact type.
_CLASSES: dict[str, type] = {
    "simulation_result": SimulationResult,
    "simulation_metrics": SimulationMetrics,
    "scaling_event": ScalingEvent,
    "job_failure": JobFailure,
    "trial_result": TrialResult,
}
_TAGS = {cls: tag for tag, cls in _CLASSES.items()}


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
    tag = _TAGS.get(type(value))
    if tag is not None:
        encoded = {_TAG: tag}
        for spec in dataclasses.fields(value):
            encoded[spec.name] = encode(getattr(value, spec.name))
        return encoded
    if isinstance(value, CaasperConfig):
        payload = value.as_dict()  # rounding already flattened to its value
        payload["extra"] = {str(k): encode(v) for k, v in value.extra.items()}
        return {_TAG: "caasper_config", "fields": payload}
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
    if tag == "caasper_config":
        fields = dict(value["fields"])
        fields["rounding"] = RoundingMode(fields["rounding"])
        extra = fields.pop("extra", {})
        return CaasperConfig(**fields, extra=extra)
    cls = _CLASSES.get(tag)
    if cls is None:
        raise FleetError(f"unknown fleet codec tag {tag!r}")
    kwargs = {}
    for spec in dataclasses.fields(cls):
        item = decode(value[spec.name])
        # JSON has only lists: a field annotated ``tuple[...]`` gets its tuple back.
        kwargs[spec.name] = tuple(item) if str(spec.type).startswith("tuple[") else item
    return cls(**kwargs)


def canonical_json(value: Any) -> str:
    """Deterministic JSON form of a result — the determinism oracle.

    Two results are bit-identical iff their canonical JSON strings are
    equal; the determinism tests and the journal both rely on this.
    """
    return json.dumps(encode(value), sort_keys=True, separators=(",", ":"))


def decode_json(text: str) -> Any:
    """Parse canonical/journal JSON back into result objects."""
    return decode(json.loads(text))
