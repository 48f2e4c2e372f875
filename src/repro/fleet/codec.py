"""JSON and binary-array codec for fleet job results.

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

:func:`pack` and :func:`unpack` are the result store's blob payload
over the same encoding: the canonical JSON of :func:`encode`'s tree
with each ndarray leaf's ``values`` replaced by its length ``n``, a
``\n``, then every array's little-endian float64 bytes in the order a
sorted-key walk of that skeleton meets them. Floats skip the text
round trip, so a store hit or write costs a fraction of
:func:`canonical_json` / :func:`decode_json` for array-heavy results.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Iterator, Mapping

import numpy as np

from ..core.config import CaasperConfig, RoundingMode
from ..errors import FleetError
from ..sim.metrics import SimulationMetrics
from ..sim.results import ScalingEvent, SimulationResult
from ..tuning.search import TrialResult
from .jobs import JobFailure

__all__ = ["encode", "decode", "canonical_json", "decode_json", "pack", "unpack"]

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
        return {_TAG: "ndarray", "values": np.asarray(value, dtype=float).tolist()}
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
        extra = {key: decode(item) for key, item in fields.pop("extra", {}).items()}
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


#: Byte layout of every array in a :func:`pack` payload.
_FLOAT64_LE = np.dtype("<f8")


def _array_leaves(tree: Any) -> Iterator[dict[str, Any]]:
    """The ndarray leaves of an encoded tree, in sorted-key order.

    The order is the payload's array order, so it must not depend on
    dict insertion order: :func:`pack` walks :func:`encode`'s output,
    :func:`unpack` walks parsed canonical JSON.
    """
    if isinstance(tree, list):
        for item in tree:
            yield from _array_leaves(item)
    elif isinstance(tree, dict):
        if tree.get(_TAG) == "ndarray":
            yield tree
            return
        for key in sorted(tree):
            yield from _array_leaves(tree[key])


def pack(value: Any) -> bytes:
    """Binary payload of a result: skeleton JSON, ``\n``, array bytes.

    Inverse of :func:`unpack`; ``canonical_json(unpack(pack(v)))``
    equals ``canonical_json(v)``.
    """
    tree = encode(value)
    chunks = []
    for leaf in _array_leaves(tree):
        array = np.asarray(leaf.pop("values"), dtype=_FLOAT64_LE)
        if array.ndim != 1:
            raise FleetError(f"cannot pack a {array.ndim}-D array")
        leaf["n"] = len(array)
        chunks.append(array.tobytes())
    skeleton = json.dumps(tree, sort_keys=True, separators=(",", ":"))
    return b"".join([skeleton.encode("utf-8"), b"\n", *chunks])


def unpack(data: bytes) -> Any:
    """Rebuild the result :func:`pack` wrote.

    Every array is copied out of ``data``, so the result owns fresh,
    writable buffers. Raises :class:`FleetError` when the array lengths
    the skeleton names disagree with the bytes after it; a malformed
    skeleton raises whatever parsing or :func:`decode` raises.
    """
    skeleton, newline, tail = data.partition(b"\n")
    if not newline:
        raise FleetError("packed payload has no skeleton line")
    tree = json.loads(skeleton)
    view = memoryview(tail)
    offset = 0
    for leaf in _array_leaves(tree):
        count = leaf.pop("n")
        if type(count) is not int or count < 0:
            raise FleetError(f"bad packed array length {count!r}")
        end = offset + count * _FLOAT64_LE.itemsize
        if end > len(view):
            raise FleetError("packed payload is shorter than its arrays")
        chunk = np.frombuffer(view[offset:end], dtype=_FLOAT64_LE)
        leaf["values"] = chunk.astype(float)  # a copy: fresh and writable
        offset = end
    if offset != len(view):
        raise FleetError("packed payload has bytes after its last array")
    return decode(tree)
