"""Deterministic cache keys for the content-addressed result store.

A cache key must change whenever *anything* that can change the result
changes, and must not change otherwise. Three layers guarantee that:

1. :func:`content_signature` reduces an input value to JSON-native data
   by structural recursion. Dataclasses are signed field-by-field via
   :func:`dataclasses.fields`, so adding a field to ``CaasperConfig`` or
   ``SimulatorConfig`` automatically widens the key — the class of
   stale-result bugs where a new knob is forgotten in the key simply
   cannot occur (and a perturbation test audits this per field).
2. :func:`store_key` wraps the signature with a ``kind`` namespace and
   hashes the canonical JSON (same ``sort_keys`` + compact separators
   discipline as :func:`repro.fleet.codec.canonical_json`) to a full
   sha256 hex digest.
3. :data:`STORE_EPOCH` is baked into every key. Bump it whenever
   simulation *semantics* change (a bug fix that alters results, a
   metrics redefinition): every old key becomes unreachable at once, so
   a stale cache can never resurrect pre-fix results.

Keys are derived from *inputs only* — a trace's raw sample bytes, a
frozen config's fields — never from Python ``hash()`` (salted per
process) or object identity, so they are stable across processes,
machines and ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from enum import Enum
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from ..errors import StoreError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..baselines.base import Recommender
    from ..core.config import CaasperConfig
    from ..sim.simulator import SimulatorConfig
    from ..trace import CpuTrace

__all__ = [
    "STORE_EPOCH",
    "content_signature",
    "store_key",
    "simulate_key",
    "trial_key",
    "chaos_key",
]

#: Version of the simulation semantics the store caches. Bump on any
#: change that alters what a simulation returns for identical inputs;
#: every previously written blob becomes unreachable (a later ``gc``
#: reclaims the bytes). A change to the blob layout that old readers
#: reject as corrupt needs no bump: such a blob is a miss, and the slot
#: heals when the result is rewritten.
STORE_EPOCH = 1

_SIG = "__sig__"


def content_signature(value: Any) -> Any:
    """Reduce ``value`` to canonical JSON-native data for key hashing.

    Structural and total over the input vocabulary of the batch entry
    points: scalars, numpy arrays, enums, (frozen) dataclasses, mappings
    and sequences. Anything else — a live object, a closure, a custom
    forecaster instance — raises :class:`~repro.errors.StoreError`:
    an input that cannot be signed must not be cached.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value  # exact: canonical JSON round-trips IEEE doubles
    if isinstance(value, Enum):
        return {
            _SIG: "enum",
            "type": f"{type(value).__module__}.{type(value).__qualname__}",
            "value": content_signature(value.value),
        }
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.ndarray):
        return {
            _SIG: "ndarray",
            "sha256": hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest(),
            "shape": [int(n) for n in value.shape],
            "dtype": str(value.dtype),
        }
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            _SIG: "dataclass",
            "type": f"{type(value).__module__}.{type(value).__qualname__}",
            "fields": {
                f.name: content_signature(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, Mapping):
        return {
            _SIG: "mapping",
            "items": {str(key): content_signature(item) for key, item in value.items()},
        }
    if isinstance(value, (list, tuple)):
        return [content_signature(item) for item in value]
    raise StoreError(
        f"cannot derive a content signature for {type(value).__name__}; "
        "only scalars, enums, numpy arrays, dataclasses, mappings and "
        "sequences participate in cache keys"
    )


def store_key(kind: str, payload: Any) -> str:
    """Full sha256 hex key for ``payload`` under the ``kind`` namespace.

    The hash covers ``(STORE_EPOCH, kind, content_signature(payload))``
    serialised with the canonical-JSON discipline (sorted keys, compact
    separators), so equal inputs key identically across processes and a
    :data:`STORE_EPOCH` bump invalidates everything.
    """
    body = json.dumps(
        {
            "epoch": STORE_EPOCH,
            "kind": kind,
            "payload": content_signature(payload),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def simulate_key(
    trace: "CpuTrace",
    recommender: "Recommender",
    config: "SimulatorConfig",
) -> str | None:
    """Cache key for one :func:`~repro.sim.simulator.simulate_trace` run.

    Returns ``None`` when the recommender cannot describe itself as
    content (``store_payload()`` returned ``None`` — e.g. a
    hand-constructed forecaster instance): an unsignable input is
    simply uncacheable, and callers fall through to recomputation.
    """
    payload = recommender.store_payload()
    if payload is None:
        return None
    return store_key(
        "simulate",
        {"trace": trace, "recommender": payload, "simulator": config},
    )


def trial_key(
    config: "CaasperConfig",
    demand: "CpuTrace",
    simulator: "SimulatorConfig",
) -> str:
    """Cache key for one tuning trial (config × demand × simulator)."""
    return store_key(
        "trial",
        {"config": config, "trace": demand, "simulator": simulator},
    )


def chaos_key(
    trace: "CpuTrace",
    scenario: str,
    recommender_config: "CaasperConfig",
    seed: int,
) -> str:
    """Cache key for one chaos run.

    Unlike simulate/trial results, a chaos result depends on the derived
    fault seed (the scenario's RNG), so the seed is part of the key —
    the same job under a different plan seed is a different result.
    """
    return store_key(
        "chaos",
        {
            "trace": trace,
            "scenario": scenario,
            "config": recommender_config,
            "seed": int(seed),
        },
    )
