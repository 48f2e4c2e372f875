"""Content-addressed result store with incremental recomputation.

Regenerating the paper's evaluation (Figures 3–14, Table 3, the §6
tuning grids) re-runs thousands of *deterministic* simulations whose
inputs rarely change between invocations. This package makes those runs
incremental: every batch entry point — ``run_sweep``,
``BatchEngine.run``, ``GridSearch.run``, ``RandomSearch.run`` and the
fleet runner — accepts a ``store=`` and short-circuits work whose inputs
it has seen before.

Three modules:

- :mod:`repro.store.keys` — deterministic cache keys: sha256 over the
  canonical JSON of ``(STORE_EPOCH, kind, content signature)``, where
  the content signature recurses structurally through traces, configs
  and fault specs (dataclass fields are enumerated reflectively, so new
  config knobs widen the key automatically).
- :mod:`repro.store.cas` — the on-disk store: atomic ``os.replace``
  blobs with per-blob checksums, an fsynced append-only index,
  corruption-degrades-to-miss semantics and size-budgeted GC. Every
  hit reads and checksums its blob; there is no in-memory front.
- :mod:`repro.store.memo` — ``memoize``, the one probe / compute the
  misses / write-back path every entry-point seam calls, and its
  one-run wrappers ``cached_simulate`` / ``cached_trial``.

The acceptance bar is byte-identity: a cache hit decodes to results
whose :func:`~repro.fleet.codec.canonical_json` equals recomputation's,
and ``store=None`` is bit-identical to not having this package at all.
See ``docs/STORE.md`` for the key model, epoch invalidation and the
``caasper store`` CLI.
"""

from __future__ import annotations

from .cas import ResultStore, StoreStats, default_store_root
from .keys import (
    STORE_EPOCH,
    chaos_key,
    content_signature,
    simulate_key,
    store_key,
    trial_key,
)
from .memo import cached_simulate, cached_trial

__all__ = [
    "STORE_EPOCH",
    "ResultStore",
    "StoreStats",
    "cached_simulate",
    "cached_trial",
    "chaos_key",
    "content_signature",
    "default_store_root",
    "simulate_key",
    "store_key",
    "trial_key",
]
