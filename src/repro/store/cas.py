"""Content-addressed on-disk store for simulation results.

Layout under the store root (``~/.cache/caasper`` by default, or any
``--store-dir``):

- ``objects/<k0k1>/<key>.json`` — one blob per cache key (the first two
  hex characters bucket the directory). Each blob is one canonical-JSON
  header line, a ``\n``, then the result payload written by
  :func:`repro.fleet.codec.pack`: the canonical JSON of the encoded
  result with its arrays left out, a ``\n``, then each array's
  little-endian float64 bytes. The header carries the ``sha256`` of
  exactly the payload bytes that follow it, the ``STORE_EPOCH`` written
  under, the result kind, and a ``provenance`` stamp (the producing
  run's trace id, the key — which *is* the config signature digest —
  and the epoch). A blob in any other layout lacks the ``sha256``
  field or fails its checksum and reads as corrupt; the older
  all-text layout named that field ``checksum``, so each layout's
  reader rejects the other's blobs.
- ``index.jsonl`` — an append-only recency log (one JSON line per
  write). It orders the size-budgeted GC and backs ``caasper store ls``;
  the blobs themselves are the ground truth, so a lost or torn index
  never loses data.

Durability and concurrency discipline (the file rules themselves are
:mod:`repro.durable`'s):

- **Atomic blobs.** A blob lands by :func:`~repro.durable.write_atomic`.
  Two processes racing on the same key both write the same
  deterministic content, so whichever ``replace`` lands last is
  indistinguishable from the other.
- **Append-only index.** Index lines are durable single-``write``
  appends (:func:`~repro.durable.append_line`). The index has many
  writers and is advisory, so its reader skips any torn or garbled
  line instead of refusing it.
- **Corruption degrades to a miss.** A blob whose header fails to
  parse, whose epoch is stale, whose checksum mismatches, or whose
  payload fails to unpack is treated as absent (and unlinked best
  effort); the caller recomputes. A damaged cache can make runs slow,
  never wrong, and never crashes them.

There is no in-memory front: every hit reads its blob, verifies the
checksum and unpacks fresh result objects, so damage on disk is seen at
once and two callers can never observe each other's mutations through
the cache.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from ..durable import append_line, write_atomic
from ..errors import StoreError
from ..fleet.codec import pack, unpack

# Unused here since ``put`` writes ``pack``'s payload; kept as a
# module-level name because ``perfbench/layers.py`` resolves its
# ``codec.encode`` hook target on this module.
from ..fleet.codec import encode  # noqa: F401
from ..obs.events import CacheEvictedEvent, CacheHitEvent, CacheMissEvent
from .keys import STORE_EPOCH

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.observer import Observer

__all__ = ["ResultStore", "StoreStats", "default_store_root"]

#: Environment override for the default store location.
STORE_DIR_ENV = "CAASPER_STORE_DIR"


def _canonical(value: Any) -> str:
    """Canonical JSON: sorted keys, compact separators, ASCII only."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _index_line(key: str, kind: str, nbytes: int) -> str:
    """One ``index.jsonl`` line, newline included."""
    return _canonical({"key": key, "kind": kind, "nbytes": nbytes}) + "\n"


def _parse_blob(data: bytes) -> tuple[dict[str, Any], Any] | None:
    """``(header, result)`` of an intact blob, else ``None``.

    Intact means the header line parses, carries the current
    ``STORE_EPOCH``, its ``sha256`` is the digest of exactly the bytes
    after the first newline, and those bytes unpack.
    """
    head, _, body = data.partition(b"\n")
    try:
        header = json.loads(head)
        if (
            header["epoch"] != STORE_EPOCH
            or header["sha256"] != sha256(body).hexdigest()
        ):
            return None
        return header, unpack(body)
    except Exception:  # lint: disable=EXC001 - torn/garbled blob is corrupt
        return None


def default_store_root() -> Path:
    """The default on-disk location: ``$CAASPER_STORE_DIR``, else
    ``$XDG_CACHE_HOME/caasper``, else ``~/.cache/caasper``."""
    env = os.environ.get(STORE_DIR_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "caasper"


@dataclass(frozen=True)
class StoreStats:
    """Counters of one store handle's lifetime (not persisted)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups, in [0, 1] (0.0 when never queried)."""
        return self.hits / self.lookups if self.lookups else 0.0


class ResultStore:
    """Disk-backed, content-addressed result cache.

    Parameters
    ----------
    root:
        Store directory (created on first write); defaults to
        :func:`default_store_root`.
    max_bytes:
        Optional size budget. When set, :meth:`gc` (called by the fleet
        runner after a run) evicts least-recently-written blobs until
        the store fits.

    Telemetry goes to the ``observer=`` each call passes. The
    ``store_bytes`` gauge an observed :meth:`put` reports is a running
    total: seeded by one scan of the store, then moved by each write's
    size change (:meth:`gc` and :meth:`clear` re-seed it). It is this
    handle's view — writes by another process are not counted.
    """

    def __init__(
        self,
        root: str | os.PathLike[str] | None = None,
        max_bytes: int | None = None,
    ) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise StoreError(f"max_bytes must be >= 0, got {max_bytes}")
        self.root = Path(root) if root is not None else default_store_root()
        self.max_bytes = max_bytes
        self._stats_hits = 0
        self._stats_misses = 0
        self._stats_puts = 0
        self._stats_evictions = 0
        #: Running blob-byte total for the gauge; ``None`` until seeded.
        self._total_bytes: int | None = None

    # -- paths -----------------------------------------------------------------

    @property
    def objects_dir(self) -> Path:
        """Directory holding the content-addressed blobs."""
        return self.root / "objects"

    @property
    def index_path(self) -> Path:
        """The append-only recency log."""
        return self.root / "index.jsonl"

    def _blob_path(self, key: str) -> Path:
        return self.objects_dir / key[:2] / f"{key}.json"

    # -- read path -------------------------------------------------------------

    def get(
        self, key: str, kind: str, observer: "Observer | None" = None
    ) -> Any | None:
        """Fetch and decode the result cached under ``key``.

        Returns ``None`` on a miss — an absent blob, or one whose header
        does not parse, whose epoch or checksum mismatches, or whose
        payload does not unpack (that file is unlinked best effort so
        the slot heals on the next write). Every hit unpacks fresh
        objects from the stored bytes; the hit event carries the blob's
        provenance stamp (producing run's trace id and store epoch) so
        cached results stay attributable.
        """
        read = self._read_blob(key)
        if isinstance(read, str):
            self._stats_misses += 1
            if observer is not None:
                observer.emit(
                    CacheMissEvent(minute=0, key=key, result_kind=kind, reason=read)
                )
            return None
        header, value = read
        provenance = header["provenance"]
        self._stats_hits += 1
        if observer is not None:
            observer.emit(
                CacheHitEvent(
                    minute=0,
                    key=key,
                    result_kind=kind,
                    producer_trace_id=str(provenance.get("trace_id", "")),
                    producer_epoch=int(provenance.get("epoch", 0)),
                )
            )
        return value

    def _read_blob(self, key: str) -> tuple[dict[str, Any], Any] | str:
        """``(header, result)`` for ``key``, else the miss reason.

        The reason is ``"absent"`` or ``"corrupt"``; a corrupt blob has
        been unlinked best effort.
        """
        path = self._blob_path(key)
        try:
            parsed = _parse_blob(path.read_bytes())
        except FileNotFoundError:
            return "absent"
        except OSError:  # lint: disable=EXC001 - unreadable blob is a miss
            parsed = None
        if parsed is None:
            try:
                path.unlink()
            except OSError:  # lint: disable=EXC001 - racing unlink is fine
                pass
            self._total_bytes = None  # re-seeded by the next observed put
            return "corrupt"
        return parsed

    # -- write path ------------------------------------------------------------

    def put(
        self,
        key: str,
        kind: str,
        value: Any,
        observer: "Observer | None" = None,
        producer_trace_id: str = "",
    ) -> int:
        """Write ``value`` under ``key`` atomically; returns blob bytes.

        The blob lands by :func:`~repro.durable.write_atomic`, then one
        fsynced index line records the write.
        Safe under concurrent writers: both produce identical content
        for the same key, so the losing ``replace`` changes nothing —
        ``producer_trace_id`` is itself derived deterministically from
        the run's inputs, keeping that invariant.

        The payload is packed once (:func:`~repro.fleet.codec.pack`),
        and the header line before it carries the sha256 of exactly
        those bytes. The header's provenance stamp (trace id, key,
        epoch) rides outside the checksum: later ``get`` calls report
        which run computed the bytes they are serving.
        """
        payload = pack(value)
        header = {
            "epoch": STORE_EPOCH,
            "kind": kind,
            "provenance": {
                "epoch": STORE_EPOCH,
                "key": key,
                "trace_id": producer_trace_id,
            },
            "sha256": sha256(payload).hexdigest(),
        }
        data = _canonical(header).encode("utf-8") + b"\n" + payload
        path = self._blob_path(key)
        replaced = 0  # bytes of the blob this write replaces, if tracked
        if self._total_bytes is not None:
            try:
                replaced = path.stat().st_size
            except FileNotFoundError:
                pass
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(path, data)
        self._append_index(key, kind, len(data))
        self._stats_puts += 1
        if self._total_bytes is not None:
            self._total_bytes += len(data) - replaced
        elif observer is not None:
            self._total_bytes = self.total_bytes()  # the one seeding scan
        if observer is not None:
            observer.store_bytes(self._total_bytes)
        return len(data)

    def _append_index(self, key: str, kind: str, nbytes: int) -> None:
        line = _index_line(key, kind, nbytes).encode("utf-8")
        self.root.mkdir(parents=True, exist_ok=True)
        append_line(self.index_path, line)

    # -- enumeration -----------------------------------------------------------

    def _blob_files(self) -> dict[str, Path]:
        """All blobs on disk, keyed by cache key (deterministic order)."""
        blobs: dict[str, Path] = {}
        if not self.objects_dir.is_dir():
            return blobs
        for bucket in sorted(self.objects_dir.iterdir()):
            if not bucket.is_dir():
                continue
            for path in sorted(bucket.glob("*.json")):
                blobs[path.stem] = path
        return blobs

    def _index_entries(self) -> list[tuple[str, str]]:
        """``(key, kind)`` pairs in recency order (oldest first).

        Re-writes of the same key keep only the newest position; torn
        or garbled lines (crash mid-append) are skipped.
        """
        try:
            raw = self.index_path.read_text(encoding="utf-8")
        except (FileNotFoundError, OSError):  # lint: disable=EXC001
            return []
        latest: OrderedDict[str, str] = OrderedDict()
        for line in raw.splitlines():
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
                key = entry["key"]
                kind = entry["kind"]
            except Exception:  # lint: disable=EXC001 - torn tail line
                continue
            if key in latest:
                del latest[key]
            latest[key] = kind
        return list(latest.items())

    def entries(self) -> list[dict[str, Any]]:
        """Live blobs as ``{"key", "kind", "nbytes"}``, oldest first.

        Orders by the index's recency log; blobs missing from the index
        (a lost index is legal) sort first with their kind read from the
        blob itself.
        """
        blobs = self._blob_files()
        indexed = [(k, kind) for k, kind in self._index_entries() if k in blobs]
        known = {k for k, _ in indexed}
        orphans = [
            (key, self._blob_kind(blobs[key]))
            for key in blobs
            if key not in known
        ]
        return [
            {"key": key, "kind": kind, "nbytes": blobs[key].stat().st_size}
            for key, kind in orphans + indexed
        ]

    def _blob_kind(self, path: Path) -> str:
        """The ``kind`` from a blob's header line (the payload is not read)."""
        try:
            with path.open("rb") as handle:
                return str(json.loads(handle.readline())["kind"])
        except Exception:  # lint: disable=EXC001 - corrupt blob
            return "unknown"

    def total_bytes(self) -> int:
        """On-disk size of all blobs (the index file is not counted)."""
        return sum(path.stat().st_size for path in self._blob_files().values())

    def __len__(self) -> int:
        return len(self._blob_files())

    def __iter__(self) -> Iterator[str]:
        return iter(self._blob_files())

    # -- maintenance -----------------------------------------------------------

    def gc(
        self, max_bytes: int | None = None, observer: "Observer | None" = None
    ) -> list[str]:
        """Evict least-recently-written blobs until the store fits.

        ``max_bytes`` overrides the configured budget; with neither set
        this is a no-op. Also compacts the index to the survivors.
        Returns the evicted keys.
        """
        budget = self.max_bytes if max_bytes is None else max_bytes
        if budget is None:
            return []
        if budget < 0:
            raise StoreError(f"max_bytes must be >= 0, got {budget}")
        entries = self.entries()
        total = sum(entry["nbytes"] for entry in entries)
        evicted: list[str] = []
        survivors = list(entries)
        while total > budget and survivors:
            entry = survivors.pop(0)
            key = entry["key"]
            try:
                self._blob_path(key).unlink()
            except OSError:  # lint: disable=EXC001 - already gone is fine
                pass
            total -= entry["nbytes"]
            evicted.append(key)
            self._stats_evictions += 1
            if observer is not None:
                observer.emit(
                    CacheEvictedEvent(
                        minute=0,
                        key=key,
                        result_kind=entry["kind"],
                        bytes=entry["nbytes"],
                        reason="gc",
                    )
                )
        if evicted:
            self._rewrite_index(survivors)
        self._total_bytes = None  # re-seeded by the next observed put
        if observer is not None:
            observer.store_bytes(self.total_bytes())
        return evicted

    def _rewrite_index(self, entries: list[dict[str, Any]]) -> None:
        """Atomically replace the index with the given entries."""
        self.root.mkdir(parents=True, exist_ok=True)
        lines = "".join(
            _index_line(e["key"], e["kind"], e["nbytes"]) for e in entries
        )
        write_atomic(self.index_path, lines.encode("utf-8"))

    def clear(self) -> int:
        """Remove every blob and reset the index; returns blobs removed."""
        blobs = self._blob_files()
        for path in blobs.values():
            try:
                path.unlink()
            except OSError:  # lint: disable=EXC001 - racing unlink is fine
                pass
        try:
            self.index_path.unlink()
        except (FileNotFoundError, OSError):  # lint: disable=EXC001
            pass
        self._total_bytes = None  # re-seeded by the next observed put
        return len(blobs)

    def verify(self) -> dict[str, Any]:
        """Check every blob's epoch, checksum and payload; report without
        mutating.

        Returns ``{"checked", "ok", "corrupt": [keys...]}``. Use
        ``caasper store verify`` for the CLI form (exit 1 on damage).
        """
        blobs = self._blob_files()
        corrupt: list[str] = []
        for key, path in blobs.items():
            try:
                parsed = _parse_blob(path.read_bytes())
            except OSError:  # lint: disable=EXC001 - unreadable blob is corrupt
                parsed = None
            if parsed is None:
                corrupt.append(key)
        return {
            "checked": len(blobs),
            "ok": len(blobs) - len(corrupt),
            "corrupt": corrupt,
        }

    # -- introspection ---------------------------------------------------------

    @property
    def stats(self) -> StoreStats:
        """This handle's lifetime hit/miss/put/eviction counters."""
        return StoreStats(
            hits=self._stats_hits,
            misses=self._stats_misses,
            puts=self._stats_puts,
            evictions=self._stats_evictions,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        budget = self.max_bytes if self.max_bytes is not None else "unbounded"
        return f"ResultStore(root={str(self.root)!r}, max_bytes={budget})"
