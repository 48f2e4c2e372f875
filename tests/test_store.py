"""CAS mechanics: atomic blobs, corruption-as-miss, GC, concurrency.

The contract under test (docs/STORE.md): a damaged or racing store may
make runs slower — a miss, a recompute — but never wrong and never
crashed. Blobs land atomically via ``os.replace``; the index is an
append-only recency log whose loss or torn tail is survivable; GC
evicts oldest-first down to a byte budget.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from hashlib import sha256

import numpy as np
import pytest

from repro.errors import StoreError
from repro.fleet.codec import canonical_json
from repro.obs import Observer
from repro.store import STORE_EPOCH, ResultStore, default_store_root, store_key


def _key(tag: str) -> str:
    return store_key("simulate", {"tag": tag})


@pytest.fixture
def store(tmp_path) -> ResultStore:
    return ResultStore(tmp_path / "cas")


def _canonical_bytes(document) -> bytes:
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode()


def _single_document(blob: bytes) -> bytes:
    """The same blob in the oldest layout: one JSON document whose
    ``payload`` field holds the result next to the header fields (the
    array-free payload's skeleton line is that result's JSON)."""
    head, _, payload = blob.partition(b"\n")
    document = json.loads(head)
    document["payload"] = json.loads(payload.partition(b"\n")[0])
    return _canonical_bytes(document)


def _text_blob(key: str, value) -> bytes:
    """``value``'s blob in the all-text layout: a header whose
    ``checksum`` covers the payload's canonical JSON."""
    payload = canonical_json(value).encode()
    header = {
        "checksum": sha256(payload).hexdigest(),
        "epoch": STORE_EPOCH,
        "kind": "simulate",
        "provenance": {"epoch": STORE_EPOCH, "key": key, "trace_id": ""},
    }
    return _canonical_bytes(header) + b"\n" + payload


def _text_layout_parse(data: bytes):
    """The all-text layout's blob parser, as it read blobs before the
    binary payload: ``(header, payload text)`` or ``None``."""
    head, _, body = data.partition(b"\n")
    try:
        header = json.loads(head)
        intact = (
            header["epoch"] == STORE_EPOCH
            and header["checksum"] == sha256(body).hexdigest()
        )
        payload_text = body.decode("utf-8")
    except Exception:
        return None
    return (header, payload_text) if intact else None


def _reseal(blob: bytes, payload: bytes) -> bytes:
    """``blob``'s header over a different payload, checksum recomputed:
    intact to the checksum, so only unpacking can reject it."""
    header = json.loads(blob.partition(b"\n")[0])
    header["sha256"] = sha256(payload).hexdigest()
    return _canonical_bytes(header) + b"\n" + payload


class TestRoundTrip:
    def test_put_get_round_trip(self, store):
        key = _key("a")
        payload = {"metrics": [1.0, 2.5], "name": "fig3"}
        nbytes = store.put(key, "simulate", payload)
        blob = store._blob_path(key).read_bytes()
        assert nbytes == len(blob)
        head, _, body = blob.partition(b"\n")
        assert json.loads(head)["sha256"] == sha256(body).hexdigest()
        assert store.get(key, "simulate") == payload

    def test_absent_key_is_a_miss(self, store):
        assert store.get(_key("missing"), "simulate") is None
        assert store.stats.misses == 1

    def test_hits_decode_fresh_objects(self, store):
        """Mutating a hit must not poison later hits (no shared state)."""
        key = _key("a")
        store.put(key, "simulate", {"values": [1, 2, 3]})
        first = store.get(key, "simulate")
        first["values"].append(99)
        assert store.get(key, "simulate") == {"values": [1, 2, 3]}

    def test_survives_reopen(self, store, tmp_path):
        key = _key("a")
        store.put(key, "simulate", {"x": 1})
        again = ResultStore(tmp_path / "cas")
        assert again.get(key, "simulate") == {"x": 1}
        assert len(again) == 1


class TestCorruption:
    """Poisoned blobs degrade to a miss — never to wrong, never to a crash."""

    def _poison(self, store, key: str, data: bytes) -> None:
        path = store._blob_path(key)
        path.write_bytes(data)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda blob: b"",  # truncated to nothing
            lambda blob: b"{\"checksum\": \"nope",  # torn JSON
            lambda blob: b"not json at all \xff\xfe",  # binary garbage
            lambda blob: blob[:-2],  # intact header, payload cut short
            _single_document,  # older layout: checksum covers an empty body
        ],
        ids=["empty", "torn", "garbage", "short-payload", "single-document"],
    )
    def test_damaged_blob_is_a_miss(self, store, damage):
        key = _key("a")
        store.put(key, "simulate", {"x": 1})
        self._poison(store, key, damage(store._blob_path(key).read_bytes()))
        assert store.get(key, "simulate") is None
        assert store.stats.misses == 1
        # The damaged file was unlinked so the slot heals on rewrite.
        assert not store._blob_path(key).exists()

    def test_checksum_mismatch_is_a_miss(self, store):
        key = _key("a")
        store.put(key, "simulate", {"x": 1})
        path = store._blob_path(key)
        blob = path.read_bytes()
        assert blob.endswith(b'{"x":1}\n')  # skeleton line, no arrays
        path.write_bytes(blob[:-3] + b"2}\n")  # tampered payload, stale checksum
        assert store.get(key, "simulate") is None

    def test_tampered_array_bytes_are_a_miss(self, store):
        key = _key("a")
        store.put(key, "simulate", {"x": np.arange(4.0)})
        path = store._blob_path(key)
        blob = path.read_bytes()
        path.write_bytes(blob[:-1] + bytes([blob[-1] ^ 1]))
        assert store.get(key, "simulate") is None

    @pytest.mark.parametrize(
        "payload",
        [
            b'{"__fleet__":"no_such_tag"}\n',  # unknown codec tag
            b'{"__fleet__":"ndarray","n":3}\n' + bytes(16),  # n past the tail
            b'{"__fleet__":"ndarray","n":1}\n' + bytes(16),  # bytes after last array
            b'{"__fleet__":"ndarray","n":-1}\n',  # negative length
            b'{"x":1}',  # no skeleton newline
        ],
        ids=["unknown-tag", "short-tail", "trailing-bytes", "negative-n", "no-newline"],
    )
    def test_intact_blob_that_fails_to_unpack_is_a_miss(self, store, payload):
        """A valid header and checksum over a payload that does not
        unpack is corrupt: a miss, unlinked, healed by the next put."""
        key = _key("a")
        store.put(key, "simulate", {"x": 1})
        self._poison(store, key, _reseal(store._blob_path(key).read_bytes(), payload))
        observer = Observer()
        assert store.get(key, "simulate", observer=observer) is None
        [miss] = observer.events_of_kind("cache_miss")
        assert miss.reason == "corrupt"
        assert not store._blob_path(key).exists()
        store.put(key, "simulate", {"x": 1})
        assert store.get(key, "simulate") == {"x": 1}

    def test_text_layout_blob_is_a_corrupt_miss_that_heals(self, store):
        key = _key("a")
        value = {"x": np.arange(3.0)}
        store.put(key, "simulate", value)
        self._poison(store, key, _text_blob(key, value))
        assert store.verify()["corrupt"] == [key]
        observer = Observer()
        assert store.get(key, "simulate", observer=observer) is None
        [miss] = observer.events_of_kind("cache_miss")
        assert miss.reason == "corrupt"
        assert not store._blob_path(key).exists()
        store.put(key, "simulate", value)
        assert canonical_json(store.get(key, "simulate")) == canonical_json(value)

    def test_text_layout_reader_rejects_binary_blob_without_raising(self, store):
        """An all-zero float64 array is valid UTF-8, so only the renamed
        ``sha256`` field keeps the text-layout reader from handing the
        binary payload to its JSON decoder."""
        key = _key("a")
        store.put(key, "simulate", {"x": np.zeros(4)})
        blob = store._blob_path(key).read_bytes()
        blob.partition(b"\n")[2].decode("utf-8")  # the trap: it does decode
        assert _text_layout_parse(blob) is None
        # The text layout's own blob is still accepted by that reader.
        assert _text_layout_parse(_text_blob(key, {"x": 1})) is not None

    def test_epoch_mismatch_is_a_miss(self, store):
        key = _key("a")
        store.put(key, "simulate", {"x": 1})
        path = store._blob_path(key)
        head, _, payload = path.read_bytes().partition(b"\n")
        header = json.loads(head)
        header["epoch"] = STORE_EPOCH + 1
        rewritten = json.dumps(header, sort_keys=True, separators=(",", ":"))
        path.write_bytes(rewritten.encode() + b"\n" + payload)
        assert store.get(key, "simulate") is None

    def test_damage_after_a_hit_is_seen_by_the_same_handle(self, store):
        """Every hit reads and checksums its blob, so damage landing
        after a hit shows on the next ``get`` through the same handle
        instead of being served from an earlier read."""
        key = _key("a")
        store.put(key, "simulate", {"x": 1})
        assert store.get(key, "simulate") == {"x": 1}
        self._poison(store, key, b"garbage")
        observer = Observer()
        assert store.get(key, "simulate", observer=observer) is None
        [miss] = observer.events_of_kind("cache_miss")
        assert miss.reason == "corrupt"
        store.put(key, "simulate", {"x": 1})
        assert store.verify()["corrupt"] == []
        assert store.get(key, "simulate") == {"x": 1}

    def test_recompute_after_corruption_heals(self, store):
        key = _key("a")
        store.put(key, "simulate", {"x": 1})
        self._poison(store, key, b"garbage")
        assert store.get(key, "simulate") is None
        store.put(key, "simulate", {"x": 1})
        assert store.get(key, "simulate") == {"x": 1}

    def test_verify_reports_corrupt_blobs(self, store):
        good, bad = _key("good"), _key("bad")
        store.put(good, "simulate", {"x": 1})
        store.put(bad, "simulate", {"x": 2})
        self._poison(store, bad, b"garbage")
        report = store.verify()
        assert report["checked"] == 2
        assert report["ok"] == 1
        assert report["corrupt"] == [bad]

    def test_torn_index_tail_is_skipped(self, store, tmp_path):
        keys = [_key(f"k{i}") for i in range(2)]
        for i, key in enumerate(keys):
            store.put(key, "simulate", {"i": i})
        with open(store.index_path, "a") as handle:
            handle.write('{"key": "half-a-li')  # crash mid-append
        again = ResultStore(tmp_path / "cas")
        assert sorted(e["key"] for e in again.entries()) == sorted(keys)
        # The index still accepts appends after the torn tail.
        extra = _key("k2")
        again.put(extra, "simulate", {"i": 2})
        assert len(again.entries()) == 3

    def test_lost_index_keeps_blobs_reachable(self, store, tmp_path):
        key = _key("a")
        store.put(key, "simulate", {"x": 1})
        store.index_path.unlink()
        again = ResultStore(tmp_path / "cas")
        assert again.get(key, "simulate") == {"x": 1}
        entries = again.entries()
        assert [e["key"] for e in entries] == [key]
        assert entries[0]["kind"] == "simulate"


class TestGc:
    def test_no_budget_is_a_noop(self, store):
        store.put(_key("a"), "simulate", {"x": 1})
        assert store.gc() == []
        assert len(store) == 1

    def test_evicts_oldest_first_down_to_budget(self, store):
        keys = [_key(f"k{i}") for i in range(3)]
        sizes = []
        for i, key in enumerate(keys):
            sizes.append(store.put(key, "simulate", {"i": i}))
        budget = sizes[1] + sizes[2]
        evicted = store.gc(max_bytes=budget)
        assert evicted == [keys[0]]
        assert store.total_bytes() <= budget
        assert store.get(keys[0], "simulate") is None
        assert store.get(keys[2], "simulate") == {"i": 2}

    def test_rewrite_refreshes_recency(self, store):
        keys = [_key(f"k{i}") for i in range(3)]
        sizes = {}
        for i, key in enumerate(keys):
            sizes[key] = store.put(key, "simulate", {"i": i})
        store.put(keys[0], "simulate", {"i": 0})  # re-put: now newest
        budget = sizes[keys[0]] + sizes[keys[2]]
        evicted = store.gc(max_bytes=budget)
        assert keys[0] not in evicted

    def test_zero_budget_empties_the_store(self, store):
        for i in range(3):
            store.put(_key(f"k{i}"), "simulate", {"i": i})
        evicted = store.gc(max_bytes=0)
        assert len(evicted) == 3
        assert len(store) == 0
        assert store.total_bytes() == 0

    def test_gc_compacts_the_index(self, store):
        for i in range(3):
            store.put(_key(f"k{i}"), "simulate", {"i": i})
        store.gc(max_bytes=0)
        assert store._index_entries() == []

    def test_negative_budget_raises(self, store):
        with pytest.raises(StoreError):
            store.gc(max_bytes=-1)
        with pytest.raises(StoreError):
            ResultStore("unused", max_bytes=-1)

    def test_clear_removes_everything(self, store):
        for i in range(3):
            store.put(_key(f"k{i}"), "simulate", {"i": i})
        assert store.clear() == 3
        assert len(store) == 0
        assert not store.index_path.exists()


class TestObservability:
    def test_hit_miss_eviction_events_and_metrics(self, tmp_path):
        observer = Observer()
        store = ResultStore(tmp_path / "cas")
        key = _key("a")
        assert store.get(key, "simulate", observer=observer) is None
        store.put(key, "simulate", {"x": 1}, observer=observer)
        assert store.get(key, "simulate", observer=observer) == {"x": 1}
        store.gc(max_bytes=0, observer=observer)

        assert len(observer.events_of_kind("cache_miss")) == 1
        hits = observer.events_of_kind("cache_hit")
        assert len(hits) == 1 and hits[0].source == "disk"
        evictions = observer.events_of_kind("cache_evicted")
        assert len(evictions) == 1 and evictions[0].bytes > 0

        snapshot = observer.metrics.snapshot()
        assert snapshot["store_hits_total"]["values"] == {'{kind="simulate"}': 1.0}
        assert snapshot["store_misses_total"]["values"] == {'{kind="simulate"}': 1.0}
        assert snapshot["store_evictions_total"]["values"] == {"": 1.0}
        assert snapshot["store_bytes"]["values"][""] == 0.0

    def test_observed_cold_sweep_scans_the_store_once(self, tmp_path, monkeypatch):
        from repro.sim.sweep import run_sweep
        from repro.trace import CpuTrace

        scans = []
        blob_files = ResultStore._blob_files

        def counting(self):
            scans.append(self.root)
            return blob_files(self)

        monkeypatch.setattr(ResultStore, "_blob_files", counting)
        traces = [
            CpuTrace.constant(1.5 + 0.25 * index, 120, f"scan-{index}")
            for index in range(8)
        ]
        observer = Observer()
        store = ResultStore(tmp_path / "cas")
        run_sweep(traces, observer=observer, store=store)
        assert store.stats.puts == 8
        assert len(scans) <= 1
        gauge = observer.metrics.snapshot()["store_bytes"]["values"][""]
        assert gauge == store.total_bytes()

    def test_store_bytes_gauge_follows_rewrites_and_clear(self, tmp_path):
        observer = Observer()
        store = ResultStore(tmp_path / "cas")

        def gauge() -> float:
            return observer.metrics.snapshot()["store_bytes"]["values"][""]

        store.put(_key("a"), "simulate", {"x": 1}, observer=observer)
        store.put(_key("b"), "simulate", {"x": 2})  # unobserved, still counted
        store.put(_key("a"), "simulate", {"x": list(range(50))}, observer=observer)
        assert gauge() == store.total_bytes()
        store.clear()
        store.put(_key("c"), "simulate", {"x": 3}, observer=observer)
        assert gauge() == store.total_bytes()


class TestDefaultRoot:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("CAASPER_STORE_DIR", str(tmp_path / "override"))
        assert default_store_root() == tmp_path / "override"

    def test_xdg_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("CAASPER_STORE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_store_root() == tmp_path / "xdg" / "caasper"


_WRITER_SCRIPT = """
import sys
from repro.store import ResultStore, store_key

root, tag, rounds = sys.argv[1], sys.argv[2], int(sys.argv[3])
store = ResultStore(root)
key = store_key("simulate", {"shared": True})
for i in range(rounds):
    store.put(key, "simulate", {"payload": list(range(50)), "shared": True})
    store.put(store_key("simulate", {"tag": tag, "i": i}), "simulate", {"i": i})
print("done")
"""


def _spawn_writer(root, tag: str, rounds: int) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.Popen(
        [sys.executable, "-c", _WRITER_SCRIPT, str(root), tag, str(rounds)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


class TestConcurrency:
    def test_two_processes_racing_on_one_key_leave_no_torn_blob(self, tmp_path):
        """Atomic-rename winner: both writers produce identical content,
        so whichever replace lands last, the blob verifies clean."""
        root = tmp_path / "cas"
        writers = [_spawn_writer(root, tag, 25) for tag in ("a", "b")]
        for writer in writers:
            out, err = writer.communicate(timeout=120)
            assert writer.returncode == 0, err.decode()
            assert out.decode().strip() == "done"
        store = ResultStore(root)
        report = store.verify()
        assert report["corrupt"] == []
        assert report["checked"] == 1 + 2 * 25  # shared key + per-writer keys
        key = store_key("simulate", {"shared": True})
        assert store.get(key, "simulate") == {
            "payload": list(range(50)),
            "shared": True,
        }

    def test_sigkill_mid_write_leaves_index_loadable(self, tmp_path):
        """Resume-after-SIGKILL: blobs are atomic and the index reader
        skips at most one torn tail line, so a killed writer never
        leaves the store unreadable."""
        root = tmp_path / "cas"
        writer = _spawn_writer(root, "victim", 500)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if (root / "index.jsonl").exists():
                break
            time.sleep(0.01)
        time.sleep(0.05)  # let some writes land, then kill mid-stream
        writer.send_signal(signal.SIGKILL)
        writer.wait(timeout=30)

        store = ResultStore(root)
        entries = store.entries()  # must not raise
        report = store.verify()
        assert report["corrupt"] == []  # atomic blobs: none half-written
        assert report["checked"] == len(entries)
        # The store still accepts reads and writes after the crash.
        key = store_key("simulate", {"post-crash": True})
        store.put(key, "simulate", {"ok": True})
        assert store.get(key, "simulate") == {"ok": True}
