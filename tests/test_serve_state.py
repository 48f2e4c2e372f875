"""Tests for crash-safe serve state (:mod:`repro.serve.state`)."""

from __future__ import annotations

import json

import pytest

from repro.errors import ServeError
from repro.serve.state import ServeState


@pytest.fixture(autouse=True)
def _hard_timeout(hard_timeout):
    yield


def make_state(tmp_path, signature="sig-a", fsync=False):
    return ServeState(tmp_path / "state", signature, fsync=fsync)


def test_fresh_directory_loads_empty(tmp_path):
    state = make_state(tmp_path)
    recovered = state.load()
    assert recovered.empty
    assert recovered.last_seq == 0


def test_append_load_roundtrip(tmp_path):
    state = make_state(tmp_path)
    state.load()
    state.open_append()
    assert state.append({"kind": "register", "tick": 0, "spec": {}}) == 1
    assert state.append({"kind": "tick", "tick": 0, "digest": "d"}) == 2
    state.close()

    fresh = make_state(tmp_path)
    recovered = fresh.load()
    assert [record["kind"] for record in recovered.records] == [
        "register",
        "tick",
    ]
    assert recovered.last_seq == 2
    assert fresh.seq == 2  # appends continue the sequence


def test_torn_tail_is_dropped_and_reported(tmp_path):
    state = make_state(tmp_path)
    state.load()
    state.open_append()
    state.append({"kind": "tick", "tick": 0, "digest": "d"})
    state.close()
    with open(state.journal_path, "a", encoding="utf-8") as handle:
        handle.write('{"seq": 2, "kind": "tick", "ti')  # SIGKILL mid-write

    recovered = make_state(tmp_path).load()
    assert recovered.dropped_torn_tail
    assert len(recovered.records) == 1
    assert recovered.last_seq == 1


def test_reopen_removes_torn_tail_before_appending(tmp_path):
    state = make_state(tmp_path)
    state.load()
    state.open_append()
    state.append({"kind": "tick", "tick": 0, "digest": "d"})
    state.close()
    with open(state.journal_path, "a", encoding="utf-8") as handle:
        handle.write('{"seq": 2, "kind": "tick", "ti')  # SIGKILL mid-write

    reopened = make_state(tmp_path)
    assert reopened.load().dropped_torn_tail
    reopened.open_append()
    assert reopened.append({"kind": "tick", "tick": 1, "digest": "e"}) == 2
    reopened.close()

    recovered = make_state(tmp_path).load()
    assert not recovered.dropped_torn_tail
    assert [record["digest"] for record in recovered.records] == ["d", "e"]


def test_snapshot_merges_previous_snapshot_and_journal(tmp_path):
    state = make_state(tmp_path)
    state.load()
    state.open_append()
    state.append({"kind": "tick", "tick": 0, "digest": "a"})
    state.snapshot(1)
    state.append({"kind": "tick", "tick": 1, "digest": "b"})
    state.snapshot(2)
    state.close()

    snapshot = json.loads(state.snapshot_path.read_text())
    assert [record["seq"] for record in snapshot["records"]] == [1, 2]
    assert snapshot["seq"] == 2
    assert snapshot["tick"] == 2


def test_mid_file_corruption_raises(tmp_path):
    state = make_state(tmp_path)
    state.load()
    state.open_append()
    state.append({"kind": "tick", "tick": 0, "digest": "d"})
    state.close()
    lines = state.journal_path.read_text().splitlines()
    lines.insert(1, "garbage not json")  # before a valid record
    state.journal_path.write_text("\n".join(lines) + "\n")

    with pytest.raises(ServeError, match="corrupt journal record"):
        make_state(tmp_path).load()


def test_signature_mismatch_refuses_resume(tmp_path):
    state = make_state(tmp_path, signature="sig-a")
    state.load()
    state.open_append()
    state.append({"kind": "tick", "tick": 0, "digest": "d"})
    state.close()
    with pytest.raises(ServeError, match="refusing to replay"):
        make_state(tmp_path, signature="sig-b").load()


def test_snapshot_compacts_and_replay_deduplicates(tmp_path):
    state = make_state(tmp_path)
    state.load()
    state.open_append()
    for tick in range(3):
        state.append({"kind": "tick", "tick": tick, "digest": f"d{tick}"})
    state.snapshot(3)
    # Post-compaction: the journal is a bare header again.
    assert len(state.journal_path.read_text().splitlines()) == 1
    seq = state.append({"kind": "tick", "tick": 3, "digest": "d3"})
    assert seq == 4
    state.close()

    recovered = make_state(tmp_path).load()
    assert [record["seq"] for record in recovered.records] == [1, 2, 3, 4]
    assert recovered.snapshot_tick == 3


def test_replay_skips_journal_records_already_in_snapshot(tmp_path):
    # A crash between snapshot replace and journal truncation leaves
    # both holding the same records; seq-dedupe must drop the copies.
    state = make_state(tmp_path)
    state.load()
    state.open_append()
    for tick in range(2):
        state.append({"kind": "tick", "tick": tick, "digest": f"d{tick}"})
    journal_with_records = state.journal_path.read_text()
    state.snapshot(2)
    state.close()
    # Undo the truncation, simulating a crash mid-compaction.
    state.journal_path.write_text(journal_with_records)

    recovered = make_state(tmp_path).load()
    assert [record["seq"] for record in recovered.records] == [1, 2]


def test_sequence_regression_raises(tmp_path):
    state = make_state(tmp_path)
    state.load()
    state.open_append()
    state.append({"kind": "tick", "tick": 0, "digest": "a"})
    state.append({"kind": "tick", "tick": 1, "digest": "b"})
    state.close()
    lines = state.journal_path.read_text().splitlines()
    lines.append(json.dumps({"seq": 2, "kind": "tick", "tick": 2}))
    lines.append(json.dumps({"seq": 9, "kind": "tick", "tick": 3}))
    state.journal_path.write_text("\n".join(lines) + "\n")

    with pytest.raises(ServeError, match="sequence regressed"):
        make_state(tmp_path).load()


def test_unreadable_snapshot_raises(tmp_path):
    state = make_state(tmp_path)
    state.snapshot_path.write_text("{not json")
    with pytest.raises(ServeError, match="unreadable snapshot"):
        state.load()


def test_append_requires_open(tmp_path):
    state = make_state(tmp_path)
    with pytest.raises(ServeError, match="journal not open"):
        state.append({"kind": "tick"})
