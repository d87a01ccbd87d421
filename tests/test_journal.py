"""Append-only journal: durability, replay, and recovery behavior."""

import json

import pytest

from samforge.errors import JournalCorrupt
from samforge.journal import Journal


def test_append_assigns_dense_sequence(tmp_path):
    journal = Journal(tmp_path / "j")
    assert journal.append("A", {"x": 1}) == 1
    assert journal.append("B", {"x": 2}) == 2
    assert journal.last_seq == 2
    journal.close()


def test_replay_returns_entries_in_order(tmp_path):
    path = tmp_path / "j"
    journal = Journal(path)
    for i in range(5):
        journal.append("Op", {"i": i}, at=float(i))
    journal.close()

    replayed = Journal(path)
    entries = replayed.entries()
    assert [e["seq"] for e in entries] == [1, 2, 3, 4, 5]
    assert [e["payload"]["i"] for e in entries] == [0, 1, 2, 3, 4]
    assert [e["at"] for e in entries] == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert replayed.last_seq == 5
    replayed.close()


def test_bytes_are_on_disk_when_append_returns(tmp_path):
    path = tmp_path / "j"
    journal = Journal(path)
    journal.append("Op", {"k": "v"})
    # read through a second handle without closing the first
    lines = path.read_bytes().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["payload"] == {"k": "v"}
    journal.close()


def test_torn_tail_is_discarded_and_truncated(tmp_path):
    path = tmp_path / "j"
    journal = Journal(path)
    journal.append("Op", {"i": 1})
    journal.append("Op", {"i": 2})
    journal.close()
    good = path.read_bytes()
    path.write_bytes(good + b'{"seq": 3, "kind": "Op", "pay')  # crash mid-write

    recovered = Journal(path)
    assert recovered.last_seq == 2
    assert recovered.append("Op", {"i": 3}) == 3
    recovered.close()

    # the torn bytes are gone for good; a third open sees a clean file
    final = Journal(path)
    assert [e["payload"]["i"] for e in final.entries()] == [1, 2, 3]
    final.close()


def test_malformed_final_line_with_newline_raises(tmp_path):
    # a complete line that does not parse is damage, not a crash mid-write
    path = tmp_path / "j"
    journal = Journal(path)
    journal.append("Op", {"i": 1})
    journal.close()
    damaged = path.read_bytes() + b"garbage not json\n"
    path.write_bytes(damaged)

    with pytest.raises(JournalCorrupt):
        Journal(path)
    assert path.read_bytes() == damaged  # nothing truncated away


def test_final_line_of_nul_blocks_is_a_torn_tail(tmp_path):
    # a crash can leave allocated but unwritten blocks, which read as zeros
    path = tmp_path / "j"
    journal = Journal(path)
    journal.append("Op", {"i": 1})
    journal.close()
    good = path.read_bytes()
    path.write_bytes(good + b'{"seq": 2, "kind"' + b"\0" * 64 + b"\n")

    recovered = Journal(path)
    assert recovered.last_seq == 1
    assert recovered.append("Op", {"i": 2}) == 2
    recovered.close()

    final = Journal(path)
    assert [e["payload"]["i"] for e in final.entries()] == [1, 2]
    final.close()


def test_corrupt_middle_line_raises(tmp_path):
    path = tmp_path / "j"
    journal = Journal(path)
    journal.append("Op", {"i": 1})
    journal.append("Op", {"i": 2})
    journal.close()
    lines = path.read_bytes().splitlines(keepends=True)
    lines[0] = b"garbage not json\n"
    path.write_bytes(b"".join(lines))

    with pytest.raises(JournalCorrupt):
        Journal(path)


def test_sequence_gap_raises(tmp_path):
    path = tmp_path / "j"
    journal = Journal(path)
    journal.append("Op", {"i": 1})
    journal.append("Op", {"i": 2})
    journal.append("Op", {"i": 3})
    journal.close()
    lines = path.read_bytes().splitlines(keepends=True)
    del lines[1]
    path.write_bytes(b"".join(lines))

    with pytest.raises(JournalCorrupt):
        Journal(path)


def test_append_after_replay_continues_the_sequence(tmp_path):
    path = tmp_path / "j"
    first = Journal(path)
    first.append("Op", {})
    first.close()
    second = Journal(path)
    assert second.append("Op", {}) == 2
    second.close()


def test_missing_file_starts_empty(tmp_path):
    journal = Journal(tmp_path / "fresh" / "j")
    assert journal.last_seq == 0
    assert journal.entries() == []
    journal.close()
