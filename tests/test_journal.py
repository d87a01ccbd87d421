"""Append-only journal: durability, replay, and recovery behavior."""

import json
import tracemalloc

import pytest

from samforge.errors import JournalCorrupt
from samforge.journal import Journal

MiB = 1 << 20


def ignore(kind, payload):
    pass


class Recorder:
    """An apply callback that keeps what it was handed, in order."""

    def __init__(self):
        self.applied = []

    def __call__(self, kind, payload):
        self.applied.append((kind, payload))


def file_entries(path):
    return [json.loads(line) for line in path.read_bytes().splitlines()]


def test_append_assigns_dense_sequence(tmp_path):
    journal = Journal(tmp_path / "j", ignore)
    assert journal.append("A", {"x": 1}) == 1
    assert journal.append("B", {"x": 2}) == 2
    assert journal.last_seq == 2
    journal.close()


def test_replay_returns_entries_in_order(tmp_path):
    path = tmp_path / "j"
    journal = Journal(path, ignore)
    for i in range(5):
        journal.append("Op", {"i": i})
    journal.close()

    recorder = Recorder()
    replayed = Journal(path, recorder)
    assert recorder.applied == [("Op", {"i": i}) for i in range(5)]
    entries = file_entries(path)
    assert [e["seq"] for e in entries] == [1, 2, 3, 4, 5]
    stamps = [e["at"] for e in entries]
    assert stamps == sorted(stamps)  # stamped at append, so never decreasing
    assert replayed.last_seq == 5
    replayed.close()


def test_commit_appends_then_applies(tmp_path):
    path = tmp_path / "j"
    seen_on_disk = []

    def apply(kind, payload):
        seen_on_disk.append(len(path.read_bytes().splitlines()))

    journal = Journal(path, apply)
    journal.commit("Op", {"i": 1})
    journal.commit("Op", {"i": 2})
    assert seen_on_disk == [1, 2]  # each entry was durable before it was applied
    assert journal.last_seq == 2
    journal.close()
    assert [e["payload"] for e in file_entries(path)] == [{"i": 1}, {"i": 2}]


def test_bytes_are_on_disk_when_append_returns(tmp_path):
    path = tmp_path / "j"
    journal = Journal(path, ignore)
    journal.append("Op", {"k": "v"})
    # read through a second handle without closing the first
    lines = path.read_bytes().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["payload"] == {"k": "v"}
    journal.close()


def test_torn_tail_is_discarded_and_truncated(tmp_path):
    path = tmp_path / "j"
    journal = Journal(path, ignore)
    journal.append("Op", {"i": 1})
    journal.append("Op", {"i": 2})
    journal.close()
    good = path.read_bytes()
    path.write_bytes(good + b'{"seq": 3, "kind": "Op", "pay')  # crash mid-write

    recovered = Journal(path, ignore)
    assert recovered.last_seq == 2
    assert recovered.append("Op", {"i": 3}) == 3
    recovered.close()

    # the torn bytes are gone for good; a third open sees a clean file
    recorder = Recorder()
    final = Journal(path, recorder)
    assert [payload["i"] for _kind, payload in recorder.applied] == [1, 2, 3]
    final.close()


def test_malformed_final_line_with_newline_raises(tmp_path):
    # a complete line that does not parse is damage, not a crash mid-write
    path = tmp_path / "j"
    journal = Journal(path, ignore)
    journal.append("Op", {"i": 1})
    journal.close()
    damaged = path.read_bytes() + b"garbage not json\n"
    path.write_bytes(damaged)

    with pytest.raises(JournalCorrupt):
        Journal(path, ignore)
    assert path.read_bytes() == damaged  # nothing truncated away


def test_final_line_of_nul_blocks_is_a_torn_tail(tmp_path):
    # a crash can leave allocated but unwritten blocks, which read as zeros
    path = tmp_path / "j"
    journal = Journal(path, ignore)
    journal.append("Op", {"i": 1})
    journal.close()
    good = path.read_bytes()
    path.write_bytes(good + b'{"seq": 2, "kind"' + b"\0" * 64 + b"\n")

    recovered = Journal(path, ignore)
    assert recovered.last_seq == 1
    assert recovered.append("Op", {"i": 2}) == 2
    recovered.close()

    recorder = Recorder()
    final = Journal(path, recorder)
    assert [payload["i"] for _kind, payload in recorder.applied] == [1, 2]
    final.close()


def test_corrupt_middle_line_raises(tmp_path):
    path = tmp_path / "j"
    journal = Journal(path, ignore)
    journal.append("Op", {"i": 1})
    journal.append("Op", {"i": 2})
    journal.close()
    lines = path.read_bytes().splitlines(keepends=True)
    lines[0] = b"garbage not json\n"
    path.write_bytes(b"".join(lines))

    with pytest.raises(JournalCorrupt):
        Journal(path, ignore)


def test_sequence_gap_raises(tmp_path):
    path = tmp_path / "j"
    journal = Journal(path, ignore)
    journal.append("Op", {"i": 1})
    journal.append("Op", {"i": 2})
    journal.append("Op", {"i": 3})
    journal.close()
    lines = path.read_bytes().splitlines(keepends=True)
    del lines[1]
    path.write_bytes(b"".join(lines))

    with pytest.raises(JournalCorrupt):
        Journal(path, ignore)


def test_append_after_replay_continues_the_sequence(tmp_path):
    path = tmp_path / "j"
    first = Journal(path, ignore)
    first.append("Op", {})
    first.close()
    second = Journal(path, ignore)
    assert second.append("Op", {}) == 2
    second.close()


def test_missing_file_starts_empty(tmp_path):
    recorder = Recorder()
    journal = Journal(tmp_path / "fresh" / "j", recorder)
    assert journal.last_seq == 0
    assert recorder.applied == []
    journal.close()


def test_replay_memory_does_not_grow_with_journal_length(tmp_path):
    # 20 000 location-sized entries, about 3.6 MiB on disk, written directly
    # rather than through 20 000 fsyncs
    path = tmp_path / "j"
    with open(path, "w") as fh:
        for seq in range(1, 20_001):
            payload = {"file_id": seq, "endpoint_name": "cdfa-1",
                       "path_or_volume": f"/state/cdfa-1/files/bphy0412_fs0007_{seq:06d}.raw",
                       "verified_at": None}
            fh.write(json.dumps({"seq": seq, "kind": "AddLocation", "payload": payload,
                                 "at": 1700000000.0 + seq}, separators=(",", ":")) + "\n")
    assert path.stat().st_size > 2 * MiB

    tracemalloc.start()
    try:
        journal = Journal(path, ignore)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert journal.last_seq == 20_000
    journal.close()
    assert peak < 1 * MiB
