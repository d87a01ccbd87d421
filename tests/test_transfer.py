"""The pull path against a store's data port, and deterministic fault injection."""

import sys

import pytest

from samforge.errors import SourceUnavailable
from samforge.transfer import FaultInjector, crc32_bytes, crc32_file, transfer_with

from conftest import run_threads


def stored(rig, data=b"payload bytes"):
    """Put data on a store as a.raw; returns pull(dest, faults=None) for it."""
    rig.add_store("stken-sim", {"cdfa-1": "read_only", "seeder": "read_write"})
    rig.seed_file("a.raw", data, stores=["stken-sim"])
    addr = rig.store_data["stken-sim"]

    def pull(dest, faults=None):
        return transfer_with(addr, "FETCH cdfa-1 a.raw", dest, faults)
    return pull


def test_pull_creates_parent_and_measures(rig, tmp_path):
    data = b"payload bytes"
    pull = stored(rig, data)
    dest = tmp_path / "out" / "a.raw"  # parent does not exist yet
    outcome = pull(dest)
    assert dest.read_bytes() == data
    assert outcome.bytes_moved == len(data)
    assert outcome.computed_crc32 == crc32_bytes(data)


def test_pull_missing_source(rig, tmp_path):
    stored(rig)
    dest = tmp_path / "out"
    with pytest.raises(SourceUnavailable):  # the store answers ERR NOT_FOUND
        transfer_with(rig.store_data["stken-sim"], "FETCH cdfa-1 nope.raw", dest)
    with pytest.raises(SourceUnavailable):  # nothing listens on port 1
        transfer_with("127.0.0.1:1", "FETCH nope.raw", dest)
    assert not dest.exists()


def test_fault_injection_every_call(rig, tmp_path):
    data = b"payload bytes"
    pull = stored(rig, data)
    faults = FaultInjector(seed=1, corrupt_every_nth=1)
    for i in range(1, 4):
        dest = tmp_path / f"d{i}"
        pull(dest, faults)
        assert dest.read_bytes() != data
        assert len(dest.read_bytes()) == len(data)  # one byte flipped, none lost
    assert faults.calls == 3
    assert faults.corrupted == 3


def test_fault_injection_exact_indices(rig, tmp_path):
    data = b"payload bytes"
    pull = stored(rig, data)
    faults = FaultInjector(seed=1, corrupt_every_nth=3)
    corrupted_calls = []
    for i in range(1, 10):
        dest = tmp_path / f"d{i}"
        outcome = pull(dest, faults)
        assert outcome.computed_crc32 == crc32_file(dest)  # the CRC after any flip
        if dest.read_bytes() != data:
            corrupted_calls.append(i)
    assert corrupted_calls == [3, 6, 9]
    assert faults.calls == 9
    assert faults.corrupted == 3


def test_fault_injection_is_deterministic(rig, tmp_path):
    pull = stored(rig, bytes(range(256)))
    outputs = []
    for run in range(2):
        faults = FaultInjector(seed=99, corrupt_every_nth=2)
        run_outputs = []
        for i in range(6):
            dest = tmp_path / f"run{run}-{i}"
            pull(dest, faults)
            run_outputs.append(dest.read_bytes())
        outputs.append(run_outputs)
    assert outputs[0] == outputs[1]


def test_fault_injection_flips_exactly_one_byte(rig, tmp_path):
    data = bytes(range(256))
    pull = stored(rig, data)
    dest = tmp_path / "d"
    pull(dest, FaultInjector(seed=5, corrupt_every_nth=1))
    got = dest.read_bytes()
    diffs = [i for i, (a, b) in enumerate(zip(data, got)) if a != b]
    assert len(diffs) == 1
    assert got[diffs[0]] == data[diffs[0]] ^ 0xFF


def test_fault_injection_skips_empty_files(rig, tmp_path):
    pull = stored(rig, b"")
    faults = FaultInjector(seed=1, corrupt_every_nth=1)
    dest = tmp_path / "d"
    pull(dest, faults)
    assert dest.read_bytes() == b""
    assert faults.calls == 1
    assert faults.corrupted == 0


def test_fault_injection_counts_concurrent_pulls(rig, tmp_path):
    # 8 threads with a short switch interval: a lost count would move the flips
    pull = stored(rig)
    faults = FaultInjector(seed=1, corrupt_every_nth=4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        run_threads(8, lambda i: [pull(tmp_path / f"t{i}-{j}", faults) for j in range(4)])
    finally:
        sys.setswitchinterval(interval)
    assert (faults.calls, faults.corrupted) == (32, 8)


def test_wrapper_passes_other_calls_through_untouched(rig, tmp_path):
    data = b"payload bytes"
    pull = stored(rig, data)
    faults = FaultInjector(seed=1, corrupt_every_nth=1000)
    for i in range(5):
        dest = tmp_path / f"d{i}"
        outcome = pull(dest, faults)
        assert dest.read_bytes() == data
        assert crc32_file(dest) == outcome.computed_crc32 == crc32_bytes(data)
    assert faults.corrupted == 0


def test_wrapper_validates_interval():
    with pytest.raises(ValueError):
        FaultInjector(seed=1, corrupt_every_nth=0)
