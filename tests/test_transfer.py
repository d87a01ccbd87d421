"""The pull path against a store's and a station's address, and deterministic fault injection."""

import socket
import sys
import time

import pytest

from samforge.errors import SourceUnavailable
from samforge.store import StoreDataHandler
from samforge.transfer import FaultInjector, PullPool, crc32_bytes, crc32_file, transfer_with
from samforge.wire import Server, format_addr, parse_addr

from conftest import record_ops, run_threads


def pull_once(addr, request_line, dest, faults=None):
    """One pull on a connection of its own: through a pool made and closed for it."""
    pool = PullPool()
    try:
        return transfer_with(addr, request_line, dest, faults, pool)
    finally:
        pool.close()


def stored(rig, data=b"payload bytes"):
    """Put data on a store as a.raw; returns pull(dest, faults=None) for it."""
    rig.add_store("stken-sim", {"cdfa-1": "read_only", "seeder": "read_write"})
    rig.seed_file("a.raw", data, stores=["stken-sim"])
    addr = rig.store_addr["stken-sim"]

    def pull(dest, faults=None):
        return pull_once(addr, "FETCH cdfa-1 a.raw", dest, faults)
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
        pull_once(rig.store_addr["stken-sim"], "FETCH cdfa-1 nope.raw", dest)
    with pytest.raises(SourceUnavailable):  # nothing listens on port 1
        pull_once("127.0.0.1:1", "FETCH nope.raw", dest)
    assert not dest.exists()


def test_a_station_fetch_of_a_path_tells_nothing_of_the_host(rig, tmp_path, monkeypatch):
    # the station's upload buffer joined with an absolute name is that name, so
    # a path that is no file name must be refused before the disk is looked at
    rig.add_store("stken-sim", {"cdfa-1": "read_only", "seeder": "read_write"})
    station = rig.add_station("cdfa-1", [("stken-sim", "read_only", 4)], served=True)
    rig.seed_file("f", b"x", stores=["stken-sim"])
    station.fetch_file("f")
    there = tmp_path / "there"
    there.write_bytes(b"host file")
    ops = record_ops(rig.catalog_service, monkeypatch)
    addr = parse_addr(rig.station_addr["cdfa-1"])
    answers = []
    for name in (str(there), str(tmp_path / "absent"), "../files/f"):
        with socket.create_connection(addr, timeout=10) as sock, sock.makefile("rb") as answer:
            sock.sendall(f"FETCH {name}\n".encode())
            answers.append(answer.readline().decode().replace(name, "<name>"))
    assert answers == ["ERR NOT_FOUND <name> not resident on cdfa-1\n"] * 3
    assert ops == []


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


# -- kept-open pull connections ----------------------------------------------

def count_accepts(monkeypatch) -> list[str]:
    """The address of the server behind each connection accepted from now on."""
    accepted = []
    process_request = Server.process_request

    def counting(server, request, client_address):
        accepted.append(format_addr(server.bound_addr))
        process_request(server, request, client_address)

    monkeypatch.setattr(Server, "process_request", counting)
    return accepted


def server_of(rig, store) -> Server:
    [server] = [s for s in rig._servers if format_addr(s.bound_addr) == rig.store_addr[store]]
    return server


def station_over_store(rig, files):
    """Station cdfa-1 pulling from store stken-sim, which holds files f0.raw, f1.raw, ..."""
    rig.add_store("stken-sim", {"cdfa-1": "read_only", "seeder": "read_write"})
    station = rig.add_station("cdfa-1", [("stken-sim", "read_only", 4)])
    for i in range(files):
        rig.seed_file(f"f{i}.raw", bytes([i]) * 100, stores=["stken-sim"])
    return station


def test_ten_misses_open_one_connection_to_the_store(rig, monkeypatch):
    station = station_over_store(rig, 10)
    accepted = count_accepts(monkeypatch)
    for i in range(10):
        station.fetch_file(f"f{i}.raw")
    assert accepted.count(rig.store_addr["stken-sim"]) == 1
    assert station.counters["transfers_ok"] == 10


def test_a_pull_after_the_store_restarts_is_sent_again_on_a_new_connection(rig, monkeypatch):
    station = station_over_store(rig, 4)
    faults = station.inject_faults("stken-sim", seed=1, corrupt_every_nth=1000)
    accepted = count_accepts(monkeypatch)
    station.fetch_file("f0.raw")
    station.fetch_file("f1.raw")
    server_of(rig, "stken-sim").close()  # cuts the kept-open connection
    addr = rig.store_addr["stken-sim"]
    rig._servers.append(Server(StoreDataHandler, rig.stores["stken-sim"], addr).start())
    station.fetch_file("f2.raw")  # the idle connection answers nothing: one more try
    station.fetch_file("f3.raw")
    assert accepted.count(addr) == 2  # one per life of the store's server
    assert station.counters["retries"] == 0
    assert (faults.calls, faults.corrupted) == (4, 0)


def test_kept_open_pulls_wait_for_no_delayed_ack(rig, tmp_path, monkeypatch):
    # a frame is two writes; with Nagle's algorithm the body waits for the
    # header's ACK, which the puller delays by up to 40 ms
    data = bytes(range(256)) * 4
    rig.add_store("stken-sim", {"cdfa-1": "read_only", "seeder": "read_write"})
    rig.seed_file("a.raw", data, stores=["stken-sim"])
    addr = rig.store_addr["stken-sim"]
    accepted = count_accepts(monkeypatch)
    pool = PullPool()
    started = time.monotonic()
    try:
        for _ in range(50):
            outcome = transfer_with(addr, "FETCH cdfa-1 a.raw", tmp_path / "a.raw", None, pool)
            assert outcome.computed_crc32 == crc32_bytes(data)
    finally:
        pool.close()
    assert time.monotonic() - started < 1
    assert accepted == [addr]


def test_an_err_answer_closes_the_pull_connection(rig, tmp_path, monkeypatch):
    pull = stored(rig)
    addr = rig.store_addr["stken-sim"]
    accepted = count_accepts(monkeypatch)
    pool = PullPool()
    try:
        transfer_with(addr, "FETCH cdfa-1 a.raw", tmp_path / "a", None, pool)
        with pytest.raises(SourceUnavailable, match="NOT_FOUND"):
            transfer_with(addr, "FETCH cdfa-1 nope.raw", tmp_path / "b", None, pool)
        transfer_with(addr, "FETCH cdfa-1 a.raw", tmp_path / "c", None, pool)
    finally:
        pool.close()
    assert accepted == [addr, addr]
    pull(tmp_path / "d")  # another pool's pull opens its own connection
    assert accepted == [addr] * 3


def test_station_close_leaves_no_pull_connection_open(rig):
    station = station_over_store(rig, 4)
    run_threads(4, lambda i: station.fetch_file(f"f{i}.raw"))
    server = server_of(rig, "stken-sim")
    assert server._conns
    station.close()
    deadline = time.monotonic() + 1
    while server._conns and time.monotonic() < deadline:  # the store sees each end of file
        time.sleep(0.01)
    assert not server._conns
