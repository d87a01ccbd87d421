"""Station cache behavior: transfers, retries, LRU, pins, routing, limits."""

import io
import json
import random
import socket
import struct
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest

from samforge.config import load_topology, serve
from samforge.errors import (
    AccessDenied,
    CacheFull,
    NoReplica,
    NotPinned,
    NotResident,
    RemoteError,
    TransferExhausted,
    ValidationError,
)
from samforge.project import ProjectServer
from samforge.query import Atom
from samforge.transfer import (
    crc32_bytes,
    crc32_file,
    put_to_store,
    send_header,
    send_request,
)
from samforge.wire import Client, parse_addr

from conftest import read_stored, run_threads

MiB = 1 << 20

STORE_ACCESS = {
    "cdfa-1": "read_only",
    "cdfa-2": "read_only",
    "fcdf-router": "read_write",
    "seeder": "read_write",
}


def simple_rig(rig, cache_capacity=10**6, slots=4):
    """One read-only-for-stations store plus one analysis station."""
    rig.add_store("stken-sim", STORE_ACCESS)
    station = rig.add_station(
        "cdfa-1", [("stken-sim", "read_only", slots)], cache_capacity=cache_capacity)
    return station


def settle_prefetches(station, timeout=10.0):
    """Wait until the station's prefetch workers have handled every queued name."""
    waiter = threading.Thread(target=station._prefetch_queue.join, daemon=True)
    waiter.start()
    waiter.join(timeout)
    assert not waiter.is_alive(), "prefetch workers did not drain their queue"


def local_file(rig, name, data):
    """A file on the station's host for store_file to upload."""
    path = rig.root / name
    path.write_bytes(data)
    return str(path)


def test_fetch_pulls_verifies_and_registers_location(rig):
    station = simple_rig(rig)
    data = b"station payload"
    rig.seed_file("a.raw", data, fileset=1, stores=["stken-sim"])

    path = station.fetch_file("a.raw")
    with open(path, "rb") as fh:
        assert fh.read() == data
    assert station.counters["transfers_ok"] == 1
    with rig.catalog_client() as catalog:
        endpoints = {loc.endpoint_name for loc in catalog.get_locations(1)}
    assert endpoints == {"stken-sim", "cdfa-1"}


def test_second_fetch_is_a_cache_hit(rig):
    station = simple_rig(rig)
    rig.seed_file("a.raw", b"x", stores=["stken-sim"])
    first = station.fetch_file("a.raw")
    second = station.fetch_file("a.raw")
    assert first == second
    assert station.counters["transfers_ok"] == 1
    assert station.counters["cache_hits"] == 1


def test_fetch_without_replica(rig):
    station = simple_rig(rig)
    rig.seed_file("lonely.raw", b"x", stores=[])  # declared, no bytes anywhere
    with pytest.raises(NoReplica):
        station.fetch_file("lonely.raw")


def test_lru_eviction_order(rig):
    # capacity 3: after a,b,c the access b,a makes c the LRU
    station = simple_rig(rig, cache_capacity=3)
    for name in ("a", "b", "c", "d", "e"):
        rig.seed_file(name, name.encode(), stores=["stken-sim"])
    station.fetch_file("a")
    station.fetch_file("b")
    station.fetch_file("c")
    station.fetch_file("b")
    station.fetch_file("a")

    station.fetch_file("d")  # evicts c
    evicted = [e["file_name"] for e in station.events if e["kind"] == "evict"]
    assert evicted == ["c"]
    station.fetch_file("e")  # evicts b (a was touched after it)
    evicted = [e["file_name"] for e in station.events if e["kind"] == "evict"]
    assert evicted == ["c", "b"]

    cached = {e["file_name"] for e in station.station_status()["cache"]["entries"]}
    assert cached == {"a", "d", "e"}


def test_a_hit_refreshes_an_entrys_place_in_the_eviction_order(rig):
    # capacity 2: a consumer hit on a, then a peer's read of b, each save
    # that file from the next eviction
    station = simple_rig(rig, cache_capacity=2)
    for name in ("a", "b", "c", "d"):
        rig.seed_file(name, b"x", stores=["stken-sim"])
    station.fetch_file("a")
    station.fetch_file("b")
    station.fetch_file("a")
    station.fetch_file("c")  # evicts b, the least recently used
    body, _, _ = station.open_for_read("a")  # a peer station pulls a
    body.close()
    station.fetch_file("d")  # evicts c
    evicted = [e["file_name"] for e in station.events if e["kind"] == "evict"]
    assert evicted == ["b", "c"]
    cache = station.station_status()["cache"]
    assert [e["file_name"] for e in cache["entries"]] == ["a", "d"]  # least recent first
    assert cache["resident_bytes"] == 2


def test_eviction_removes_catalog_location(rig):
    station = simple_rig(rig, cache_capacity=1)
    rig.seed_file("a", b"1", stores=["stken-sim"])
    rig.seed_file("b", b"2", stores=["stken-sim"])
    station.fetch_file("a")
    station.fetch_file("b")  # evicts a
    with rig.catalog_client() as catalog:
        assert {loc.endpoint_name for loc in catalog.get_locations(1)} == {"stken-sim"}
        assert {loc.endpoint_name for loc in catalog.get_locations(2)} == \
            {"stken-sim", "cdfa-1"}


def test_pinned_files_survive_pressure(rig):
    station = simple_rig(rig, cache_capacity=2)
    for name in ("p", "q", "r"):
        rig.seed_file(name, b"x", stores=["stken-sim"])
    station.fetch_file("p", requesting_project="proj")  # fetch pin
    station.fetch_file("q")
    station.fetch_file("r")  # must evict q, not the older pinned p
    cached = {e["file_name"] for e in station.station_status()["cache"]["entries"]}
    assert cached == {"p", "r"}


def test_cache_full_when_everything_is_pinned(rig):
    station = simple_rig(rig, cache_capacity=2)
    for name in ("p", "q", "r"):
        rig.seed_file(name, b"x", stores=["stken-sim"])
    station.fetch_file("p", requesting_project="proj")
    station.fetch_file("q", requesting_project="proj")
    started = time.monotonic()
    with pytest.raises(CacheFull):
        station.fetch_file("r")
    assert time.monotonic() - started < 1.0  # fail fast, no deadlock


def test_cache_full_evicts_nothing(rig):
    # evicting a (1 B) would not make room beside pinned b (2 B) for the 3 B fetch
    station = simple_rig(rig, cache_capacity=3)
    a = rig.seed_file("a", b"1", stores=["stken-sim"])
    rig.seed_file("b", b"22", stores=["stken-sim"])
    rig.seed_file("c", b"333", stores=["stken-sim"])
    station.fetch_file("a")
    station.fetch_file("b", requesting_project="proj")
    with pytest.raises(CacheFull):
        station.fetch_file("c")
    cached = {e["file_name"] for e in station.station_status()["cache"]["entries"]}
    assert cached == {"a", "b"}
    assert station.counters["evictions"] == 0
    with rig.catalog_client() as catalog:
        assert {loc.endpoint_name for loc in catalog.get_locations(a)} == \
            {"stken-sim", "cdfa-1"}


def test_file_larger_than_the_cache_evicts_nothing(rig):
    station = simple_rig(rig, cache_capacity=10)
    ids = [rig.seed_file(f"s{i}", b"22", stores=["stken-sim"]) for i in range(5)]
    for i in range(5):
        station.fetch_file(f"s{i}")
    rig.seed_file("big", b"x" * 11, stores=["stken-sim"])
    with pytest.raises(CacheFull):
        station.fetch_file("big")
    cached = {e["file_name"] for e in station.station_status()["cache"]["entries"]}
    assert cached == {f"s{i}" for i in range(5)}
    assert station.counters["evictions"] == 0
    assert [e for e in station.events if e["kind"] == "evict"] == []
    with rig.catalog_client() as catalog:
        for file_id in ids:
            assert {loc.endpoint_name for loc in catalog.get_locations(file_id)} == \
                {"stken-sim", "cdfa-1"}


@pytest.mark.parametrize("failure", [NoReplica, CacheFull])
def test_failed_fetch_leaves_no_name_in_flight(rig, failure):
    station = simple_rig(rig, cache_capacity=1)
    if failure is NoReplica:
        rig.seed_file("f", b"x", stores=[])  # declared, no bytes anywhere
    else:
        rig.seed_file("f", b"xx", stores=["stken-sim"])  # larger than the cache
    for _ in range(2):
        raised = []

        def fetch():
            try:
                station.fetch_file("f")
            except failure:
                raised.append(failure)

        worker = threading.Thread(target=fetch, daemon=True)
        worker.start()
        worker.join(timeout=1.0)
        assert not worker.is_alive()  # a name left in flight would block this fetch
        assert raised == [failure]


class FakePeer:
    """A station data plane that answers every request with canned bytes, then hangs up."""

    def __init__(self, reply: bytes):
        self.reply = reply
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.addr = "127.0.0.1:%d" % self.sock.getsockname()[1]
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            with conn:
                conn.recv(1024)
                conn.sendall(self.reply)

    def close(self):
        self.sock.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept
        self.sock.close()


@pytest.mark.parametrize("reply", [
    b"SEND bad.raw many zz\n",
    b"SEND bad.raw 100 00000000\n" + b"b" * 40,
], ids=["bad-header", "truncated-body"])
def test_broken_peer_frames_leak_neither_files_nor_capacity(rig, reply):
    peer = FakePeer(reply)
    try:
        rig.station_addr["cdfa-2"] = peer.addr
        rig.add_store("stken-sim", STORE_ACCESS)
        station = rig.add_station(
            "cdfa-1", [("stken-sim", "read_only", 4), ("cdfa-2", "read_only", 4)],
            cache_capacity=100)
        bad = rig.seed_file("bad.raw", b"b" * 100)
        with rig.catalog_client() as catalog:
            catalog.add_location(bad, "cdfa-2", "/cache/bad.raw")
        with pytest.raises(TransferExhausted):
            station.fetch_file("bad.raw")
        assert station.counters["retries"] == 2  # every attempt ran
        assert list(station.incoming_dir.iterdir()) == []

        rig.seed_file("full.raw", b"f" * 100, stores=["stken-sim"])
        assert crc32_file(station.fetch_file("full.raw")) == crc32_bytes(b"f" * 100)
    finally:
        peer.close()


def test_pin_unpin_lifecycle(rig):
    station = simple_rig(rig)
    file_id = rig.seed_file("a", b"x", stores=["stken-sim"])
    station.fetch_file("a", requesting_project="proj")
    station.fetch_file("a", requesting_project="other")
    station.unpin_file(file_id, "proj")
    with pytest.raises(NotPinned):
        station.unpin_file(file_id, "proj")
    station.unpin_file(file_id, "other")
    with pytest.raises(NotResident):
        station.unpin_file(999, "proj")


def test_project_fetch_pin_is_idempotent(rig):
    # a redelivered held file must not stack pins the release cannot undo
    station = simple_rig(rig)
    file_id = rig.seed_file("a", b"x", stores=["stken-sim"])
    station.fetch_file("a", requesting_project="proj")
    station.fetch_file("a", requesting_project="proj")
    station.fetch_file("a", requesting_project="proj")
    station.unpin_file(file_id, "proj")
    with pytest.raises(NotPinned):
        station.unpin_file(file_id, "proj")


def test_corrupt_source_retries_against_alternative(rig):
    rig.add_store("cdfen-sim", STORE_ACCESS)
    rig.add_store("stken-sim", STORE_ACCESS)
    station = rig.add_station(
        "cdfa-1", [("cdfen-sim", "read_only", 2), ("stken-sim", "read_only", 4)])
    data = b"precious bits"
    rig.seed_file("a.raw", data, stores=["cdfen-sim", "stken-sim"])

    station.inject_faults("cdfen-sim", seed=3, corrupt_every_nth=1)
    path = station.fetch_file("a.raw")  # first attempt corrupt, retry succeeds
    with open(path, "rb") as fh:
        assert fh.read() == data
    assert station.counters["crc_mismatches"] == 1
    assert station.counters["retries"] == 1
    assert station.counters["transfers_ok"] == 1
    mismatch = [e for e in station.events if e["kind"] == "crc_mismatch"]
    assert [e["endpoint"] for e in mismatch] == ["cdfen-sim"]


def test_retries_go_round_the_candidates_in_order(rig):
    rig.add_store("cdfen-sim", STORE_ACCESS)
    rig.add_store("stken-sim", STORE_ACCESS)
    station = rig.add_station(
        "cdfa-1", [("cdfen-sim", "read_only", 2), ("stken-sim", "read_only", 4)])
    rig.seed_file("a.raw", b"bits", stores=["cdfen-sim", "stken-sim"])
    station.inject_faults("cdfen-sim", seed=3, corrupt_every_nth=1)
    station.inject_faults("stken-sim", seed=4, corrupt_every_nth=1)
    with pytest.raises(TransferExhausted):
        station.fetch_file("a.raw")
    mismatch = [e for e in station.events if e["kind"] == "crc_mismatch"]
    assert [(e["attempt"], e["endpoint"]) for e in mismatch] == [
        (1, "cdfen-sim"), (2, "stken-sim"), (3, "cdfen-sim")]


def test_exhausts_after_max_attempts_when_only_source_is_corrupt(rig):
    rig.add_store("cdfen-sim", STORE_ACCESS)
    station = rig.add_station("cdfa-1", [("cdfen-sim", "read_only", 2)])
    rig.seed_file("a.raw", b"bits", stores=["cdfen-sim"])
    wrapper = station.inject_faults("cdfen-sim", seed=3, corrupt_every_nth=1)
    with pytest.raises(TransferExhausted):
        station.fetch_file("a.raw")
    assert wrapper.calls == 3
    assert station.counters["crc_mismatches"] == 3
    assert station.counters["retries"] == 2  # attempts 2 and 3
    assert station.station_status()["cache"]["entries"] == []

    # the failure must not leak reserved capacity
    station.inject_faults("cdfen-sim", seed=3, corrupt_every_nth=2)  # the next pull is clean
    assert station.fetch_file("a.raw")


def test_concurrent_fetches_of_one_file_transfer_once(rig):
    station = simple_rig(rig)
    rig.seed_file("a.raw", b"x" * 1000, stores=["stken-sim"])
    paths = {}

    def fetch(i):
        paths[i] = station.fetch_file("a.raw")

    run_threads(8, fetch)
    assert len(set(paths.values())) == 1
    assert station.counters["transfers_ok"] == 1
    assert station.counters["cache_hits"] == 7


def test_concurrent_fetches_of_many_names_transfer_each_once(rig):
    # 32 threads over 4 names with a short switch interval: every miss but
    # the first per name must wait for it and then hit
    station = simple_rig(rig)
    for i in range(4):
        rig.seed_file(f"m{i}", bytes([i]) * 500, stores=["stken-sim"])
    paths = {}

    def fetch(i):
        paths[i] = station.fetch_file(f"m{i % 4}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        run_threads(32, fetch)
    finally:
        sys.setswitchinterval(interval)
    assert len(paths) == 32  # every fetch returned
    assert len(set(paths.values())) == 4
    assert station.counters["transfers_ok"] == 4
    assert station.counters["cache_hits"] == 28
    assert station.station_status()["in_flight_jobs"] == 0


def test_concurrent_fetches_racing_prefetches_transfer_each_once(rig):
    # as above, but each fetch also names the next two files, so both
    # prefetch workers race the consumers and each other for every name
    station = simple_rig(rig)
    assert len(station._prefetchers) == 2
    for i in range(4):
        rig.seed_file(f"m{i}", bytes([i]) * 500, stores=["stken-sim"])
    paths = {}

    def fetch(i):
        paths[i] = station.fetch_file(f"m{i % 4}", prefetch=[f"m{(i + 1) % 4}", f"m{(i + 2) % 4}"])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        run_threads(32, fetch)
    finally:
        sys.setswitchinterval(interval)
    settle_prefetches(station)
    assert len(paths) == 32
    assert len(set(paths.values())) == 4
    assert station.counters["transfers_ok"] == 4
    # a file a worker pulled first is a hit for every consumer
    assert station.counters["cache_hits"] == 28 + station.counters["prefetches"]
    assert station.counters["prefetch_failed"] == 0
    assert station.station_status()["in_flight_jobs"] == 0
    assert station._prefetching == set()
    assert (station._reserved, station._resident) == (0, 4 * 500)


def test_rate_limit_high_water_mark_never_exceeds_slots(rig):
    rig.add_store("stken-sim", STORE_ACCESS, mount_latency_ms=20)
    station = rig.add_station("cdfa-1", [("stken-sim", "read_only", 2)])
    for i in range(12):
        # distinct filesets force a mount switch per fetch, stretching transfers
        rig.seed_file(f"f{i:02d}", bytes([i]) * 64, fileset=i, stores=["stken-sim"])

    run_threads(12, lambda i: station.fetch_file(f"f{i:02d}"))

    limits = station.station_status()["rate_limits"]["stken-sim"]
    assert limits["slots"] == 2
    assert limits["high_water"] == 2
    assert limits["in_flight"] == 0
    assert station.counters["transfers_ok"] == 12


def test_store_routing_from_router_to_store(rig):
    rig.add_store("stken-sim", STORE_ACCESS)
    router = rig.add_station("fcdf-router", [("stken-sim", "read_write", 4)],
                             route_target="stken-sim")
    data = b"fresh results"
    record = {
        "file_name": "bphy0412_fs0007_0042.raw", "size_bytes": 0, "crc32": 0,
        "data_tier": "raw", "event_type": "phy", "program_version": 4,
        "calibration_set": 12,
    }
    file_id = router.store_file(record, local_path=local_file(rig, "fresh", data))

    store = rig.stores["stken-sim"]
    assert read_stored(store, "cdfa-1", record["file_name"]) == data
    with rig.catalog_client() as catalog:
        stored = catalog.get_file(file_id)
        assert stored.size_bytes == len(data)
        assert stored.crc32 == crc32_bytes(data)
        locations = {loc.endpoint_name: loc for loc in catalog.get_locations(file_id)}
    # buffer copy released once the store has it: only the store location remains
    assert set(locations) == {"stken-sim"}
    assert locations["stken-sim"].path_or_volume.startswith("stken-sim-vol-")
    assert not (router.buffer_dir / record["file_name"]).exists()


def test_store_routing_through_analysis_station(rig):
    rig.add_store("stken-sim", STORE_ACCESS)
    rig.add_station("fcdf-router", [("stken-sim", "read_write", 4)],
                    route_target="stken-sim", served=True)
    analysis = rig.add_station("cdfa-1", [("fcdf-router", "read_write", 4)],
                               route_target="fcdf-router")
    payload = b"analysis output"
    local = rig.root / "out.raw"
    local.write_bytes(payload)
    record = {
        "file_name": "bphy0412_fs0007_0043.raw", "size_bytes": 0, "crc32": 0,
        "data_tier": "raw", "event_type": "phy", "program_version": 4,
        "calibration_set": 12,
    }
    file_id = analysis.store_file(record, local_path=str(local))
    assert read_stored(rig.stores["stken-sim"], "cdfa-1", record["file_name"]) == payload
    with rig.catalog_client() as catalog:
        assert catalog.get_file(file_id).crc32 == crc32_bytes(payload)


def test_analysis_store_route_needs_read_write_and_takes_a_slot(rig):
    rig.add_store("stken-sim", STORE_ACCESS)
    router = rig.add_station("fcdf-router", [("stken-sim", "read_write", 4)],
                             route_target="stken-sim", served=True)
    read_only = rig.add_station("cdfa-1", [("fcdf-router", "read_only", 1)],
                                route_target="fcdf-router")
    writable = rig.add_station("cdfa-2", [("fcdf-router", "read_write", 1)],
                               route_target="fcdf-router")
    record = {
        "file_name": "bphy0412_fs0007_0044.raw", "size_bytes": 0, "crc32": 0,
        "data_tier": "raw", "event_type": "phy", "program_version": 4,
        "calibration_set": 12,
    }
    with pytest.raises(AccessDenied):
        read_only.store_file(record, local_path=local_file(rig, "denied", b"results"))
    assert router.counters["stores_ok"] == 0  # nothing reached the router
    with rig.catalog_client() as catalog:
        with pytest.raises(RemoteError) as excinfo:
            catalog.get_file(record["file_name"])
        assert excinfo.value.code == "NOT_FOUND"

    writable.store_file(record, local_path=local_file(rig, "allowed", b"results"))
    assert router.counters["stores_ok"] == 1
    limits = writable.station_status()["rate_limits"]["fcdf-router"]
    assert (limits["high_water"], limits["in_flight"]) == (1, 0)


@pytest.mark.parametrize("corrupt, code", [
    ("crc", "CRC_MISMATCH"),
    ("record", "BAD_REQUEST"),
])
def test_router_refuses_a_corrupt_store_frame(rig, corrupt, code):
    # an 8 MiB body outlasts the socket buffers, so a refusal that left it
    # unread would reach the sender as a reset, not as ERR <code>
    rig.add_store("stken-sim", STORE_ACCESS)
    router = rig.add_station("fcdf-router", [("stken-sim", "read_write", 4)],
                             route_target="stken-sim", served=True)
    record = {
        "file_name": "bphy0412_fs0007_0045.raw", "size_bytes": 0, "crc32": 0,
        "data_tier": "raw", "event_type": "phy", "program_version": 4,
        "calibration_set": 12,
    }
    data = bytes(8 * MiB)
    line = json.dumps(record) if corrupt == "crc" else "{not json"
    crc = crc32_bytes(data) ^ (1 if corrupt == "crc" else 0)
    head = "STORE " + line + "\n" + send_header(record["file_name"], len(data), crc)
    with pytest.raises(RemoteError) as excinfo:
        send_request(rig.station_addr["fcdf-router"], head, io.BytesIO(data), len(data))
    assert excinfo.value.code == code
    assert list(router.incoming_dir.iterdir()) == []
    assert list(router.buffer_dir.iterdir()) == []
    with rig.catalog_client() as catalog:
        with pytest.raises(RemoteError) as excinfo:
            catalog.get_file(record["file_name"])  # nothing was declared
        assert excinfo.value.code == "NOT_FOUND"


GOOD_RECORD = {
    "file_name": "bphy0412_fs0007_0047.raw", "size_bytes": 0, "crc32": 0,
    "data_tier": "raw", "event_type": "phy", "program_version": 4, "calibration_set": 12,
}
MALFORMED_RECORDS = {  # case -> (record, what the refusal names)
    "missing_size": ({k: v for k, v in GOOD_RECORD.items() if k != "size_bytes"},
                     "size_bytes is missing"),
    "a_list": ([GOOD_RECORD], "a file record is an object, not list"),
    "nested_parents": ({**GOOD_RECORD, "parents": [[1]]}, "parents [[1]]"),
    "hook_not_a_pair": ({**GOOD_RECORD, "legacy_hook": "x"}, "legacy_hook 'x'"),
}


@pytest.mark.parametrize("path", ["declare_file", "store", "STORE"])
@pytest.mark.parametrize("case", sorted(MALFORMED_RECORDS))
def test_a_malformed_record_is_refused_naming_its_field(rig, path, case):
    record, named = MALFORMED_RECORDS[case]
    rig.add_store("stken-sim", STORE_ACCESS)
    rig.add_station("fcdf-router", [("stken-sim", "read_write", 4)], route_target="stken-sim",
                    served=True)
    data = b"results"
    with pytest.raises(RemoteError) as excinfo:
        if path == "declare_file":
            with Client(rig.catalog_addr) as catalog:
                catalog.call("declare_file", record=record)
        elif path == "store":
            with Client(rig.station_addr["fcdf-router"]) as station:
                station.call("store", record=record, local_path=local_file(rig, "bad", data))
        else:
            head = "STORE " + json.dumps(record) + "\n" + send_header(
                GOOD_RECORD["file_name"], len(data), crc32_bytes(data))
            send_request(rig.station_addr["fcdf-router"], head, io.BytesIO(data), len(data))
    assert (excinfo.value.code, named in excinfo.value.msg) == ("VALIDATION", True)


def test_get_file_refuses_an_id_that_is_neither_a_name_nor_a_number(rig):
    with Client(rig.catalog_addr) as catalog:
        with pytest.raises(RemoteError) as excinfo:
            catalog.call("get_file", name_or_id=[1])
    assert excinfo.value.code == "VALIDATION"


def test_an_analysis_station_refuses_a_store_frame(rig):
    # a STORE belongs at a router; an analysis station that took one would
    # buffer it where nothing forwards it.  The 8 MiB body outlasts the
    # socket buffers, so only a refusal that drains it reaches the sender.
    rig.add_store("stken-sim", STORE_ACCESS)
    rig.add_station("fcdf-router", [("stken-sim", "read_write", 4)],
                    route_target="stken-sim", served=True)
    analysis = rig.add_station("cdfa-1", [("fcdf-router", "read_write", 4)],
                               route_target="fcdf-router", served=True)
    record = {
        "file_name": "bphy0412_fs0007_0046.raw", "size_bytes": 0, "crc32": 0,
        "data_tier": "raw", "event_type": "phy", "program_version": 4,
        "calibration_set": 12,
    }
    data = bytes(8 * MiB)
    head = "STORE " + json.dumps(record) + "\n" + send_header(record["file_name"], len(data),
                                                              crc32_bytes(data))
    with pytest.raises(RemoteError) as excinfo:
        send_request(rig.station_addr["cdfa-1"], head, io.BytesIO(data), len(data))
    assert excinfo.value.code == "ACCESS_DENIED"
    assert list(analysis.incoming_dir.iterdir()) == []
    assert list(analysis.buffer_dir.iterdir()) == []
    with rig.catalog_client() as catalog:
        with pytest.raises(RemoteError) as excinfo:
            catalog.get_file(record["file_name"])  # nothing was declared
        assert excinfo.value.code == "NOT_FOUND"


def test_store_to_read_only_route_is_denied_before_any_mutation(rig):
    rig.add_store("cdfen-sim", {"fcdf-router": "read_only"})
    router = rig.add_station("fcdf-router", [("cdfen-sim", "read_only", 4)],
                             route_target="cdfen-sim")
    record = {
        "file_name": "denied.raw", "size_bytes": 0, "crc32": 0,
        "data_tier": "raw", "event_type": "phy", "program_version": 1,
        "calibration_set": 1,
    }
    with pytest.raises(AccessDenied):
        router.store_file(record, local_path=local_file(rig, "empty", b""))
    with rig.catalog_client() as catalog:
        with pytest.raises(RemoteError) as excinfo:
            catalog.get_file("denied.raw")  # nothing was declared
        assert excinfo.value.code == "NOT_FOUND"


def test_store_duplicate_name_is_rejected_at_declare(rig):
    rig.add_store("stken-sim", STORE_ACCESS)
    router = rig.add_station("fcdf-router", [("stken-sim", "read_write", 4)],
                             route_target="stken-sim")
    rig.seed_file("taken.raw", b"first", stores=["stken-sim"])
    record = {
        "file_name": "taken.raw", "size_bytes": 0, "crc32": 0,
        "data_tier": "raw", "event_type": "phy", "program_version": 1,
        "calibration_set": 1,
    }
    with pytest.raises(RemoteError) as excinfo:
        router.store_file(record, local_path=local_file(rig, "dup", b"A"))
    assert excinfo.value.code == "DUPLICATE_NAME"


# older files name each station's part in a role key, which nothing reads:
# here each names the part its station does not play
ROUTES = """
[DEFAULT]
listen = 127.0.0.1:0

[store stken-sim]
access =
    fcdf-router read_write
    cdfa-1 read_only

[station fcdf-router]
role = analysis
route_target = stken-sim
endpoints =
    stken-sim read_write

[station cdfa-1]
role = router
route_target = fcdf-router
endpoints =
    fcdf-router read_write
"""


def test_the_route_target_alone_decides_who_forwards_an_upload(tmp_path):
    config_file = tmp_path / "routes.ini"
    config_file.write_text(ROUTES)
    topology = load_topology(config_file)
    served = serve(topology, topology.daemons())
    try:
        store = {d.name: d.service for d in served}["stken-sim"]
        for station, part, name in [("cdfa-1", "analysis", "bphy0412_fs0007_0060.raw"),
                                    ("fcdf-router", "router", "bphy0412_fs0007_0061.raw")]:
            local = tmp_path / name
            local.write_bytes(name.encode())
            with Client(topology.stations[station].listen) as client:
                file_id = client.call("store", record={**GOOD_RECORD, "file_name": name},
                                      local_path=str(local))
                assert client.call("status")["role"] == part
            with Client(topology.catalog.listen) as catalog:
                locations = catalog.call("get_locations", file_id=file_id)
            assert [loc["endpoint_name"] for loc in locations] == ["stken-sim"]
            assert read_stored(store, "cdfa-1", name) == name.encode()
        for station in topology.stations.values():
            assert list((Path(station.cache_dir) / "permanent").iterdir()) == []
    finally:
        for daemon in reversed(served):
            daemon.close()


# -- streamed routing: the router forwards a STORE while it arrives ------------

STREAMED = "bphy0412_fs0007_0050.raw"


def streaming_router(rig):
    """A router whose store takes 32 MiB files, both on the data plane."""
    rig.add_store("stken-sim", STORE_ACCESS, volume_capacity=64 * MiB)
    return rig.add_station("fcdf-router", [("stken-sim", "read_write", 4)],
                           route_target="stken-sim", served=True)


def store_head(data, crc=None, name=STREAMED) -> str:
    return "STORE " + json.dumps({**GOOD_RECORD, "file_name": name}) + "\n" + \
        send_header(name, len(data), crc32_bytes(data) if crc is None else crc)


def wait_for(predicate, what, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, what
        time.sleep(0.005)


def paused_store(rig, data, halfway, sent=lambda: None):
    """Send a STORE of data to the router, run halfway() at half the body and
    sent() after all of it; returns the reply line."""
    with socket.create_connection(parse_addr(rig.station_addr["fcdf-router"])) as sock:
        sock.sendall(store_head(data).encode() + data[:len(data) // 2])
        halfway()
        sock.sendall(data[len(data) // 2:])
        sent()
        return sock.makefile("rb").readline().decode()


def assert_store_kept_nothing(rig, router, puts=0):
    store = rig.stores["stken-sim"]
    assert (store.counters["puts"], store.status()["files"]) == (puts, puts)
    assert list(store.incoming.iterdir()) == []
    assert list(router.incoming_dir.iterdir()) == list(router.buffer_dir.iterdir()) == []


def test_the_router_streams_a_store_to_tape_while_it_arrives(rig, monkeypatch):
    router = streaming_router(rig)
    store = rig.stores["stken-sim"]
    declaring, declare = threading.Event(), threading.Event()
    call = router.catalog.call

    def held_declare(op, **args):
        if op == "declare_file":
            declaring.set()
            assert declare.wait(10)
        return call(op, **args)

    monkeypatch.setattr(router.catalog, "call", held_declare)
    data = random.Random(21).randbytes(4 * MiB)

    def halfway():
        wait_for(lambda: list(store.incoming.iterdir()),
                 "the store holds nothing of a body the router is receiving")
        assert router.station_status()["rate_limits"]["stken-sim"]["in_flight"] == 1

    def at_declare():
        assert declaring.wait(10)
        time.sleep(0.3)  # room for a commit that must not come before the declare
        assert store.counters["puts"] == 0
        assert len(list(store.incoming.iterdir())) == 1
        declare.set()

    reply = paused_store(rig, data, halfway, at_declare)
    assert reply.startswith("OK ")
    assert read_stored(store, "cdfa-1", STREAMED) == data
    assert router.station_status()["rate_limits"]["stken-sim"]["in_flight"] == 0
    assert_store_kept_nothing(rig, router, puts=1)


def test_a_corrupt_store_body_reaches_no_tape(rig):
    router = streaming_router(rig)
    data = bytes(8 * MiB)
    with pytest.raises(RemoteError) as excinfo:
        send_request(rig.station_addr["fcdf-router"], store_head(data, crc32_bytes(data) ^ 1),
                     io.BytesIO(data), len(data))
    assert excinfo.value.code == "CRC_MISMATCH"
    assert_store_kept_nothing(rig, router)
    with rig.catalog_client() as catalog:
        with pytest.raises(RemoteError) as excinfo:
            catalog.get_file(STREAMED)
        assert excinfo.value.code == "NOT_FOUND"


def test_a_name_declared_while_its_body_streams_reaches_no_tape(rig):
    # the router's check found the name free; the declare after the body refuses it
    router = streaming_router(rig)
    store = rig.stores["stken-sim"]

    def declare_meanwhile():
        wait_for(lambda: list(store.incoming.iterdir()), "the body never reached the store")
        rig.seed_file(STREAMED, b"first")

    reply = paused_store(rig, bytes(4 * MiB), declare_meanwhile)
    assert reply.startswith("ERR DUPLICATE_NAME")
    assert_store_kept_nothing(rig, router)
    with rig.catalog_client() as catalog:
        assert catalog.get_file(STREAMED).size_bytes == len(b"first")


def test_a_store_of_a_declared_name_is_refused_before_its_body(rig):
    router = streaming_router(rig)
    rig.seed_file(STREAMED, b"first", stores=["stken-sim"])
    data = bytes(8 * MiB)  # corrupt too: a refusal after the body would name the CRC
    with pytest.raises(RemoteError) as excinfo:
        send_request(rig.station_addr["fcdf-router"], store_head(data, crc32_bytes(data) ^ 1),
                     io.BytesIO(data), len(data))
    assert excinfo.value.code == "DUPLICATE_NAME"
    assert_store_kept_nothing(rig, router, puts=1)


class CutFirstConnection:
    """A TCP relay to addr that resets its first connection after `after` bytes."""

    def __init__(self, addr, after):
        self.target = parse_addr(addr)
        self.after = after
        self.cut = threading.Event()
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.addr = "127.0.0.1:%d" % self.sock.getsockname()[1]
        self.conns = []
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            self.conns.append(conn)
            if not self.cut.is_set():
                got = 0
                while got < self.after and (chunk := conn.recv(1 << 16)):
                    got += len(chunk)
                conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                conn.close()
                self.cut.set()
                continue
            upstream = socket.create_connection(self.target)
            self.conns.append(upstream)
            for src, dst in ((conn, upstream), (upstream, conn)):
                threading.Thread(target=self._pump, args=(src, dst), daemon=True).start()

    @staticmethod
    def _pump(src, dst):
        try:
            while data := src.recv(1 << 16):
                dst.sendall(data)
            dst.shutdown(socket.SHUT_WR)
        except OSError:
            pass

    def close(self):
        self.sock.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept
        self.sock.close()
        for conn in self.conns:
            conn.close()


def test_a_store_connection_cut_mid_body_is_sent_again_from_the_buffer(rig):
    rig.add_store("stken-sim", STORE_ACCESS, volume_capacity=64 * MiB)
    relay = CutFirstConnection(rig.store_addr["stken-sim"], after=MiB)
    try:
        rig.store_addr["stken-sim"] = relay.addr
        router = rig.add_station("fcdf-router", [("stken-sim", "read_write", 4)],
                                 route_target="stken-sim", served=True)
        data = random.Random(22).randbytes(8 * MiB)
        file_id = int(send_request(rig.station_addr["fcdf-router"], store_head(data),
                                   io.BytesIO(data), len(data)))
        assert relay.cut.is_set()
        assert read_stored(rig.stores["stken-sim"], "cdfa-1", STREAMED) == data
        assert_store_kept_nothing(rig, router, puts=1)
        with rig.catalog_client() as catalog:
            assert [loc.endpoint_name for loc in catalog.get_locations(file_id)] == \
                ["stken-sim"]
    finally:
        relay.close()


def test_an_empty_store_is_forwarded_after_its_declare(rig):
    router = streaming_router(rig)
    file_id = int(send_request(rig.station_addr["fcdf-router"], store_head(b""),
                               io.BytesIO(b""), 0))
    assert read_stored(rig.stores["stken-sim"], "cdfa-1", STREAMED) == b""
    assert_store_kept_nothing(rig, router, puts=1)
    with rig.catalog_client() as catalog:
        assert catalog.get_file(file_id).size_bytes == 0


def test_concurrent_streamed_stores_share_one_route_slot(rig):
    # more forwards than cores and than route slots: each waits its turn
    # mid-body, and no slot leaks or is held twice
    rig.add_store("stken-sim", STORE_ACCESS, volume_capacity=64 * MiB)
    router = rig.add_station("fcdf-router", [("stken-sim", "read_write", 1)],
                             route_target="stken-sim", served=True)
    bodies = {f"bphy0412_fs0007_{i:04d}.raw": random.Random(i).randbytes(i * 100 * 1024 + i)
              for i in range(6)}  # 0 bytes to 500 KiB

    def store(i):
        name = sorted(bodies)[i]
        data = bodies[name]
        send_request(rig.station_addr["fcdf-router"], store_head(data, name=name),
                     io.BytesIO(data), len(data))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        run_threads(len(bodies), store)
    finally:
        sys.setswitchinterval(interval)
    for name, data in bodies.items():
        assert read_stored(rig.stores["stken-sim"], "cdfa-1", name) == data
    assert_store_kept_nothing(rig, router, puts=len(bodies))
    limits = router.station_status()["rate_limits"]["stken-sim"]
    assert (limits["high_water"], limits["in_flight"]) == (1, 0)


def test_fetch_prefers_station_cache_over_tape(rig):
    rig.add_store("stken-sim", STORE_ACCESS)
    peer = rig.add_station("cdfa-2", [("stken-sim", "read_only", 4)],
                           served=True)
    station = rig.add_station(
        "cdfa-1", [("stken-sim", "read_only", 4), ("cdfa-2", "read_only", 4)])
    data = b"shared bytes"
    rig.seed_file("a.raw", data, stores=["stken-sim"])

    peer.fetch_file("a.raw")  # now cached at cdfa-2 and registered in the catalog
    gets_before = rig.stores["stken-sim"].counters["gets"]
    path = station.fetch_file("a.raw")
    with open(path, "rb") as fh:
        assert fh.read() == data
    # the bytes came from the peer station, not another tape read
    assert rig.stores["stken-sim"].counters["gets"] == gets_before


def test_data_plane_memory_does_not_grow_with_file_size(rig):
    # one 16 MiB file: analysis station -> router -> tape, tape -> station,
    # station -> peer station; no daemon may hold the whole file
    rig.add_store("stken-sim", STORE_ACCESS, volume_capacity=64 * MiB)
    rig.add_station("fcdf-router", [("stken-sim", "read_write", 4)],
                    route_target="stken-sim", served=True)
    station = rig.add_station(
        "cdfa-1", [("stken-sim", "read_only", 4), ("fcdf-router", "read_write", 4)],
        route_target="fcdf-router", served=True)
    peer = rig.add_station(
        "cdfa-2", [("stken-sim", "read_only", 4), ("cdfa-1", "read_only", 4)])
    local = rig.root / "big.raw"
    rng = random.Random(16)
    with open(local, "wb") as fh:
        for _ in range(16):
            fh.write(rng.randbytes(MiB))
    want = crc32_file(local)
    record = {
        "file_name": "bphy0412_fs0007_0044.raw", "size_bytes": 0, "crc32": 0,
        "data_tier": "raw", "event_type": "phy", "program_version": 4,
        "calibration_set": 12,
    }

    tracemalloc.start()
    try:
        station.store_file(record, local_path=str(local))
        from_tape = station.fetch_file(record["file_name"])
        gets = rig.stores["stken-sim"].counters["gets"]
        from_peer = peer.fetch_file(record["file_name"])
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert rig.stores["stken-sim"].counters["gets"] == gets  # the peer pulled from cdfa-1
    assert crc32_file(from_tape) == crc32_file(from_peer) == want
    assert peak < 2 * MiB


# -- prefetch ---------------------------------------------------------------

def cached_pins(station) -> dict[str, int]:
    return {e["file_name"]: e["pin_count"]
            for e in station.station_status()["cache"]["entries"]}


def test_hit_makes_no_catalog_call(rig, monkeypatch):
    station = simple_rig(rig)
    rig.seed_file("a", b"x", stores=["stken-sim"])
    path = station.fetch_file("a")

    def no_catalog(*_args, **_kwargs):
        raise AssertionError("a cache hit asked the catalog")

    monkeypatch.setattr(station.catalog, "call", no_catalog)
    assert station.fetch_file("a", requesting_project="proj") == path
    assert station.counters["cache_hits"] == 1
    assert cached_pins(station) == {"a": 1}


def test_project_delivery_pulls_each_file_once_and_then_hits(rig):
    rig.add_store("stken-sim", STORE_ACCESS)
    station = rig.add_station("cdfa-1", [("stken-sim", "read_only", 4)],
                              served=True)
    n_files = 8
    ids = [rig.seed_file(f"f{i}", b"%d" % i, stores=["stken-sim"]) for i in range(n_files)]
    with rig.catalog_client() as catalog:
        catalog.define_dataset("all", Atom("event_type", "=", "phy"))
    project = ProjectServer(rig.root / "project.journal", rig.catalog_addr)
    try:
        project.start_project("p", "all")
        got = []
        while True:
            settle_prefetches(station)  # the worker has finished what it was told
            hits = station.counters["cache_hits"]
            result = project.next_file("p", "c1", station=rig.station_addr["cdfa-1"])
            if result.get("end"):
                break
            if got:
                assert station.counters["cache_hits"] == hits + 1, result
            got.append(result["file_id"])
            project.release_file("p", "c1", result["file_id"])
    finally:
        project.close()
    assert got == ids
    assert station.counters["transfers_ok"] == n_files  # each file pulled once
    assert station.counters["prefetches"] == n_files - 1
    assert station.counters["prefetch_failed"] == 0
    assert rig.stores["stken-sim"].counters["gets"] == n_files


def test_prefetch_never_pins_nor_evicts_a_pinned_file(rig):
    station = simple_rig(rig, cache_capacity=3)
    for name in ("a", "b", "c", "d"):
        rig.seed_file(name, b"x", stores=["stken-sim"])
    station.fetch_file("a", requesting_project="proj")
    station.fetch_file("b")
    station.fetch_file("d", requesting_project="proj", prefetch=["c"])
    settle_prefetches(station)
    assert cached_pins(station) == {"a": 1, "d": 1, "c": 0}  # b was the one unpinned
    assert station.counters["prefetches"] == 1


def test_prefetch_into_a_pinned_full_cache_is_dropped(rig):
    station = simple_rig(rig, cache_capacity=2)
    for name in ("a", "b", "c"):
        rig.seed_file(name, b"x", stores=["stken-sim"])
    station.fetch_file("a", requesting_project="proj")
    station.fetch_file("b", requesting_project="proj", prefetch=["c"])
    settle_prefetches(station)
    status = station.station_status()
    assert cached_pins(station) == {"a": 1, "b": 1}
    assert status["counters"]["evictions"] == 0
    assert status["counters"]["prefetches"] == 0
    assert status["counters"]["prefetch_failed"] == 1
    assert status["prefetch_queue"] == 0
    [event] = [e for e in station.events if e["kind"] == "prefetch_error"]
    assert event["file_name"] == "c" and "CacheFull" in event["detail"]
    assert station._reserved == 0


@pytest.mark.parametrize("failure", ["no_replica", "unreachable"])
def test_failed_prefetch_leaves_nothing_behind(rig, failure):
    rig.add_store("stken-sim", STORE_ACCESS)
    # cdfa-2 is not served in this rig: its address refuses connections
    station = rig.add_station(
        "cdfa-1", [("stken-sim", "read_only", 4), ("cdfa-2", "read_only", 1)])
    rig.seed_file("a", b"a", stores=["stken-sim"])
    file_id = rig.seed_file("f", b"f", stores=[])  # declared, no bytes anywhere
    if failure == "unreachable":
        with rig.catalog_client() as catalog:
            catalog.add_location(file_id, "cdfa-2", "/cache/f")
    station.fetch_file("a", prefetch=["f"])
    settle_prefetches(station)
    assert station.counters["prefetch_failed"] == 1
    assert station._in_flight == set()
    assert station._reserved == 0

    # the consumer's own fetch gets its own answer
    with pytest.raises(NoReplica if failure == "no_replica" else TransferExhausted):
        station.fetch_file("f")
    if failure == "unreachable":
        # once a reachable copy exists, the same fetch succeeds
        volume = put_to_store(rig.store_addr["stken-sim"], "seeder", "f", 0, b"f",
                              crc32_bytes(b"f"))
        with rig.catalog_client() as catalog:
            catalog.add_location(file_id, "stken-sim", volume)
        with open(station.fetch_file("f"), "rb") as fh:
            assert fh.read() == b"f"
    assert station._in_flight == set()
    assert station._reserved == 0


def test_a_duplicate_prefetch_name_makes_no_catalog_call(rig, monkeypatch):
    station = simple_rig(rig)
    for name in ("a", "b"):
        rig.seed_file(name, b"x", stores=["stken-sim"])
    station.fetch_file("a")
    looked_up = []
    call = Client.call  # each prefetch worker has its own client

    def counting_call(self, op, **args):
        if op == "get_file":
            looked_up.append(args["name_or_id"])
        return call(self, op, **args)

    monkeypatch.setattr(Client, "call", counting_call)
    # a is resident; of the three b, one is pulled and the others find it
    # in flight or resident
    station.fetch_file("a", prefetch=["a", "b", "b", "a", "b"])
    settle_prefetches(station)
    assert looked_up == ["b"]
    assert station.counters["transfers_ok"] == 2
    assert station.counters["prefetches"] == 1


def test_close_stops_every_prefetch_worker(rig):
    rig.add_store("stken-sim", STORE_ACCESS, mount_latency_ms=50)
    station = rig.add_station("cdfa-1", [("stken-sim", "read_only", 4)])
    for fileset, name in enumerate(("a", "b", "c", "d")):
        rig.seed_file(name, b"x", fileset=fileset, stores=["stken-sim"])
    workers = [t for t in threading.enumerate() if t.name.startswith("prefetch-cdfa-1-")]
    assert sorted(t.name for t in workers) == ["prefetch-cdfa-1-0", "prefetch-cdfa-1-1"]
    station.fetch_file("a", prefetch=["b", "c", "d"])  # close comes while both pull
    station.close()
    assert not any(t.is_alive() for t in workers)


@pytest.mark.parametrize("prefetch", ["1,2", 3, [1.5], [1], [True], {"names": ["a"]}, [["a"]]])
def test_prefetch_must_be_a_list_of_ids(rig, prefetch):
    station = rig.add_station("cdfa-1", [], served=True)
    with pytest.raises(ValidationError):
        station.dispatch("fetch", {"file_name": "a", "prefetch": prefetch})
    with Client(rig.station_addr["cdfa-1"]) as client:
        with pytest.raises(RemoteError) as excinfo:
            client.call("fetch", file_name="a", prefetch=prefetch)
    assert excinfo.value.code == "VALIDATION"


def test_fetch_waits_out_a_prefetch_instead_of_failing_cache_full(rig):
    # room for two files: a is pinned, c's prefetch holds the other slot while
    # its tape mount runs; b's fetch must wait for c, then evict it
    rig.add_store("stken-sim", STORE_ACCESS, mount_latency_ms=300)
    station = rig.add_station("cdfa-1", [("stken-sim", "read_only", 4)], cache_capacity=2)
    for fileset, name in enumerate(("a", "b", "c")):
        rig.seed_file(name, b"x", fileset=fileset, stores=["stken-sim"])
    station.fetch_file("a", requesting_project="proj", prefetch=["c"])
    deadline = time.monotonic() + 5
    while station._reserved == 0:
        assert time.monotonic() < deadline, "the prefetch of c never reserved room"
        time.sleep(0.005)
    station.fetch_file("b", requesting_project="proj")
    settle_prefetches(station)
    assert cached_pins(station) == {"a": 1, "b": 1}
    assert station.counters["prefetches"] == 1
    assert station._reserved == 0
