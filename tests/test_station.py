"""Station cache behavior: transfers, retries, LRU, pins, routing, limits."""

import base64
import io
import json
import random
import socket
import threading
import time
import tracemalloc

import pytest

from samforge.errors import (
    AccessDenied,
    CacheFull,
    NoReplica,
    NotPinned,
    NotResident,
    RemoteError,
    TransferExhausted,
)
from samforge.transfer import crc32_bytes, crc32_file, send_header, send_request

from conftest import read_stored, run_threads

MiB = 1 << 20

STORE_ACCESS = {
    "cdfa-1": "read_only",
    "cdfa-2": "read_only",
    "fcdf-router": "read_write",
    "seeder": "read_write",
}


def simple_rig(rig, cache_capacity=10**6, max_attempts=3, slots=4):
    """One read-only-for-stations store plus one analysis station."""
    rig.add_store("stken-sim", STORE_ACCESS)
    station = rig.add_station(
        "cdfa-1", [("stken-sim", "read_only", slots)],
        cache_capacity=cache_capacity, max_attempts=max_attempts)
    return station


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


def test_cache_full_still_forgets_evicted_locations(rig):
    # a (1 B) is evicted to make room before pinned b (2 B) blocks the 3 B fetch
    station = simple_rig(rig, cache_capacity=3)
    a = rig.seed_file("a", b"1", stores=["stken-sim"])
    rig.seed_file("b", b"22", stores=["stken-sim"])
    rig.seed_file("c", b"333", stores=["stken-sim"])
    station.fetch_file("a")
    station.fetch_file("b", requesting_project="proj")
    with pytest.raises(CacheFull):
        station.fetch_file("c")
    cached = {e["file_name"] for e in station.station_status()["cache"]["entries"]}
    assert cached == {"b"}
    with rig.catalog_client() as catalog:
        assert {loc.endpoint_name for loc in catalog.get_locations(a)} == {"stken-sim"}


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
        rig.station_data["cdfa-2"] = peer.addr
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
    station.fetch_file("a")
    station.pin_file(file_id, "proj")
    station.pin_file(file_id, "proj")
    station.unpin_file(file_id, "proj")
    station.unpin_file(file_id, "proj")
    with pytest.raises(NotPinned):
        station.unpin_file(file_id, "proj")
    with pytest.raises(NotResident):
        station.pin_file(999, "proj")


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


def test_exhausts_after_max_attempts_when_only_source_is_corrupt(rig):
    rig.add_store("cdfen-sim", STORE_ACCESS)
    station = rig.add_station("cdfa-1", [("cdfen-sim", "read_only", 2)],
                              max_attempts=3)
    rig.seed_file("a.raw", b"bits", stores=["cdfen-sim"])
    wrapper = station.inject_faults("cdfen-sim", seed=3, corrupt_every_nth=1)
    with pytest.raises(TransferExhausted):
        station.fetch_file("a.raw")
    assert wrapper.calls == 3
    assert station.counters["crc_mismatches"] == 3
    assert station.counters["retries"] == 2  # attempts 2 and 3
    assert station.station_status()["cache"]["entries"] == []

    # the failure must not leak reserved capacity
    station.clear_faults("cdfen-sim")
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
                             role="router", route_target="stken-sim")
    data = b"fresh results"
    record = {
        "file_name": "bphy0412_fs0007_0042.raw", "size_bytes": 0, "crc32": 0,
        "data_tier": "raw", "event_type": "phy", "program_version": 4,
        "calibration_set": 12,
    }
    file_id = router.store_file(record, data_b64=base64.b64encode(data).decode())

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
                    role="router", route_target="stken-sim", with_data_server=True)
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


@pytest.mark.parametrize("corrupt, code", [
    ("crc", "CRC_MISMATCH"),
    ("record", "INTERNAL"),
])
def test_router_refuses_a_corrupt_store_frame(rig, corrupt, code):
    # an 8 MiB body outlasts the socket buffers, so a refusal that left it
    # unread would reach the sender as a reset, not as ERR <code>
    rig.add_store("stken-sim", STORE_ACCESS)
    router = rig.add_station("fcdf-router", [("stken-sim", "read_write", 4)],
                             role="router", route_target="stken-sim", with_data_server=True)
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
        send_request(rig.station_data["fcdf-router"], head, io.BytesIO(data), len(data))
    assert excinfo.value.code == code
    assert list(router.incoming_dir.iterdir()) == []
    assert list(router.buffer_dir.iterdir()) == []
    with rig.catalog_client() as catalog:
        with pytest.raises(RemoteError) as excinfo:
            catalog.get_file(record["file_name"])  # nothing was declared
        assert excinfo.value.code == "NOT_FOUND"


def test_store_to_read_only_route_is_denied_before_any_mutation(rig):
    rig.add_store("cdfen-sim", {"fcdf-router": "read_only"})
    router = rig.add_station("fcdf-router", [("cdfen-sim", "read_only", 4)],
                             role="router", route_target="cdfen-sim")
    record = {
        "file_name": "denied.raw", "size_bytes": 0, "crc32": 0,
        "data_tier": "raw", "event_type": "phy", "program_version": 1,
        "calibration_set": 1,
    }
    with pytest.raises(AccessDenied):
        router.store_file(record, data_b64="")
    with rig.catalog_client() as catalog:
        with pytest.raises(RemoteError) as excinfo:
            catalog.get_file("denied.raw")  # nothing was declared
        assert excinfo.value.code == "NOT_FOUND"


def test_store_duplicate_name_is_rejected_at_declare(rig):
    rig.add_store("stken-sim", STORE_ACCESS)
    router = rig.add_station("fcdf-router", [("stken-sim", "read_write", 4)],
                             role="router", route_target="stken-sim")
    rig.seed_file("taken.raw", b"first", stores=["stken-sim"])
    record = {
        "file_name": "taken.raw", "size_bytes": 0, "crc32": 0,
        "data_tier": "raw", "event_type": "phy", "program_version": 1,
        "calibration_set": 1,
    }
    with pytest.raises(RemoteError) as excinfo:
        router.store_file(record, data_b64="QQ==")
    assert excinfo.value.code == "DUPLICATE_NAME"


def test_fetch_prefers_station_cache_over_tape(rig):
    rig.add_store("stken-sim", STORE_ACCESS)
    peer = rig.add_station("cdfa-2", [("stken-sim", "read_only", 4)],
                           with_data_server=True)
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
                    role="router", route_target="stken-sim", with_data_server=True)
    station = rig.add_station(
        "cdfa-1", [("stken-sim", "read_only", 4), ("fcdf-router", "read_write", 4)],
        route_target="fcdf-router", with_data_server=True)
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
