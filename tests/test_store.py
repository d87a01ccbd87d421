"""Mass-store simulator: access rights, volumes, mounts, data plane."""

import time

import pytest

from samforge.errors import (
    AccessDenied,
    DuplicateName,
    FileTooLarge,
    NotFound,
    RemoteError,
    StoreFull,
)
from samforge.store import StoreConfig, StoreDataHandler, StoreService
from samforge import wire
from samforge.wire import Server
from samforge.transfer import (
    crc32_bytes,
    parse_send_header,
    put_to_store,
    read_line,
    receive_body,
)
import io
import json
import socket

from conftest import read_stored

ACCESS = {"writer": "read_write", "reader": "read_only", "lurker": "none"}


def make_store(tmp_path, name="stken-sim", capacity=10**6, volume_capacity=100,
               mount_latency_ms=0):
    return StoreService(
        StoreConfig(
            name=name,
            root_dir=str(tmp_path / name),
            capacity_bytes=capacity,
            volume_capacity_bytes=volume_capacity,
            access_matrix=dict(ACCESS),
            mount_latency_ms=mount_latency_ms,
        ),
    )


def put(store, client, file_name, data, fileset_number):
    """Stage data the way the PUT handler does, then admit it."""
    staged = store.staging_path()
    staged.write_bytes(data)
    return store.put_file(client, file_name, staged, crc32_bytes(data), fileset_number)


@pytest.fixture
def store(tmp_path):
    service = make_store(tmp_path)
    yield service
    service.close()


def test_put_then_get_round_trip(store):
    volume = put(store, "writer", "a.raw", b"hello", fileset_number=7)
    assert volume == "stken-sim-vol-0001"
    assert read_stored(store, "reader", "a.raw") == b"hello"
    assert read_stored(store, "writer", "a.raw") == b"hello"


def test_access_matrix_is_enforced(store):
    put(store, "writer", "a.raw", b"x", 1)
    with pytest.raises(AccessDenied):
        put(store, "reader", "b.raw", b"x", 1)
    with pytest.raises(AccessDenied):
        put(store, "lurker", "b.raw", b"x", 1)
    with pytest.raises(AccessDenied):
        read_stored(store, "lurker", "a.raw")
    with pytest.raises(AccessDenied):
        read_stored(store, "stranger", "a.raw")  # unlisted clients have no access


def test_duplicate_name_rejected(store):
    put(store, "writer", "a.raw", b"x", 1)
    with pytest.raises(DuplicateName):
        put(store, "writer", "a.raw", b"y", 1)


def test_get_missing_file(store):
    with pytest.raises(NotFound):
        read_stored(store, "reader", "ghost.raw")


def test_file_larger_than_a_volume_rejected(store):
    with pytest.raises(FileTooLarge):
        put(store, "writer", "big.raw", b"x" * 101, 1)


def test_store_capacity_enforced(tmp_path):
    service = make_store(tmp_path, capacity=250, volume_capacity=100)
    put(service, "writer", "a", b"x" * 100, 1)
    put(service, "writer", "b", b"x" * 100, 2)
    with pytest.raises(StoreFull):
        put(service, "writer", "c", b"x" * 100, 3)
    put(service, "writer", "d", b"x" * 50, 3)  # smaller one still fits
    service.close()


def test_same_fileset_shares_a_volume_until_full(store):
    # volume capacity is 100; three 40-byte files of one fileset need two volumes
    v1 = put(store, "writer", "a", b"x" * 40, fileset_number=5)
    v2 = put(store, "writer", "b", b"x" * 40, fileset_number=5)
    v3 = put(store, "writer", "c", b"x" * 40, fileset_number=5)
    assert v1 == v2
    assert v3 != v1

    # a different fileset never shares, even though volume 1 has room
    v4 = put(store, "writer", "d", b"x" * 10, fileset_number=6)
    assert v4 not in (v1, v3)

    volumes = {v["volume_id"]: v for v in store.list_volumes()}
    assert volumes[v1]["fileset_number"] == 5
    assert volumes[v4]["fileset_number"] == 6
    assert volumes[v1]["bytes_used"] == 80


def test_mount_switch_counting_and_latency(tmp_path):
    service = make_store(tmp_path, mount_latency_ms=50)
    put(service, "writer", "a", b"1", fileset_number=1)
    put(service, "writer", "b", b"2", fileset_number=2)

    read_stored(service, "reader", "a")
    switches_after_first = service.counters["mount_switches"]
    read_stored(service, "reader", "a")  # same volume: no switch
    assert service.counters["mount_switches"] == switches_after_first

    start = time.monotonic()
    read_stored(service, "reader", "b")  # different volume: pays the latency
    elapsed = time.monotonic() - start
    assert service.counters["mount_switches"] == switches_after_first + 1
    assert elapsed >= 0.05
    service.close()


def test_restart_replays_inventory(tmp_path):
    service = make_store(tmp_path)
    v_a = put(service, "writer", "a", b"alpha", 1)
    put(service, "writer", "b", b"beta", 1)
    before = service.list_volumes()
    service.close()

    reborn = make_store(tmp_path)
    assert reborn.list_volumes() == before
    assert read_stored(reborn, "reader", "a") == b"alpha"
    with pytest.raises(DuplicateName):
        put(reborn, "writer", "a", b"again", 1)
    # volume numbering continues where it left off
    v_new = put(reborn, "writer", "c", b"x" * 99, 9)
    assert v_new > v_a
    reborn.close()


# -- data plane -----------------------------------------------------------

@pytest.fixture
def data_server(store):
    server = Server(StoreDataHandler, store, ("127.0.0.1", 0)).start()
    yield server.bound_addr, store
    server.close()


def test_put_over_the_wire(data_server):
    addr, store = data_server
    volume = put_to_store(addr, "writer", "w.raw", 3, b"wire bytes", crc32_bytes(b"wire bytes"))
    assert volume == "stken-sim-vol-0001"
    assert read_stored(store, "reader", "w.raw") == b"wire bytes"


def test_put_over_the_wire_rejects_bad_crc(data_server):
    addr, store = data_server
    with pytest.raises(RemoteError) as excinfo:
        put_to_store(addr, "writer", "w.raw", 3, b"wire bytes", crc=0xDEAD)
    assert excinfo.value.code == "CRC_MISMATCH"
    with pytest.raises(NotFound):
        read_stored(store, "reader", "w.raw")  # nothing was admitted


GOOD_SEND = "SEND bad.raw 5 00000000"


@pytest.mark.parametrize("put_line,send_line", [
    ("PUT writer", GOOD_SEND),
    ("PUT writer -1", GOOD_SEND),
    ("PUT writer x", GOOD_SEND),
    ("PUT writer 1", "SEND bad.raw -5 00000000"),
    ("PUT writer 1", "SEND bad.raw abc 00000000"),
    ("PUT writer 1", "SEND bad.raw 5 zz"),
    ("PUT writer 1", "SEND bad.raw 5 100000000"),
    ("PUT writer 1", "SEND bad.raw 5"),
], ids=["fileset-missing", "negative-fileset", "fileset-not-a-number", "negative-size",
        "size-not-a-number", "crc-not-hex", "crc-over-32-bits", "missing-field"])
def test_malformed_put_request_is_a_bad_request(data_server, put_line, send_line):
    addr, store = data_server
    with socket.create_connection(addr, timeout=10) as sock:
        rfile = sock.makefile("rb")
        sock.sendall(f"{put_line}\n{send_line}\n".encode())
        reply = read_line(rfile)
    assert reply.startswith("ERR BAD_REQUEST ")
    assert store.list_volumes() == []
    assert list(store.incoming.iterdir()) == []


def test_put_cannot_write_outside_its_volume(tmp_path):
    store = make_store(tmp_path)
    server = Server(StoreDataHandler, store, ("127.0.0.1", 0)).start()
    journal = store.root / "inventory.journal"
    try:
        put_to_store(server.bound_addr, "writer", "a.raw", 1, b"kept", crc32_bytes(b"kept"))
        before = journal.read_bytes()
        for name in ("../inventory.journal", "..", "."):
            with pytest.raises(RemoteError) as excinfo:
                put_to_store(server.bound_addr, "writer", name, 1, b"garbage\n",
                             crc32_bytes(b"garbage\n"))
            assert excinfo.value.code == "VALIDATION"
        assert journal.read_bytes() == before
        assert list(store.incoming.iterdir()) == []
    finally:
        server.close()
        store.close()
    reborn = make_store(tmp_path)
    try:
        assert [f[0] for v in reborn.list_volumes() for f in v["files"]] == ["a.raw"]
        assert read_stored(reborn, "reader", "a.raw") == b"kept"
    finally:
        reborn.close()


def test_put_over_the_wire_maps_errors(data_server):
    addr, _ = data_server
    with pytest.raises(RemoteError) as excinfo:
        put_to_store(addr, "reader", "w.raw", 3, b"x", crc32_bytes(b"x"))
    assert excinfo.value.code == "ACCESS_DENIED"


def test_fetch_over_the_wire_frames_and_checksums(data_server):
    addr, store = data_server
    put(store, "writer", "f.raw", b"framed payload", 2)
    with socket.create_connection(addr, timeout=10) as sock:
        rfile = sock.makefile("rb")
        sock.sendall(b"FETCH reader f.raw\n")
        name, size, crc = parse_send_header(read_line(rfile))
        out = io.BytesIO()
        received_crc = receive_body(rfile, size, out)
    assert name == "f.raw"
    assert out.getvalue() == b"framed payload"
    assert crc == received_crc == crc32_bytes(b"framed payload")


def test_fetch_keeps_the_connection_for_the_next_fetch(data_server):
    # a puller acknowledges nothing: the store answers the next FETCH on the
    # same connection, and closes as soon as the puller shuts its side
    addr, store = data_server
    put(store, "writer", "f.raw", b"framed payload", 2)
    put(store, "writer", "g.raw", b"second payload", 2)
    with socket.create_connection(addr, timeout=2) as sock:
        rfile = sock.makefile("rb")
        for name, body in (("f.raw", b"framed payload"), ("g.raw", b"second payload")):
            sock.sendall(f"FETCH reader {name}\n".encode())
            _name, size, _crc = parse_send_header(read_line(rfile))
            assert rfile.read(size) == body
        sock.shutdown(socket.SHUT_WR)
        started = time.monotonic()
        assert rfile.read(1) == b""  # end of file, not a timeout
        rfile.close()
    assert time.monotonic() - started < 1


def test_an_idle_kept_open_connection_is_closed(data_server, monkeypatch):
    monkeypatch.setattr(wire, "TIMEOUT", 0.2)
    addr, store = data_server
    put(store, "writer", "f.raw", b"framed payload", 2)
    with socket.create_connection(addr, timeout=5) as sock, sock.makefile("rb") as rfile:
        sock.sendall(b"FETCH reader f.raw\n")
        _name, size, _crc = parse_send_header(read_line(rfile))
        assert rfile.read(size) == b"framed payload"
        started = time.monotonic()
        assert rfile.read(1) == b""  # closed by the server, not a client timeout
    assert time.monotonic() - started < 2


def test_a_json_request_after_a_kept_open_fetch_is_answered(data_server):
    addr, store = data_server
    put(store, "writer", "f.raw", b"framed payload", 2)
    with socket.create_connection(addr, timeout=5) as sock, sock.makefile("rb") as rfile:
        sock.sendall(b"FETCH reader f.raw\n")
        _name, size, _crc = parse_send_header(read_line(rfile))
        assert rfile.read(size) == b"framed payload"
        sock.sendall(b'{"id": 7, "op": "status", "args": {}}\n')
        reply = json.loads(rfile.readline())
    assert (reply["id"], reply["ok"], reply["result"]["gets"]) == (7, True, 1)


def test_an_idle_control_connection_is_not_closed(data_server, monkeypatch):
    # a project server's station client, say, does not reconnect
    monkeypatch.setattr(wire, "TIMEOUT", 0.2)
    addr, _store = data_server
    with wire.Client(addr) as client:
        assert client.call("status")["files"] == 0
        time.sleep(0.6)
        assert client.call("status")["files"] == 0


def test_fetch_over_the_wire_denies_unknown_client(data_server):
    addr, store = data_server
    put(store, "writer", "f.raw", b"x", 2)
    with socket.create_connection(addr, timeout=10) as sock:
        rfile = sock.makefile("rb")
        sock.sendall(b"FETCH lurker f.raw\n")
        reply = read_line(rfile)
    assert reply.startswith("ERR ACCESS_DENIED")


MiB = 1 << 20


def test_large_put_rejections_carry_their_codes(tmp_path):
    # the store streams PUT bodies, so an early refusal must still reach the
    # client as ERR <code> and not as a reset connection
    store = make_store(tmp_path, capacity=10**9, volume_capacity=8 * MiB)
    server = Server(StoreDataHandler, store, ("127.0.0.1", 0)).start()
    data = bytes(range(256)) * (8 * MiB // 256)

    def code_of(client, payload, crc=None):
        with pytest.raises(RemoteError) as excinfo:
            put_to_store(server.bound_addr, client, "big.raw", 1, payload,
                         crc32_bytes(payload) if crc is None else crc)
        return excinfo.value.code

    try:
        assert code_of("reader", data) == "ACCESS_DENIED"
        assert code_of("writer", data + b"!") == "FILE_TOO_LARGE"
        assert code_of("writer", data, crc=crc32_bytes(data) ^ 1) == "CRC_MISMATCH"
        assert list(store.root.glob("*-vol-*/*")) == []
        assert list(store.incoming.iterdir()) == []
        volume = put_to_store(server.bound_addr, "writer", "big.raw", 1, data, crc32_bytes(data))
        assert read_stored(store, "reader", "big.raw") == data
        assert code_of("writer", data) == "DUPLICATE_NAME"
        assert [f[0] for v in store.list_volumes() for f in v["files"]] == ["big.raw"]
        assert volume == "stken-sim-vol-0001"
    finally:
        server.close()
        store.close()
