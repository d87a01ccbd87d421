"""Control protocol: framing, dispatch, and error propagation."""

import threading
import time

import pytest

from samforge.catalog import CatalogClient, CatalogService
from samforge.errors import ConnectFailed, NotFound, RemoteError
from samforge.project import ProjectServer
from samforge.query import Atom
from samforge.wire import (
    Client,
    ControlHandler,
    Dispatcher,
    Server,
    format_addr,
    parse_addr,
)


class EchoService(Dispatcher):
    ops = {"echo": "echo", "boom": "boom", "add": "add", "broken": "broken"}

    def echo(self, value):
        return value

    def add(self, a, b):
        return a + b

    def boom(self):
        raise NotFound("gone")

    def broken(self):
        return int([1])  # a TypeError from the op's own body, not from its arguments


@pytest.fixture
def server():
    server = Server(ControlHandler, EchoService(), ("127.0.0.1", 0)).start()
    yield server
    server.close()


def test_parse_addr_forms():
    assert parse_addr("127.0.0.1:4750") == ("127.0.0.1", 4750)
    assert parse_addr(("localhost", 99)) == ("localhost", 99)
    assert parse_addr(["localhost", "99"]) == ("localhost", 99)
    with pytest.raises(ValueError):
        parse_addr("4750")


def test_round_trip_preserves_json_values(server):
    with Client(format_addr(server.bound_addr)) as client:
        payload = {"nested": [1, 2, {"deep": None}], "s": "x"}
        assert client.call("echo", value=payload) == payload
        assert client.call("add", a=2, b=3) == 5


def test_remote_error_carries_wire_code(server):
    with Client(format_addr(server.bound_addr)) as client:
        with pytest.raises(RemoteError) as excinfo:
            client.call("boom")
        assert excinfo.value.code == "NOT_FOUND"
        assert excinfo.value.msg == "gone"
        # the connection survives an error response
        assert client.call("echo", value=1) == 1


def test_unknown_op_and_bad_args(server):
    with Client(format_addr(server.bound_addr)) as client:
        with pytest.raises(RemoteError) as excinfo:
            client.call("no_such_op")
        assert excinfo.value.code == "UNKNOWN_OP"
        with pytest.raises(RemoteError) as excinfo:
            client.call("add", a=1)  # missing argument
        assert excinfo.value.code == "BAD_REQUEST"
        with pytest.raises(RemoteError) as excinfo:
            client.call("add", a=1, b=2, c=3)  # unexpected argument
        assert excinfo.value.code == "BAD_REQUEST"
        with pytest.raises(RemoteError) as excinfo:
            client.call("broken")
        assert excinfo.value.code == "INTERNAL"


def test_connect_failed_has_conn_code():
    client = Client("127.0.0.1:1")  # nothing listens on port 1
    with pytest.raises(ConnectFailed) as excinfo:
        client.call("echo", value=1)
    assert excinfo.value.code == "CONN"


def test_concurrent_clients_get_matching_responses(server):
    addr = format_addr(server.bound_addr)
    results = {}

    def worker(i):
        with Client(addr) as client:
            results[i] = [client.call("add", a=i, b=n) for n in range(20)]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == {i: [i + n for n in range(20)] for i in range(8)}


def test_server_close_is_immediate():
    server = Server(ControlHandler, EchoService(), ("127.0.0.1", 0)).start()
    addr = format_addr(server.bound_addr)
    with Client(addr) as client:
        assert client.call("echo", value=1) == 1
    time.sleep(0.05)  # let the serving thread go back to waiting for connections
    start = time.monotonic()
    server.close()
    assert time.monotonic() - start < 0.2
    with pytest.raises(ConnectFailed):
        Client(addr).call("echo", value=1)  # the port is released


def test_close_cuts_connections_already_open(tmp_path):
    # a service closed after its server must not see another request
    service = CatalogService(tmp_path / "catalog.journal")
    server = Server(ControlHandler, service, ("127.0.0.1", 0)).start()
    with CatalogClient(format_addr(server.bound_addr)) as catalog:
        catalog.define_dataset("before", Atom("event_type", "=", "phy"))
        server.close()
        service.close()
        with pytest.raises(ConnectFailed):
            catalog.define_dataset("after", Atom("event_type", "=", "phy"))


# (daemon, op, args, field): a list where an id, a name or a number belongs
WRONG_TYPES = [
    ("catalog", "get_locations", {"file_id": [1]}, "file_id"),
    ("catalog", "add_location", {"file_id": [1], "endpoint_name": "cdfa-1",
                                 "path_or_volume": "p"}, "file_id"),
    ("catalog", "add_location", {"file_id": 1, "endpoint_name": [1],
                                 "path_or_volume": "p"}, "endpoint_name"),
    ("catalog", "add_location", {"file_id": 1, "endpoint_name": "cdfa-1",
                                 "path_or_volume": [1]}, "path_or_volume"),
    ("catalog", "remove_location", {"file_id": [1], "endpoint_name": "stken-sim"}, "file_id"),
    ("catalog", "remove_location", {"file_id": 1, "endpoint_name": [1]}, "endpoint_name"),
    ("catalog", "get_lineage", {"file_id": [1], "depth": 1}, "file_id"),
    ("catalog", "get_lineage", {"file_id": 1, "depth": [1]}, "depth"),
    ("catalog", "get_snapshot", {"snapshot_id": [1]}, "snapshot_id"),
    ("catalog", "resolve_dataset", {"name": [1]}, "name"),
    ("catalog", "take_snapshot", {"dataset_name": [1]}, "dataset_name"),
    ("project", "status", {"project_name": [1]}, "project_name"),
    ("project", "start", {"project_name": [1], "dataset_name": "d"}, "project_name"),
    ("project", "start", {"project_name": "q", "dataset_name": [1]}, "dataset_name"),
    ("project", "next", {"project_name": [1], "consumer_id": "c",
                         "station": "127.0.0.1:1"}, "project_name"),
    ("project", "next", {"project_name": "p", "consumer_id": [1],
                         "station": "127.0.0.1:1"}, "consumer_id"),
    ("project", "release", {"project_name": [1], "consumer_id": "c", "file_id": 1},
     "project_name"),
    ("project", "release", {"project_name": "p", "consumer_id": "c", "file_id": [1]},
     "file_id"),
    ("station", "fetch", {"file_name": [1]}, "file_name"),
    ("station", "fetch", {"file_name": "f", "requesting_project": [1]}, "requesting_project"),
    ("station", "unpin", {"file_id": [1], "project": "p"}, "file_id"),
    ("station", "unpin", {"file_id": 1, "project": [1]}, "project"),
]


@pytest.mark.parametrize("daemon,op,args,field", WRONG_TYPES,
                         ids=[f"{d}.{op}.{f}" for d, op, _, f in WRONG_TYPES])
def test_a_wrong_typed_argument_is_refused_naming_its_field(rig, daemon, op, args, field):
    rig.add_store("stken-sim", {"cdfa-1": "read_only", "seeder": "read_write"})
    station = rig.add_station("cdfa-1", [("stken-sim", "read_only", 4)],
                              with_control_server=True)
    rig.seed_file("f", b"x", stores=["stken-sim"])
    station.fetch_file("f", requesting_project="p")
    project = ProjectServer(rig.root / "project.journal", rig.catalog_addr)
    server = Server(ControlHandler, project, ("127.0.0.1", 0)).start()
    addrs = {"catalog": rig.catalog_addr, "station": rig.station_control["cdfa-1"],
             "project": format_addr(server.bound_addr)}
    try:
        with CatalogClient(rig.catalog_addr) as catalog:
            catalog.define_dataset("d", Atom("event_type", "=", "phy"))
        project.start_project("p", "d")
        journals = (rig.catalog_service.journal, project.journal)
        before = [journal.last_seq for journal in journals]
        with Client(addrs[daemon]) as client:
            with pytest.raises(RemoteError) as excinfo:
                client.call(op, **args)
        assert excinfo.value.code == "VALIDATION", excinfo.value.msg
        assert field in excinfo.value.msg
        assert [journal.last_seq for journal in journals] == before
    finally:
        server.close()
        project.close()
