"""Control protocol: framing, dispatch, and error propagation."""

import inspect
import json
import socket
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from samforge.catalog import CatalogClient, CatalogService
from samforge.errors import BadRequest, ConnectFailed, NotFound, RemoteError, ValidationError
from samforge.project import ProjectServer
from samforge.query import Atom, expr_to_wire
from samforge.station import StationService
from samforge.store import StoreService
from samforge.transfer import PullPool
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
    for malformed in ("4750", "127.0.0.1:many", "127.0.0.1:70000", ":4750"):
        with pytest.raises(ValueError):
            parse_addr(malformed)


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


@pytest.mark.parametrize("line", [b'{"op": [1]}', b'{"op": {"a": 1}}', b'{"op": 5}', b"[1]", b"5",
                                  b'{"op": "echo", "args": []}', b'{"op": "echo", "args": null}'])
def test_a_request_without_a_string_op_and_an_args_object_is_a_bad_request(server, line):
    # an unhashable op once failed the op lookup, answered INTERNAL and logged a traceback;
    # a request that was not an object got no answer, and empty args of any type passed
    with socket.create_connection(server.bound_addr, timeout=5) as sock:
        sock.sendall(line + b"\n")
        answer = json.loads(sock.makefile("rb").readline())
    assert answer["error"]["code"] == "BAD_REQUEST"


class TypedService(Dispatcher):
    ops = {"typed": "typed"}

    def typed(self, n: int, names: list[str], either: int | str, maybe: str | None = None,
              shape: dict = None):
        return True


@pytest.mark.parametrize("changes,refusal", [
    ({}, None),
    ({"names": [], "either": "x", "maybe": "m"}, None),
    ({"shape": 5}, None),  # a dict goes unchecked to the parser of its shape
    ({"n": True}, ValidationError),
    ({"n": 1.0}, ValidationError),
    ({"names": "a"}, ValidationError),
    ({"names": ["a", 1]}, ValidationError),
    ({"either": 1.5}, ValidationError),
    ({"either": None}, ValidationError),
    ({"maybe": 1}, ValidationError),
    ({"self": 1}, BadRequest),
    ({"other": 1}, BadRequest),
    ({"n": None}, ValidationError),
])
def test_dispatch_checks_each_argument_against_its_annotation(changes, refusal):
    args = {"n": 1, "names": ["a"], "either": 1, **changes}
    if refusal is None:
        assert TypedService().dispatch("typed", args) is True
        return
    with pytest.raises(refusal) as excinfo:
        TypedService().dispatch("typed", args)
    assert next(iter(changes)) in excinfo.value.msg


@pytest.mark.parametrize("service", [CatalogService, ProjectServer, StationService, StoreService],
                         ids=lambda service: service.__name__)
def test_every_argument_of_every_op_is_checked(service):
    # an unannotated parameter would pass whatever a request sends
    for op, method_name in service.ops.items():
        params = inspect.signature(getattr(service, method_name), eval_str=True).parameters
        for name, param in list(params.items())[1:]:
            assert param.annotation is not param.empty, f"{op}: {name} has no annotation"
            assert service._table[op][1][name] is not None or param.annotation is dict, \
                f"{op}: {name} is not checked"


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


def test_the_lock_auditor_reports_a_remote_call_under_a_service_lock(rig, lock_auditor,
                                                                     tmp_path):
    rig.add_store("stken-sim", {"seeder": "read_write"})
    rig.seed_file("a.raw", b"a", stores=["stken-sim"])
    project, pulls = ProjectServer(tmp_path / "project.journal", rig.catalog_addr), PullPool()
    with Client(rig.catalog_addr) as catalog, project._lock:
        catalog.call("status")
        pulls.pull(rig.store_addr["stken-sim"], "FETCH seeder a.raw", tmp_path / "a.raw")
        elsewhere = threading.Thread(target=catalog.call, args=("status",))
        elsewhere.start()  # the lock is not that thread's
        elsewhere.join(timeout=10)
    assert not elsewhere.is_alive()
    pulls.close()
    project.close()
    assert [v.split("(")[0] for v in lock_auditor] == ["Client.call", "PullPool.pull"]
    assert all("under ProjectServer._lock in MainThread" in v for v in lock_auditor)
    lock_auditor.clear()  # seen; the test passes


PHY = expr_to_wire(Atom("event_type", "=", "phy"))

# (daemon, op, args, field): a wrong-typed value, or an empty name, where an
# id, a name, a path or a number belongs
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
    ("catalog", "define_dataset", {"name": [1], "expr": PHY}, "name"),
    ("catalog", "define_dataset", {"name": 5, "expr": PHY}, "name"),
    ("catalog", "define_dataset", {"name": "", "expr": PHY}, "name"),
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
    ("station", "store", {"record": {"file_name": "g"}, "local_path": [1]}, "local_path"),
    ("station", "store", {"record": {"file_name": "g"}, "local_path": 5}, "local_path"),
    # a bool is not an integer, though Python counts True as 1; each of these was once read as 1
    ("catalog", "add_location", {"file_id": True, "endpoint_name": "cdfa-1",
                                 "path_or_volume": "p"}, "file_id"),
    ("catalog", "get_file", {"name_or_id": True}, "name_or_id"),
    ("catalog", "get_snapshot", {"snapshot_id": True}, "snapshot_id"),
    ("catalog", "get_lineage", {"file_id": 1, "depth": True}, "depth"),
    ("project", "release", {"project_name": "p", "consumer_id": "c", "file_id": True},
     "file_id"),
    ("station", "unpin", {"file_id": True, "project": "p"}, "file_id"),
]


@pytest.mark.parametrize("daemon,op,args,field", WRONG_TYPES,
                         ids=[f"{d}.{op}.{f}" + ("-bool" if args[f] is True else "")
                              for d, op, args, f in WRONG_TYPES])
def test_a_wrong_typed_argument_is_refused_naming_its_field(rig, daemon, op, args, field):
    rig.add_store("stken-sim", {"cdfa-1": "read_only", "seeder": "read_write"})
    station = rig.add_station("cdfa-1", [("stken-sim", "read_only", 4)],
                              served=True)
    rig.seed_file("f", b"x", stores=["stken-sim"])
    station.fetch_file("f", requesting_project="p")
    project = ProjectServer(rig.root / "project.journal", rig.catalog_addr)
    server = Server(ControlHandler, project, ("127.0.0.1", 0)).start()
    addrs = {"catalog": rig.catalog_addr, "station": rig.station_addr["cdfa-1"],
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


def test_add_location_takes_no_verified_at(rig):
    # nothing set or read the field, so whatever a caller sent was journaled as given
    file_id = rig.seed_file("f", b"x", stores=[])
    before = rig.catalog_service.journal.last_seq
    with Client(rig.catalog_addr) as client:
        for verified_at in ("x", [1], None):
            with pytest.raises(RemoteError) as excinfo:
                client.call("add_location", file_id=file_id, endpoint_name="stken-sim",
                            path_or_volume="p", verified_at=verified_at)
            assert excinfo.value.code == "BAD_REQUEST"
            assert "verified_at" in excinfo.value.msg
    assert rig.catalog_service.journal.last_seq == before


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)


@pytest.mark.parametrize("daemon", ["catalog", "project", "station"])
def test_no_request_arguments_answer_internal_or_journal_a_refusal(rig, daemon):
    # only the fuzzed daemon is asked and no dataset is defined, so no project starts
    # and no next reaches a station
    rig.add_store("stken-sim", {"cdfa-1": "read_only", "seeder": "read_write"})
    station = rig.add_station("cdfa-1", [("stken-sim", "read_only", 4)],
                              served=True)
    rig.seed_file("f", b"x", stores=["stken-sim"])
    station.fetch_file("f", requesting_project="p")  # resident, so a prefetch of it pulls nothing
    project = ProjectServer(rig.root / "project.journal", rig.catalog_addr)
    server = Server(ControlHandler, project, ("127.0.0.1", 0)).start()
    services = {"catalog": (rig.catalog_service, rig.catalog_addr),
                "station": (station, rig.station_addr["cdfa-1"]),
                "project": (project, format_addr(server.bound_addr))}
    service, addr = services[daemon]
    journals = (rig.catalog_service.journal, project.journal)
    names = {op: [*inspect.signature(getattr(service, method_name)).parameters, "verified_at"]
             for op, method_name in service.ops.items()}

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def probe(data):
        op = data.draw(st.sampled_from(sorted(names)))
        args = data.draw(st.dictionaries(st.sampled_from(names[op]), JSON))
        before = [journal.last_seq for journal in journals]
        try:
            client.call(op, **args)
        except RemoteError as e:
            assert e.code != "INTERNAL", (op, args, e.msg)
            assert [journal.last_seq for journal in journals] == before, (op, args, e.code)

    try:
        with Client(addr) as client:
            probe()
    finally:
        server.close()
        project.close()
