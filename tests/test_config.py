"""Topology file loading: defaults, path resolution, cross checks, serving."""

import errno
import socket

import pytest

from samforge.catalog import CatalogClient
from samforge.config import (
    DEFAULT_CATALOG_PORT,
    DEFAULT_MAX_CONCURRENT,
    DEFAULT_PROJECT_PORT,
    load_topology,
    serve,
)
from samforge.errors import JournalCorrupt, ValidationError
from samforge.records import FileRecord
from samforge.transfer import crc32_bytes, parse_send_header, put_to_store, read_line
from samforge.wire import Client, parse_addr

from conftest import BAD_STATIONS, write_bad_station

FULL = """
[catalog]
listen = 127.0.0.1:5750
journal = state/catalog.journal

[project]
listen = 127.0.0.1:5753
journal = /var/lib/sam/project.journal

[station fcdf-router]
listen = 127.0.0.1:5751
cache_dir = cache/router
cache_capacity_bytes = 50000000
route_target = stken-sim
endpoints =
    stken-sim read_write 4
    cdfen-sim read_only 2

[station cdfa-1]
listen = 127.0.0.1:5761
data_listen = 127.0.0.1:6761
endpoints =
    stken-sim read_only
    fcdf-router read_only

[store stken-sim]
listen = 127.0.0.1:5752
root_dir = vaults/stken
capacity_bytes = 1000000
volume_capacity_bytes = 8000
mount_latency_ms = 25
access =
    fcdf-router read_write
    cdfa-1 read_only
    outsider none

[store cdfen-sim]
listen = 127.0.0.1:5754
access =
    fcdf-router read_only
"""


@pytest.fixture
def topology(tmp_path):
    config_file = tmp_path / "topology.ini"
    config_file.write_text(FULL)
    return tmp_path, load_topology(config_file)


def endpoint_lines(station):
    return [(s.name, s.access, s.max_concurrent_transfers) for s in station.known_endpoints]


def test_daemon_sections_and_relative_journal_paths(topology):
    base, config = topology
    assert config.catalog.listen == "127.0.0.1:5750"
    assert config.catalog.journal == str(base / "state/catalog.journal")
    assert config.project.listen == "127.0.0.1:5753"
    assert config.project.journal == "/var/lib/sam/project.journal"  # absolute kept


def test_station_sections(topology):
    base, config = topology
    router = config.stations["fcdf-router"]
    assert router.is_router  # its route target is a store
    assert router.route_target == "stken-sim"
    assert router.cache_dir == str(base / "cache/router")
    assert router.cache_capacity_bytes == 50_000_000
    assert endpoint_lines(router) == [("stken-sim", "read_write", 4),
                                      ("cdfen-sim", "read_only", 2)]
    assert router.data_listen is None  # one address unless the file sets another

    analysis = config.stations["cdfa-1"]
    assert not analysis.is_router  # no route target
    assert analysis.data_listen == "127.0.0.1:6761"
    assert endpoint_lines(analysis) == [
        ("stken-sim", "read_only", DEFAULT_MAX_CONCURRENT),
        ("fcdf-router", "read_only", DEFAULT_MAX_CONCURRENT),
    ]


def test_store_sections(topology):
    base, config = topology
    stken = config.stores["stken-sim"]
    assert stken.root_dir == str(base / "vaults/stken")
    assert (stken.capacity_bytes, stken.volume_capacity_bytes) == (1_000_000, 8000)
    assert stken.mount_latency_ms == 25
    assert stken.access_matrix == {"fcdf-router": "read_write", "cdfa-1": "read_only",
                                   "outsider": "none"}
    assert stken.data_listen is None
    assert config.stores["cdfen-sim"].root_dir == str(base / "state/cdfen-sim")


def test_endpoint_lookups(topology):
    _, config = topology
    assert config.endpoint_names() == {"fcdf-router", "cdfa-1", "stken-sim", "cdfen-sim"}
    schemes = {spec.name: spec.scheme for spec in config.stations["cdfa-1"].known_endpoints}
    assert schemes["fcdf-router"] == "stn"
    assert schemes["stken-sim"] == "tape"


def test_station_config_materializes_endpoint_specs(topology):
    _, config = topology
    station = config.stations["fcdf-router"]
    assert station.name == "fcdf-router"
    assert station.route_target == "stken-sim"
    by_name = {spec.name: spec for spec in station.known_endpoints}
    assert by_name["stken-sim"].scheme == "tape"
    assert by_name["stken-sim"].addr == "127.0.0.1:5752"  # the peer's listen
    assert by_name["stken-sim"].max_concurrent_transfers == 4
    assert by_name["cdfen-sim"].access == "read_only"

    peer = config.stations["cdfa-1"]
    router_spec = {s.name: s for s in peer.known_endpoints}["fcdf-router"]
    assert router_spec.scheme == "stn"
    assert router_spec.addr == "127.0.0.1:5751"

    with pytest.raises(ValidationError):
        config.section("station", "nosuch")


def test_store_config_materialization(topology):
    _, config = topology
    store = config.stores["stken-sim"]
    assert store.name == "stken-sim"
    assert store.capacity_bytes == 1_000_000
    assert store.volume_capacity_bytes == 8000
    assert store.mount_latency_ms == 25
    assert store.access_matrix["cdfa-1"] == "read_only"
    with pytest.raises(ValidationError):
        config.section("store", "stken")  # exact names only


def test_missing_daemon_sections_fall_back_to_defaults(tmp_path):
    config_file = tmp_path / "minimal.ini"
    config_file.write_text("[store s1]\nlisten = 127.0.0.1:9000\n")
    config = load_topology(config_file)
    assert config.catalog.listen == f"127.0.0.1:{DEFAULT_CATALOG_PORT}"
    assert config.catalog.journal == str(tmp_path / "state/catalog.journal")
    assert config.project.listen == f"127.0.0.1:{DEFAULT_PROJECT_PORT}"
    assert config.stores["s1"].access_matrix == {}


def test_default_keys_reach_absent_catalog_and_project_sections(tmp_path):
    config_file = tmp_path / "defaults.ini"
    config_file.write_text("[DEFAULT]\nlisten = 127.0.0.1:0\n\n[store s1]\n")
    config = load_topology(config_file)
    assert config.catalog.listen == "127.0.0.1:0"
    assert config.project.listen == "127.0.0.1:0"


def test_missing_file_is_a_validation_error(tmp_path):
    with pytest.raises(ValidationError):
        load_topology(tmp_path / "absent.ini")


def test_problems_are_collected_not_first_failed(tmp_path):
    config_file = tmp_path / "broken.ini"
    config_file.write_text("""
[station r1]
endpoints =
    ghost read_write
    stray banana

[typo section]
x = 1
""")
    with pytest.raises(ValidationError) as excinfo:
        load_topology(config_file)
    problems = excinfo.value.problems
    assert any("endpoint 'ghost' names no station or store" in p for p in problems)
    assert any("bad endpoint line 'stray banana'" in p for p in problems)
    assert any("unrecognized section [typo section]" in p for p in problems)
    assert len(problems) == 3


@pytest.mark.parametrize("case", sorted(BAD_STATIONS))
def test_a_station_rule_fails_at_load_naming_the_station(tmp_path, case):
    with pytest.raises(ValidationError) as excinfo:
        load_topology(write_bad_station(tmp_path, case))
    assert excinfo.value.problems == [f"station bad: {BAD_STATIONS[case][1]}"]


def test_a_malformed_number_is_a_problem_not_a_crash(tmp_path):
    config_file = tmp_path / "numbers.ini"
    config_file.write_text("[station a1]\ncache_capacity_bytes = lots\n\n"
                           "[store s1]\nlisten = 127.0.0.1:many\n")
    with pytest.raises(ValidationError) as excinfo:
        load_topology(config_file)
    assert [p.split(":")[0] for p in excinfo.value.problems] == ["station a1", "store s1"]


@pytest.mark.parametrize("section, problem", [
    ("[catalog]\nlisten = 127.0.0.1:many\n", "catalog: address '127.0.0.1:many' is not host:port"),
    ("[project]\nlisten = 4753\n", "project: address '4753' is not host:port"),
    ("[station a1]\ndata_listen = 127.0.0.1:70000\n",
     "station a1: address '127.0.0.1:70000' is not host:port"),
    ("[store s1]\nlisten = :4752\n", "store s1: address ':4752' is not host:port"),
], ids=["catalog-listen", "project-listen", "station-data_listen", "store-listen"])
def test_a_malformed_address_is_a_problem_naming_its_daemon(tmp_path, section, problem):
    config_file = tmp_path / "addresses.ini"
    config_file.write_text(section)
    with pytest.raises(ValidationError) as excinfo:
        load_topology(config_file)
    assert excinfo.value.problems == [problem]


def test_a_station_routed_at_a_station_needs_a_router_there(tmp_path):
    # only a router takes a STORE: a loop, or a chain through an analysis
    # station, refuses every upload
    config_file = tmp_path / "routes.ini"
    config_file.write_text("[store s1]\n\n"
                           "[station r1]\nroute_target = s1\nendpoints =\n    s1 read_write\n\n"
                           "[station a1]\nroute_target = a2\nendpoints =\n    a2 read_write\n\n"
                           "[station a2]\nroute_target = a1\nendpoints =\n    a1 read_write\n\n"
                           "[station a3]\nroute_target = r1\nendpoints =\n    r1 read_write\n\n"
                           "[station a4]\nroute_target = a3\nendpoints =\n    a3 read_write\n")
    with pytest.raises(ValidationError) as excinfo:
        load_topology(config_file)
    assert excinfo.value.problems == [
        f"station {name}: route_target {target!r} is a station that routes to no store"
        for name, target in (("a1", "a2"), ("a2", "a1"), ("a4", "a3"))]


def test_route_target_must_exist(tmp_path):
    config_file = tmp_path / "bad_route.ini"
    config_file.write_text("""
[station r1]
route_target = nowhere
""")
    with pytest.raises(ValidationError) as excinfo:
        load_topology(config_file)
    assert any("route_target 'nowhere'" in p for p in excinfo.value.problems)


def test_station_and_store_names_share_one_namespace(tmp_path):
    config_file = tmp_path / "dup.ini"
    config_file.write_text("[station dup]\n\n[store dup]\n")
    with pytest.raises(ValidationError) as excinfo:
        load_topology(config_file)
    assert "station and store names must be unique" in excinfo.value.problems


def test_bad_store_access_lines_are_reported(tmp_path):
    config_file = tmp_path / "bad_access.ini"
    config_file.write_text("""
[store s1]
access =
    someone read_write extra
    other sometimes
""")
    with pytest.raises(ValidationError) as excinfo:
        load_topology(config_file)
    problems = excinfo.value.problems
    assert any("bad access line 'someone read_write extra'" in p for p in problems)
    assert any("bad access line 'other sometimes'" in p for p in problems)


def served_rig(tmp_path, extra=""):
    """Store s1 holding f.raw, readable by station a1, both served from one file."""
    config_file = tmp_path / "one-port.ini"
    config_file.write_text("[DEFAULT]\nlisten = 127.0.0.1:0\n\n"
                           f"[store s1]\n{extra}access =\n    a1 read_only\n    seeder read_write\n\n"
                           "[station a1]\nendpoints =\n    s1 read_only\n")
    topology = load_topology(config_file)
    served = serve(topology, [("catalog", "catalog"), ("store", "s1"), ("station", "a1")])
    with CatalogClient(topology.catalog.listen) as catalog:
        file_id = catalog.declare_file(FileRecord("f.raw", 5, crc32_bytes(b"bytes"),
                                                  "raw", "phy", 1, 1))
        volume = put_to_store(topology.stores["s1"].listen, "seeder", "f.raw", 0, b"bytes",
                              crc32_bytes(b"bytes"))
        catalog.add_location(file_id, "s1", volume)
    return topology, served


def fetched(addr, request_line) -> bytes:
    with socket.create_connection(parse_addr(addr), timeout=10) as sock, \
            sock.makefile("rb") as rfile:
        sock.sendall(request_line.encode() + b"\n")
        _name, size, _crc = parse_send_header(read_line(rfile))
        return rfile.read(size)


def status_of(addr) -> dict:
    with Client(addr) as client:
        return client.call("status")


def test_a_store_and_a_station_answer_control_and_data_on_one_address(tmp_path):
    topology, served = served_rig(tmp_path)
    try:
        assert [len(daemon.servers) for daemon in served] == [1, 1, 1]
        store, station = topology.stores["s1"].listen, topology.stations["a1"].listen
        assert status_of(store)["name"] == "s1"
        assert fetched(store, "FETCH a1 f.raw") == b"bytes"
        served[2].service.fetch_file("f.raw")  # pulled from the store's one address
        assert status_of(station)["name"] == "a1"
        assert fetched(station, "FETCH f.raw") == b"bytes"
    finally:
        for daemon in reversed(served):
            daemon.close()


def test_data_listen_is_one_more_address_answering_both_planes(tmp_path):
    topology, served = served_rig(tmp_path, "data_listen = 127.0.0.1:0\n")
    try:
        store = topology.stores["s1"]
        assert len(served[1].servers) == 2 and store.data_listen != store.listen
        assert status_of(store.data_listen)["name"] == "s1"
        assert fetched(store.data_listen, "FETCH a1 f.raw") == b"bytes"
        [spec] = topology.stations["a1"].known_endpoints
        assert spec.addr == store.listen  # peers never use the extra address
    finally:
        for daemon in reversed(served):
            daemon.close()


def _refuses(addr) -> bool:
    try:
        socket.create_connection(parse_addr(addr), timeout=5).close()
    except ConnectionRefusedError:
        return True
    return False


def test_serve_closes_what_it_bound_when_a_port_is_taken(tmp_path):
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        port = taken.getsockname()[1]
        config_file = tmp_path / "taken.ini"
        config_file.write_text("[catalog]\nlisten = 127.0.0.1:0\n\n"
                               f"[project]\nlisten = 127.0.0.1:{port}\n")
        topology = load_topology(config_file)
        with pytest.raises(OSError) as excinfo:
            serve(topology, topology.daemons())
    assert excinfo.value.errno == errno.EADDRINUSE
    assert topology.catalog.listen != "127.0.0.1:0"  # bound before the project failed
    # excinfo holds serve's frame and so every server it bound: the port is
    # free only if serve closed them itself
    assert _refuses(topology.catalog.listen)


def test_serve_closes_what_it_built_when_a_later_daemon_fails(tmp_path):
    config_file = tmp_path / "corrupt.ini"
    config_file.write_text("[DEFAULT]\nlisten = 127.0.0.1:0\n\n"
                           "[catalog]\n\n[project]\n\n[store s1]\n")
    (tmp_path / "state").mkdir()
    (tmp_path / "state" / "project.journal").write_bytes(b"damage\n{}\n")
    topology = load_topology(config_file)
    with pytest.raises(JournalCorrupt):
        serve(topology, topology.daemons())
    addrs = [topology.catalog.listen, topology.stores["s1"].listen, topology.project.listen]
    assert not any(addr.endswith(":0") for addr in addrs)
    assert [_refuses(addr) for addr in addrs] == [True] * 3


def test_serve_points_endpoint_specs_at_the_bound_data_ports(tmp_path):
    config_file = tmp_path / "ephemeral.ini"
    config_file.write_text("[DEFAULT]\nlisten = 127.0.0.1:0\n\n[store s1]\n\n"
                           "[station a1]\nendpoints =\n    s1 read_only\n")
    topology = load_topology(config_file)
    served = serve(topology, [("store", "s1"), ("station", "a1")])
    try:
        station = served[1].service
        assert station.config is topology.stations["a1"]
        [spec] = station.config.known_endpoints
        assert spec.addr == topology.stores["s1"].listen
        assert not spec.addr.endswith(":0")
    finally:
        for daemon in reversed(served):
            daemon.close()
