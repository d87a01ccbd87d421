"""Shared fixtures: loopback daemon rigs, spawned daemons, acceptance reporting."""

from __future__ import annotations

import os
import subprocess
import sys
import threading

import pytest

from samforge.catalog import CatalogClient, CatalogService
from samforge.records import FileRecord
from samforge.station import EndpointSpec, StationConfig, StationDataHandler, StationService
from samforge.store import StoreConfig, StoreDataHandler, StoreService
from samforge.transfer import crc32_bytes, put_to_store
from samforge.wire import ControlHandler, Server, format_addr


class LoopbackRig:
    """A catalog plus any stores/stations a test asks for, all on loopback.

    Every server binds an ephemeral port; close() tears everything down.
    Stores and stations are reachable both in process (the service
    objects) and over their one address each, control and data alike.
    """

    def __init__(self, root, known_endpoints=None):
        self.root = root
        self._servers = []
        self._services = []
        self.catalog_service = CatalogService(root / "catalog.journal",
                                              known_endpoints=known_endpoints)
        self._services.append(self.catalog_service)
        self.catalog_addr = self._serve(self.catalog_service)
        self.stores: dict[str, StoreService] = {}
        self.store_addr: dict[str, str] = {}
        self.stations: dict[str, StationService] = {}
        self.station_addr: dict[str, str] = {}

    def _serve(self, service, handler=ControlHandler) -> str:
        server = Server(handler, service, ("127.0.0.1", 0)).start()
        self._servers.append(server)
        return format_addr(server.bound_addr)

    def add_store(self, name, access, capacity=10**9, volume_capacity=10**6,
                  mount_latency_ms=0) -> StoreService:
        service = StoreService(
            StoreConfig(
                name=name,
                root_dir=str(self.root / name),
                capacity_bytes=capacity,
                volume_capacity_bytes=volume_capacity,
                access_matrix=dict(access),
                mount_latency_ms=mount_latency_ms,
            ),
        )
        self.stores[name] = service
        self._services.append(service)
        self.store_addr[name] = self._serve(service, StoreDataHandler)
        return service

    def add_station(self, name, endpoints, cache_capacity=10**8, route_target=None,
                    served=False) -> StationService:
        """endpoints: (endpoint_name, access, slots) over stores and stations
        already added to the rig."""
        specs = []
        for ep, access, slots in endpoints:
            if ep in self.stores:
                scheme, addr = "tape", self.store_addr[ep]
            else:
                scheme, addr = "stn", self.station_addr.get(ep, "127.0.0.1:1")
            specs.append(EndpointSpec(name=ep, scheme=scheme, access=access,
                                      addr=addr, max_concurrent_transfers=slots))
        service = StationService(
            StationConfig(
                name=name,
                cache_dir=str(self.root / name),
                cache_capacity_bytes=cache_capacity,
                known_endpoints=specs,
                route_target=route_target,
            ),
            self.catalog_addr,
        )
        self.stations[name] = service
        self._services.append(service)
        if served:
            self.station_addr[name] = self._serve(service, StationDataHandler)
        return service

    def catalog_client(self) -> CatalogClient:
        return CatalogClient(self.catalog_addr)

    def seed_file(self, name, data, fileset=0, stores=(), client="seeder",
                  **fields) -> int:
        """Declare one file and place its bytes on the given stores."""
        record = FileRecord(
            file_name=name,
            size_bytes=len(data),
            crc32=crc32_bytes(data),
            data_tier=fields.pop("data_tier", "raw"),
            event_type=fields.pop("event_type", "phy"),
            program_version=fields.pop("program_version", 1),
            calibration_set=fields.pop("calibration_set", 1),
            **fields,
        )
        with self.catalog_client() as catalog:
            file_id = catalog.declare_file(record)
            for store in stores:
                volume = put_to_store(self.store_addr[store], client, name,
                                      fileset, data, record.crc32)
                catalog.add_location(file_id, store, volume)
        return file_id

    def close(self) -> None:
        for server in self._servers:
            server.close()
        # stations first: a prefetch still running may call the catalog
        for service in reversed(self._services):
            if hasattr(service, "close"):
                service.close()


@pytest.fixture(autouse=True)
def no_prefetch_worker_left():
    """Fail a test that leaves a station's prefetch worker running."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate()
            if t.name.startswith("prefetch-") and t not in before]
    assert not left, f"prefetch workers still running after teardown: {left}"


@pytest.fixture
def rig(tmp_path):
    rig = LoopbackRig(tmp_path)
    yield rig
    rig.close()


def spawn_daemon(*argv) -> tuple[subprocess.Popen, str]:
    """Run ``samforge <argv>`` until it prints READY; returns (process, address).

    The child ignores $SAMFORGE_CONFIG; end it with stop_daemon.
    """
    env = dict(os.environ)
    env.pop("SAMFORGE_CONFIG", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "samforge.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    line = proc.stdout.readline().strip()
    if not line.startswith("READY "):
        proc.kill()
        _, err = proc.communicate()
        raise AssertionError(f"daemon never came up: {line!r}\n{err}")
    return proc, line.split()[1]


def stop_daemon(proc: subprocess.Popen, kill: bool = False) -> None:
    """SIGTERM (or SIGKILL) a spawned daemon, reap it and close its pipes."""
    if kill:
        proc.kill()
    else:
        proc.terminate()
    proc.wait(timeout=10)
    proc.stdout.close()
    proc.stderr.close()


def read_stored(store, client, file_name) -> bytes:
    """The bytes a store holds under file_name, read as a FETCH would."""
    body, _size, _crc = store.open_file(client, file_name)
    with body:
        return body.read()


# station sections that each break one rule of StationConfig, with its reason
BAD_STATIONS = {
    "zero-capacity": ("cache_capacity_bytes = 0\n", "cache_capacity_bytes must be positive"),
    "duplicate-endpoint": ("endpoints =\n    s1 read_only\n    s1 read_write\n",
                           "duplicate endpoint names"),
    "no-transfer-slots": ("endpoints =\n    s1 read_only 0\n",
                          "an endpoint needs at least 1 transfer slot"),
    "route-target-not-an-endpoint": (
        "route_target = s2\nendpoints =\n    s1 read_write\n",
        "a route_target must be one of the station's endpoints"),
}


def write_bad_station(directory, case):
    """A topology whose station `bad` breaks the rule BAD_STATIONS[case] names."""
    path = directory / "bad.ini"
    path.write_text("[DEFAULT]\nlisten = 127.0.0.1:0\n\n[store s1]\n\n[store s2]\n\n"
                    "[station bad]\n" + BAD_STATIONS[case][0])
    return path


def record_ops(service, monkeypatch) -> list[str]:
    """The ops service dispatches from now on, in order."""
    ops = []
    dispatch = service.dispatch

    def recording(op, args):
        ops.append(op)
        return dispatch(op, args)

    monkeypatch.setattr(service, "dispatch", recording)
    return ops


def run_threads(n, target):
    """Run target(i) in n threads started together; re-raise the first error."""
    errors = []
    barrier = threading.Barrier(n)

    def wrapped(i):
        barrier.wait(timeout=30)
        try:
            target(i)
        except BaseException as e:  # noqa: BLE001 - propagated to the test
            errors.append(e)

    threads = [threading.Thread(target=wrapped, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    if errors:
        raise errors[0]
    return errors


# -- acceptance criterion reporting ---------------------------------------

_CRITERIA = {
    1: "end-to-end replay",
    2: "corruption recovery",
    3: "access and rate enforcement",
    4: "migration oracle",
    5: "FSM conformance",
    6: "durability under kill -9",
    7: "cache discipline",
    8: "checksum vectors",
}
_acceptance_results: dict[int, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py::test_criterion_" not in report.nodeid:
        return
    number = int(report.nodeid.split("test_criterion_")[1].split("_")[0])
    if report.failed:
        _acceptance_results[number] = "FAIL"
    elif report.skipped:
        _acceptance_results[number] = "SKIP"
    elif report.when == "call":
        _acceptance_results.setdefault(number, "PASS")


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_CRITERIA):
        verdict = _acceptance_results.get(number, "NOT RUN")
        terminalreporter.write_line(
            f"criterion {number} ({_CRITERIA[number]}): {verdict}")
