"""Topology configuration: one INI file describing the whole deployment.

Sections name the daemons; stations list which endpoints they may move
bytes through, and stores list who may read or write them::

    [catalog]
    listen = 127.0.0.1:4750
    journal = state/catalog.journal

    [project]
    listen = 127.0.0.1:4753
    journal = state/project.journal

    [station fcdf-router]
    role = router
    listen = 127.0.0.1:4751
    data_listen = 127.0.0.1:4761
    cache_dir = state/fcdf-router
    cache_capacity_bytes = 50000000
    route_target = stken-sim
    endpoints =
        stken-sim read_write 4
        cdfen-sim read_only 2

    [store stken-sim]
    listen = 127.0.0.1:4752
    data_listen = 127.0.0.1:4762
    root_dir = state/stken-sim
    capacity_bytes = 1000000000
    volume_capacity_bytes = 8000000
    mount_latency_ms = 0
    access =
        fcdf-router read_write
        cdfa-1 read_only

An endpoint line is `<name> <access> [max_concurrent_transfers]`; the
scheme (stn for stations, tape for stores) and the peer's data address
come from the named section, so they are written once.  Relative paths
resolve against the config file's directory.  Keys under ``[DEFAULT]`` apply
to every section; port 0 asks the kernel for a free port.  :func:`serve`
starts daemons from a topology.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .catalog import CatalogService
from .errors import ValidationError
from .project import ProjectServer
from .station import (
    DEFAULT_MAX_CONCURRENT,
    EndpointSpec,
    StationConfig,
    StationDataHandler,
    StationService,
)
from .store import ACCESS_LEVELS, StoreConfig, StoreDataHandler, StoreService
from .wire import ControlHandler, Server, format_addr

DEFAULT_CATALOG_PORT = 4750
DEFAULT_STATION_PORT = 4751
DEFAULT_STORE_PORT = 4752
DEFAULT_PROJECT_PORT = 4753

CONFIG_ENV_VAR = "SAMFORGE_CONFIG"


@dataclass
class DaemonAddrs:
    listen: str
    journal: str


@dataclass
class _StationSection:
    name: str
    role: str
    listen: str
    data_listen: str
    cache_dir: str
    cache_capacity_bytes: int
    route_target: str | None
    endpoints: list[tuple[str, str, int]]  # (name, access, max_concurrent)


@dataclass
class _StoreSection:
    name: str
    listen: str
    data_listen: str
    root_dir: str
    capacity_bytes: int
    volume_capacity_bytes: int
    mount_latency_ms: int
    access: dict[str, str]


@dataclass
class TopologyConfig:
    catalog: DaemonAddrs
    project: DaemonAddrs
    stations: dict[str, _StationSection] = field(default_factory=dict)
    stores: dict[str, _StoreSection] = field(default_factory=dict)
    path: Path | None = None  # the file it was loaded from; None for flag defaults

    def endpoint_names(self) -> set[str]:
        return set(self.stations) | set(self.stores)

    def daemons(self) -> list[tuple[str, str]]:
        """Every daemon as (role, name), in start order."""
        return ([("catalog", "catalog")] + [("store", name) for name in self.stores]
                + [("station", name) for name in self.stations] + [("project", "project")])

    def section(self, role: str, name: str):
        """One daemon's section; the catalog and the project have one each."""
        if role in ("catalog", "project"):
            return getattr(self, role)
        sections = {"station": self.stations, "store": self.stores}[role]
        if name not in sections:
            raise ValidationError(f"no {role} {name!r} in the configuration")
        return sections[name]

    def data_addr(self, endpoint_name: str) -> str:
        if endpoint_name in self.stations:
            return self.stations[endpoint_name].data_listen
        if endpoint_name in self.stores:
            return self.stores[endpoint_name].data_listen
        raise ValidationError(f"unknown endpoint {endpoint_name!r}")

    def scheme_of(self, endpoint_name: str) -> str:
        return "stn" if endpoint_name in self.stations else "tape"

    def station_config(self, name: str) -> StationConfig:
        section = self.section("station", name)
        endpoints = [
            EndpointSpec(
                name=ep_name,
                scheme=self.scheme_of(ep_name),
                access=access,
                data_addr=self.data_addr(ep_name),
                max_concurrent_transfers=slots,
            )
            for ep_name, access, slots in section.endpoints
        ]
        return StationConfig(
            name=name,
            cache_dir=section.cache_dir,
            cache_capacity_bytes=section.cache_capacity_bytes,
            role=section.role,
            known_endpoints=endpoints,
            route_target=section.route_target,
        )

    def store_config(self, name: str) -> StoreConfig:
        section = self.section("store", name)
        return StoreConfig(
            name=name,
            capacity_bytes=section.capacity_bytes,
            volume_capacity_bytes=section.volume_capacity_bytes,
            access_matrix=dict(section.access),
            mount_latency_ms=section.mount_latency_ms,
        )


def load_topology(path: str | Path) -> TopologyConfig:
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"no configuration file at {path}")
    parser = configparser.ConfigParser(delimiters=("=",), interpolation=None)
    try:
        parser.read(path)
    except configparser.Error as e:
        raise ValidationError(f"{path}: {e}") from e
    base = path.parent
    for name in ("catalog", "project"):
        if not parser.has_section(name):
            parser.add_section(name)  # so [DEFAULT] keys reach them too

    catalog = DaemonAddrs(
        listen=parser.get("catalog", "listen", fallback=f"127.0.0.1:{DEFAULT_CATALOG_PORT}"),
        journal=_path(base, parser.get("catalog", "journal", fallback="state/catalog.journal")),
    )
    project = DaemonAddrs(
        listen=parser.get("project", "listen", fallback=f"127.0.0.1:{DEFAULT_PROJECT_PORT}"),
        journal=_path(base, parser.get("project", "journal", fallback="state/project.journal")),
    )

    topology = TopologyConfig(catalog=catalog, project=project, path=path)
    problems: list[str] = []
    for section in parser.sections():
        kind, _, name = section.partition(" ")
        if kind == "station" and name:
            topology.stations[name] = _station_section(parser, section, name, base, problems)
        elif kind == "store" and name:
            topology.stores[name] = _store_section(parser, section, name, base, problems)
        elif section not in ("catalog", "project"):
            problems.append(f"unrecognized section [{section}]")

    _validate(topology, problems)
    if problems:
        raise ValidationError(problems)
    return topology


def _station_section(parser, section, name, base, problems) -> _StationSection:
    listen = parser.get(section, "listen", fallback=f"127.0.0.1:{DEFAULT_STATION_PORT}")
    data_listen = parser.get(section, "data_listen", fallback=_bump_port(listen))
    endpoints = []
    for line in parser.get(section, "endpoints", fallback="").splitlines():
        words = line.split()
        if not words:
            continue
        if len(words) not in (2, 3) or words[1] not in ("read_only", "read_write"):
            problems.append(f"station {name}: bad endpoint line {line.strip()!r}")
            continue
        slots = int(words[2]) if len(words) == 3 else DEFAULT_MAX_CONCURRENT
        endpoints.append((words[0], words[1], slots))
    return _StationSection(
        name=name,
        role=parser.get(section, "role", fallback="analysis"),
        listen=listen,
        data_listen=data_listen,
        cache_dir=_path(base, parser.get(section, "cache_dir", fallback=f"state/{name}")),
        cache_capacity_bytes=parser.getint(section, "cache_capacity_bytes", fallback=10**9),
        route_target=parser.get(section, "route_target", fallback=None),
        endpoints=endpoints,
    )


def _store_section(parser, section, name, base, problems) -> _StoreSection:
    listen = parser.get(section, "listen", fallback=f"127.0.0.1:{DEFAULT_STORE_PORT}")
    access = {}
    for line in parser.get(section, "access", fallback="").splitlines():
        words = line.split()
        if not words:
            continue
        if len(words) != 2 or words[1] not in ACCESS_LEVELS:
            problems.append(f"store {name}: bad access line {line.strip()!r}")
            continue
        access[words[0]] = words[1]
    return _StoreSection(
        name=name,
        listen=listen,
        data_listen=parser.get(section, "data_listen", fallback=_bump_port(listen)),
        root_dir=_path(base, parser.get(section, "root_dir", fallback=f"state/{name}")),
        capacity_bytes=parser.getint(section, "capacity_bytes", fallback=10**10),
        volume_capacity_bytes=parser.getint(section, "volume_capacity_bytes", fallback=10**7),
        mount_latency_ms=parser.getint(section, "mount_latency_ms", fallback=0),
        access=access,
    )


def _validate(topology: TopologyConfig, problems: list[str]) -> None:
    names = list(topology.stations) + list(topology.stores)
    if len(names) != len(set(names)):
        problems.append("station and store names must be unique")
    known = topology.endpoint_names()
    for station in topology.stations.values():
        if station.role not in ("analysis", "router"):
            problems.append(f"station {station.name}: unknown role {station.role!r}")
        if station.route_target is not None and station.route_target not in known:
            problems.append(
                f"station {station.name}: route_target {station.route_target!r} "
                "names no station or store")
        if station.role == "router" and station.route_target is None:
            problems.append(f"station {station.name}: routers need a route_target")
        for ep_name, _access, _slots in station.endpoints:
            if ep_name not in known:
                problems.append(
                    f"station {station.name}: endpoint {ep_name!r} names no station or store")


def _path(base: Path, value: str) -> str:
    p = Path(value)
    return str(p if p.is_absolute() else base / p)


def _bump_port(listen: str) -> str:
    host, _, port = listen.rpartition(":")
    return f"{host}:{int(port) + 1000 if int(port) else 0}"


@dataclass
class Daemon:
    """One served daemon: its service and its servers, control port first."""

    role: str
    name: str
    servers: list[Server] = field(default_factory=list)
    service: object = None

    def close(self) -> None:
        for server in self.servers:
            server.close()
        if self.service is not None:
            self.service.close()


_DATA_HANDLERS = {"station": StationDataHandler, "store": StoreDataHandler}


def serve(topology: TopologyConfig, daemons) -> list[Daemon]:
    """Start ``daemons``, (role, name) pairs, from ``topology``.

    Every control and data port is bound first and its address written back
    into ``topology``; only then is each service built and served.  So a
    port of 0 works, and peers see the real addresses.  If anything fails,
    whatever was bound or built is closed and the error re-raised.
    """
    served: list[Daemon] = []
    try:
        for role, name in daemons:
            section = topology.section(role, name)
            daemon = Daemon(role, name)
            served.append(daemon)
            control = Server(ControlHandler, None, section.listen)
            daemon.servers.append(control)
            section.listen = format_addr(control.bound_addr)
            if role in _DATA_HANDLERS:
                data = Server(_DATA_HANDLERS[role], None, section.data_listen)
                daemon.servers.append(data)
                section.data_listen = format_addr(data.bound_addr)
        for daemon in served:
            daemon.service = _build(topology, daemon.role, daemon.name)
            for server in daemon.servers:
                server.service = daemon.service
                server.start()
    except BaseException:
        for daemon in reversed(served):
            daemon.close()
        raise
    return served


def _build(topology: TopologyConfig, role: str, name: str):
    if role == "catalog":
        # without a file (flag defaults) the catalog accepts any endpoint name
        known = topology.endpoint_names() if topology.path is not None else None
        return CatalogService(topology.catalog.journal, known_endpoints=known)
    if role == "project":
        return ProjectServer(topology.project.journal, topology.catalog.listen)
    if role == "station":
        return StationService(topology.station_config(name), topology.catalog.listen)
    return StoreService(topology.store_config(name), topology.stores[name].root_dir)
