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

Each station section loads straight into the :class:`StationConfig` its
service takes, and each store section into a :class:`StoreConfig`; both
types live here, so loading a topology imports no service.  A daemon's own
rules are its config's; the loader adds only the checks that span sections,
and reports every problem at once.  :func:`serve` imports a role's service
and data handler only when it serves that role, so each daemon process
loads its own role's code and no other.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ValidationError
from .wire import ControlHandler, Server, format_addr

DEFAULT_CATALOG_PORT = 4750
DEFAULT_STATION_PORT = 4751
DEFAULT_STORE_PORT = 4752
DEFAULT_PROJECT_PORT = 4753

CONFIG_ENV_VAR = "SAMFORGE_CONFIG"

ROLE_ANALYSIS = "analysis"
ROLE_ROUTER = "router"

SCHEME_STATION = "stn"  # another station's cache: FETCH <file>
SCHEME_TAPE = "tape"  # a mass store, which checks the client: FETCH <station> <file>

DEFAULT_MAX_CONCURRENT = 4

ACCESS_NONE = "none"
ACCESS_READ_ONLY = "read_only"
ACCESS_READ_WRITE = "read_write"
ACCESS_LEVELS = (ACCESS_NONE, ACCESS_READ_ONLY, ACCESS_READ_WRITE)

DEFAULT_MOUNT_LATENCY_MS = 2000


@dataclass
class EndpointSpec:
    """A peer a station may move bytes to or from."""

    name: str
    scheme: str  # stn | tape
    access: str  # read_only | read_write
    data_addr: str  # host:port of the peer's data plane
    max_concurrent_transfers: int = DEFAULT_MAX_CONCURRENT


@dataclass
class StationConfig:
    name: str
    cache_dir: str
    cache_capacity_bytes: int
    role: str = ROLE_ANALYSIS
    known_endpoints: list[EndpointSpec] = field(default_factory=list)
    route_target: str | None = None
    listen: str = "127.0.0.1:0"  # control and data addresses, bound by serve
    data_listen: str = "127.0.0.1:0"

    def __post_init__(self):
        if self.cache_capacity_bytes <= 0:
            raise ValueError("cache_capacity_bytes must be positive")
        if self.role not in (ROLE_ANALYSIS, ROLE_ROUTER):
            raise ValueError(f"unknown role {self.role!r}")
        names = [e.name for e in self.known_endpoints]
        if len(names) != len(set(names)):
            raise ValueError("duplicate endpoint names")
        if any(e.max_concurrent_transfers < 1 for e in self.known_endpoints):
            raise ValueError("an endpoint needs at least 1 transfer slot")
        if self.role == ROLE_ROUTER and self.route_target not in names:
            raise ValueError("routers need a route_target among their endpoints")


@dataclass
class StoreConfig:
    name: str
    root_dir: str
    capacity_bytes: int
    volume_capacity_bytes: int
    access_matrix: dict[str, str] = field(default_factory=dict)
    mount_latency_ms: int = DEFAULT_MOUNT_LATENCY_MS
    listen: str = "127.0.0.1:0"  # control and data addresses, bound by serve
    data_listen: str = "127.0.0.1:0"


@dataclass
class DaemonAddrs:
    listen: str
    journal: str


@dataclass
class TopologyConfig:
    catalog: DaemonAddrs
    project: DaemonAddrs
    stations: dict[str, StationConfig] = field(default_factory=dict)
    stores: dict[str, StoreConfig] = field(default_factory=dict)
    path: Path | None = None  # the file it was loaded from; None for flag defaults

    def endpoint_names(self) -> set[str]:
        return set(self.stations) | set(self.stores)

    def daemons(self) -> list[tuple[str, str]]:
        """Every daemon as (role, name), in start order."""
        return ([("catalog", "catalog")] + [("store", name) for name in self.stores]
                + [("station", name) for name in self.stations] + [("project", "project")])

    def section(self, role: str, name: str):
        """One daemon's config; the catalog and the project have one each."""
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

    def resolve_endpoints(self) -> None:
        """Give every endpoint spec the scheme and data address of the section it names."""
        for station in self.stations.values():
            for spec in station.known_endpoints:
                spec.scheme = SCHEME_STATION if spec.name in self.stations else SCHEME_TAPE
                spec.data_addr = self.data_addr(spec.name)


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
    sections = {}  # section -> (kind, name) for every station and store
    for section in parser.sections():
        kind, _, name = section.partition(" ")
        if kind in ("station", "store") and name:
            sections[section] = (kind, name)
        elif section not in ("catalog", "project"):
            problems.append(f"unrecognized section [{section}]")
    names = [name for _, name in sections.values()]
    known = set(names)
    if len(names) != len(known):
        problems.append("station and store names must be unique")
    for section, (kind, name) in sections.items():
        try:
            if kind == "station":
                topology.stations[name] = _station(parser, section, name, base, known, problems)
            else:
                topology.stores[name] = _store(parser, section, name, base, problems)
        except ValueError as e:  # a malformed number, or a rule of StationConfig
            problems.append(f"{kind} {name}: {e}")
    if problems:
        raise ValidationError(problems)
    topology.resolve_endpoints()
    return topology


def _station(parser, section, name, base, known, problems) -> StationConfig:
    listen = parser.get(section, "listen", fallback=f"127.0.0.1:{DEFAULT_STATION_PORT}")
    route_target = parser.get(section, "route_target", fallback=None)
    # references are checked here: StationConfig may refuse to build the station
    if route_target is not None and route_target not in known:
        problems.append(f"station {name}: route_target {route_target!r} names no station or store")
    endpoints = []
    for line in parser.get(section, "endpoints", fallback="").splitlines():
        words = line.split()
        if not words:
            continue
        if len(words) not in (2, 3) or words[1] not in ("read_only", "read_write"):
            problems.append(f"station {name}: bad endpoint line {line.strip()!r}")
            continue
        if words[0] not in known:
            problems.append(f"station {name}: endpoint {words[0]!r} names no station or store")
        slots = int(words[2]) if len(words) == 3 else DEFAULT_MAX_CONCURRENT
        # scheme and data address come from the named section, once all are read
        endpoints.append(EndpointSpec(name=words[0], scheme="", access=words[1],
                                      data_addr="", max_concurrent_transfers=slots))
    return StationConfig(
        name=name,
        role=parser.get(section, "role", fallback="analysis"),
        listen=listen,
        data_listen=parser.get(section, "data_listen", fallback=_bump_port(listen)),
        cache_dir=_path(base, parser.get(section, "cache_dir", fallback=f"state/{name}")),
        cache_capacity_bytes=parser.getint(section, "cache_capacity_bytes", fallback=10**9),
        route_target=route_target,
        known_endpoints=endpoints,
    )


def _store(parser, section, name, base, problems) -> StoreConfig:
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
    return StoreConfig(
        name=name,
        listen=listen,
        data_listen=parser.get(section, "data_listen", fallback=_bump_port(listen)),
        root_dir=_path(base, parser.get(section, "root_dir", fallback=f"state/{name}")),
        capacity_bytes=parser.getint(section, "capacity_bytes", fallback=10**10),
        volume_capacity_bytes=parser.getint(section, "volume_capacity_bytes", fallback=10**7),
        mount_latency_ms=parser.getint(section, "mount_latency_ms", fallback=0),
        access_matrix=access,
    )


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


def serve(topology: TopologyConfig, daemons) -> list[Daemon]:
    """Start ``daemons``, (role, name) pairs, from ``topology``.

    Every control and data port is bound first and its address written back
    into ``topology``, endpoint specs included; only then is each service
    built and served.  So a port of 0 works, and peers see the real addresses.  If anything fails,
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
            _, data_handler = _code(role)
            if data_handler is not None:
                data = Server(data_handler, None, section.data_listen)
                daemon.servers.append(data)
                section.data_listen = format_addr(data.bound_addr)
        topology.resolve_endpoints()
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


def _code(role: str):
    """A role's service class and data handler (None without a data plane).

    Imported here, not at the top, so a daemon loads only its own role's modules.
    """
    if role == "catalog":
        from .catalog import CatalogService
        return CatalogService, None
    if role == "project":
        from .project import ProjectServer
        return ProjectServer, None
    if role == "station":
        from .station import StationDataHandler, StationService
        return StationService, StationDataHandler
    from .store import StoreDataHandler, StoreService
    return StoreService, StoreDataHandler


def _build(topology: TopologyConfig, role: str, name: str):
    service, _ = _code(role)
    if role == "catalog":
        # without a file (flag defaults) the catalog accepts any endpoint name
        known = topology.endpoint_names() if topology.path is not None else None
        return service(topology.catalog.journal, known_endpoints=known)
    if role == "project":
        return service(topology.project.journal, topology.catalog.listen)
    if role == "station":
        return service(topology.stations[name], topology.catalog.listen)
    return service(topology.stores[name])
