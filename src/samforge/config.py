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
    listen = 127.0.0.1:4751
    cache_dir = state/fcdf-router
    cache_capacity_bytes = 50000000
    route_target = stken-sim
    endpoints =
        stken-sim read_write 4
        cdfen-sim read_only 2

    [store stken-sim]
    listen = 127.0.0.1:4752
    root_dir = state/stken-sim
    capacity_bytes = 1000000000
    volume_capacity_bytes = 8000000
    mount_latency_ms = 0
    access =
        fcdf-router read_write
        cdfa-1 read_only

An endpoint line is `<name> <access> [max_concurrent_transfers]`; the
scheme (stn for stations, tape for stores) and the peer's address come
from the named section, so they are written once.  A station's
``route_target``, one of its endpoints, decides its part in uploads: a
station routing to a store is a router, which buffers an upload and
forwards it to tape, and one routing to a station, which must be a
router, hands uploads to it.  Relative paths resolve against the config
file's directory.  Keys under ``[DEFAULT]`` apply to every section; port
0 asks the kernel for a free port.  :func:`serve` starts daemons from a
topology, each on its one ``listen`` address; a store's or station's
``data_listen``, if set, is one more, served alike, that peers never use.

Each station section loads straight into the :class:`StationConfig` its
service takes, and each store section into a :class:`StoreConfig`; both
types live here, so loading a topology imports no service.  A daemon's own
rules are its config's; the loader adds only the checks that span sections,
and reports every problem at once.  :func:`serve` imports a role's service
and handler only when it serves that role, so each daemon process loads
its own role's code and no other.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ValidationError
from .wire import ControlHandler, Server, format_addr, parse_addr

DEFAULT_CATALOG_PORT = 4750
DEFAULT_STATION_PORT = 4751
DEFAULT_STORE_PORT = 4752
DEFAULT_PROJECT_PORT = 4753

CONFIG_ENV_VAR = "SAMFORGE_CONFIG"

SCHEME_STATION = "stn"  # another station's cache: FETCH <file>
SCHEME_TAPE = "tape"  # a mass store, which checks the client: FETCH <station> <file>

DEFAULT_MAX_CONCURRENT = 4

ACCESS_NONE = "none"
ACCESS_READ_ONLY = "read_only"
ACCESS_READ_WRITE = "read_write"
ACCESS_LEVELS = (ACCESS_NONE, ACCESS_READ_ONLY, ACCESS_READ_WRITE)


@dataclass
class EndpointSpec:
    """A peer a station may move bytes to or from."""

    name: str
    scheme: str  # stn | tape
    access: str  # read_only | read_write
    addr: str  # host:port the peer listens on
    max_concurrent_transfers: int = DEFAULT_MAX_CONCURRENT


@dataclass
class StationConfig:
    name: str
    cache_dir: str
    cache_capacity_bytes: int
    known_endpoints: list[EndpointSpec] = field(default_factory=list)
    route_target: str | None = None
    listen: str = "127.0.0.1:0"  # bound by serve
    data_listen: str | None = None  # one more address for the same handler

    def __post_init__(self):
        if self.cache_capacity_bytes <= 0:
            raise ValueError("cache_capacity_bytes must be positive")
        names = [e.name for e in self.known_endpoints]
        if len(names) != len(set(names)):
            raise ValueError("duplicate endpoint names")
        if any(e.max_concurrent_transfers < 1 for e in self.known_endpoints):
            raise ValueError("an endpoint needs at least 1 transfer slot")
        if self.route_target is not None and self.route_target not in names:
            raise ValueError("a route_target must be one of the station's endpoints")

    @property
    def is_router(self) -> bool:
        """A router buffers an upload and forwards it to tape: its route target is a store."""
        return any(e.name == self.route_target and e.scheme == SCHEME_TAPE
                   for e in self.known_endpoints)


@dataclass
class StoreConfig:
    name: str
    root_dir: str
    capacity_bytes: int
    volume_capacity_bytes: int
    access_matrix: dict[str, str] = field(default_factory=dict)
    mount_latency_ms: int = 0
    listen: str = "127.0.0.1:0"  # bound by serve
    data_listen: str | None = None  # one more address for the same handler


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

    def resolve_endpoints(self) -> None:
        """Give every endpoint spec the scheme and listen address of the section it names."""
        for station in self.stations.values():
            for spec in station.known_endpoints:
                peer = self.stations.get(spec.name) or self.stores[spec.name]
                spec.scheme = SCHEME_STATION if spec.name in self.stations else SCHEME_TAPE
                spec.addr = peer.listen


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
    problems: list[str] = []
    addrs = {}
    for name, port in (("catalog", DEFAULT_CATALOG_PORT), ("project", DEFAULT_PROJECT_PORT)):
        if not parser.has_section(name):
            parser.add_section(name)  # so [DEFAULT] keys reach them too
        addrs[name] = DaemonAddrs(
            listen=parser.get(name, "listen", fallback=f"127.0.0.1:{port}"),
            journal=_path(base, parser.get(name, "journal", fallback=f"state/{name}.journal")),
        )
        try:
            parse_addr(addrs[name].listen)
        except ValueError as e:
            problems.append(f"{name}: {e}")

    topology = TopologyConfig(**addrs, path=path)
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
        except ValueError as e:  # a malformed number or address, or a rule of StationConfig
            problems.append(f"{kind} {name}: {e}")
    if not problems:
        topology.resolve_endpoints()
        for name, station in topology.stations.items():
            target = topology.stations.get(station.route_target)
            if target is not None and not target.is_router:  # only a router takes a STORE
                problems.append(f"station {name}: route_target {station.route_target!r} "
                                "is a station that routes to no store")
    if problems:
        raise ValidationError(problems)
    return topology


def _station(parser, section, name, base, known, problems) -> StationConfig:
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
        # scheme and address come from the named section, once all are read
        endpoints.append(EndpointSpec(name=words[0], scheme="", access=words[1],
                                      addr="", max_concurrent_transfers=slots))
    return StationConfig(
        name=name,
        listen=_addr(parser, section, "listen", f"127.0.0.1:{DEFAULT_STATION_PORT}"),
        data_listen=_addr(parser, section, "data_listen", None),
        cache_dir=_path(base, parser.get(section, "cache_dir", fallback=f"state/{name}")),
        cache_capacity_bytes=parser.getint(section, "cache_capacity_bytes", fallback=10**9),
        route_target=route_target,
        known_endpoints=endpoints,
    )


def _store(parser, section, name, base, problems) -> StoreConfig:
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
        listen=_addr(parser, section, "listen", f"127.0.0.1:{DEFAULT_STORE_PORT}"),
        data_listen=_addr(parser, section, "data_listen", None),
        root_dir=_path(base, parser.get(section, "root_dir", fallback=f"state/{name}")),
        capacity_bytes=parser.getint(section, "capacity_bytes", fallback=10**10),
        volume_capacity_bytes=parser.getint(section, "volume_capacity_bytes", fallback=10**7),
        mount_latency_ms=parser.getint(section, "mount_latency_ms",
                                        fallback=StoreConfig.mount_latency_ms),
        access_matrix=access,
    )


def _path(base: Path, value: str) -> str:
    p = Path(value)
    return str(p if p.is_absolute() else base / p)


def _addr(parser, section, key, fallback) -> str | None:
    """An address key's value; a ValueError if it is set and not host:port."""
    value = parser.get(section, key, fallback=fallback)
    if value is not None:
        parse_addr(value)
    return value


@dataclass
class Daemon:
    """One served daemon: its service and its servers, ``listen`` first."""

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

    Every ``listen`` and ``data_listen`` address is bound first and written
    back into ``topology``, endpoint specs included; only then is each service
    built and served.  So a port of 0 works, and peers see the real addresses.
    If anything fails, whatever was bound or built is closed and the error re-raised.
    """
    served: list[Daemon] = []
    try:
        for role, name in daemons:
            section = topology.section(role, name)
            daemon = Daemon(role, name)
            served.append(daemon)
            _, handler = _code(role)
            for key in ("listen", "data_listen"):
                if getattr(section, key, None) is not None:
                    server = Server(handler, None, getattr(section, key))
                    daemon.servers.append(server)
                    setattr(section, key, format_addr(server.bound_addr))
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
    """A role's service class and the handler its addresses serve.

    Imported here, not at the top, so a daemon loads only its own role's modules.
    """
    if role == "catalog":
        from .catalog import CatalogService
        return CatalogService, ControlHandler
    if role == "project":
        from .project import ProjectServer
        return ProjectServer, ControlHandler
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
