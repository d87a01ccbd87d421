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
resolve against the config file's directory.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ValidationError
from .station import DEFAULT_MAX_CONCURRENT, EndpointSpec, StationConfig
from .store import ACCESS_LEVELS, StoreConfig

DEFAULT_CATALOG_PORT = 4750
DEFAULT_STATION_PORT = 4751
DEFAULT_STORE_PORT = 4752
DEFAULT_PROJECT_PORT = 4753

CONFIG_ENV_VAR = "SAMFORGE_CONFIG"


@dataclass
class DaemonAddrs:
    listen: str
    data_listen: str | None = None
    journal: str | None = None


@dataclass
class _StationSection:
    name: str
    role: str
    listen: str
    data_listen: str
    cache_dir: str
    cache_capacity_bytes: int
    max_transfer_attempts: int
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

    def endpoint_names(self) -> set[str]:
        return set(self.stations) | set(self.stores)

    def data_addr(self, endpoint_name: str) -> str:
        if endpoint_name in self.stations:
            return self.stations[endpoint_name].data_listen
        if endpoint_name in self.stores:
            return self.stores[endpoint_name].data_listen
        raise ValidationError(f"unknown endpoint {endpoint_name!r}")

    def scheme_of(self, endpoint_name: str) -> str:
        return "stn" if endpoint_name in self.stations else "tape"

    def station_config(self, name: str) -> StationConfig:
        section = self.stations.get(name)
        if section is None:
            raise ValidationError(f"no station {name!r} in the configuration")
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
            max_transfer_attempts=section.max_transfer_attempts,
            route_target=section.route_target,
        )

    def store_config(self, name: str) -> StoreConfig:
        section = self.stores.get(name)
        if section is None:
            raise ValidationError(f"no store {name!r} in the configuration")
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

    catalog = DaemonAddrs(
        listen=_get(parser, "catalog", "listen", f"127.0.0.1:{DEFAULT_CATALOG_PORT}"),
        journal=_path(base, _get(parser, "catalog", "journal", "state/catalog.journal")),
    )
    project = DaemonAddrs(
        listen=_get(parser, "project", "listen", f"127.0.0.1:{DEFAULT_PROJECT_PORT}"),
        journal=_path(base, _get(parser, "project", "journal", "state/project.journal")),
    )

    topology = TopologyConfig(catalog=catalog, project=project)
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
        max_transfer_attempts=parser.getint(section, "max_transfer_attempts", fallback=3),
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


def _get(parser, section, option, default):
    return parser.get(section, option, fallback=default) if parser.has_section(section) else default


def _path(base: Path, value: str) -> str:
    p = Path(value)
    return str(p if p.is_absolute() else base / p)


def _bump_port(listen: str) -> str:
    host, _, port = listen.rpartition(":")
    return f"{host}:{int(port) + 1000}"
