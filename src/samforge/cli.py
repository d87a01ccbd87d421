"""Single command-line entry point for daemons, tools, and the demo.

Every subcommand is a thin adapter over a module operation, and imports
that module when it runs, so a daemon loads only its own role's code.
Operational failures print ``E_<code>`` as the last line of standard
error and exit 3; usage problems exit 2; success exits 0.  The global
``--json`` flag makes each client command emit exactly one JSON object
on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from pathlib import Path

from . import __version__
from .config import (
    CONFIG_ENV_VAR,
    DEFAULT_CATALOG_PORT,
    DEFAULT_PROJECT_PORT,
    DaemonAddrs,
    TopologyConfig,
    load_topology,
    serve,
)
from .errors import NotFound, SamError, ValidationError
from .wire import Client

DEFAULT_CATALOG_ADDR = f"127.0.0.1:{DEFAULT_CATALOG_PORT}"
DEFAULT_PROJECT_ADDR = f"127.0.0.1:{DEFAULT_PROJECT_PORT}"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args) or 0
    except SamError as e:
        if e.msg:
            print(e.msg, file=sys.stderr)
        print(f"E_{e.code}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        return 130


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="samforge",
        description="File catalog, cache stations, tape stores, and project delivery.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--json", action="store_true",
                        help="emit one JSON object on stdout instead of text")
    sub = parser.add_subparsers(dest="command")

    # -- daemons ----------------------------------------------------------
    p = sub.add_parser("catalogd", help="run the catalog daemon")
    p.add_argument("--listen")
    p.add_argument("--journal")
    p.add_argument("--config", default=os.environ.get(CONFIG_ENV_VAR),
                   help="topology file; restricts replica endpoints to known names")
    p.set_defaults(func=cmd_daemon)

    p = sub.add_parser("stationd", help="run a station daemon")
    p.add_argument("name")
    p.add_argument("--config", default=os.environ.get(CONFIG_ENV_VAR), required=False)
    p.add_argument("--listen", help="override the control address from the config")
    p.add_argument("--data-listen", help="override the data address from the config")
    p.set_defaults(func=cmd_daemon)

    p = sub.add_parser("stored", help="run a store daemon")
    p.add_argument("name")
    p.add_argument("--config", default=os.environ.get(CONFIG_ENV_VAR), required=False)
    p.add_argument("--listen")
    p.add_argument("--data-listen")
    p.set_defaults(func=cmd_daemon)

    p = sub.add_parser("projectd", help="run the project server")
    p.add_argument("--listen")
    p.add_argument("--journal")
    p.add_argument("--catalog")
    p.add_argument("--config", default=os.environ.get(CONFIG_ENV_VAR))
    p.set_defaults(func=cmd_daemon)

    # -- catalog tools ----------------------------------------------------
    p = sub.add_parser("migrate", help="import a legacy CSV export into the catalog")
    p.add_argument("--export", required=True, help="directory with the export tables")
    p.add_argument("--catalog", default=DEFAULT_CATALOG_ADDR)
    p.add_argument("--content", help="directory with file bytes for real checksums")
    p.add_argument("--dry-run", action="store_true")
    p.add_argument("--report", help="write the mapping report as JSON lines")
    p.add_argument("--verify", action="store_true",
                   help="compare catalog membership against the export afterwards")
    p.set_defaults(func=cmd_migrate)

    p = sub.add_parser("dataset", help="define, resolve, or snapshot datasets")
    dsub = p.add_subparsers(dest="dataset_command", required=True)
    d = dsub.add_parser("define")
    d.add_argument("name")
    d.add_argument("expr", help="e.g. \"event_type = phy AND data_tier = raw\"")
    d.add_argument("--catalog", default=DEFAULT_CATALOG_ADDR)
    d.set_defaults(func=cmd_dataset_define)
    d = dsub.add_parser("resolve")
    d.add_argument("name")
    d.add_argument("--catalog", default=DEFAULT_CATALOG_ADDR)
    d.set_defaults(func=cmd_dataset_resolve)
    d = dsub.add_parser("snapshot")
    d.add_argument("name")
    d.add_argument("--catalog", default=DEFAULT_CATALOG_ADDR)
    d.set_defaults(func=cmd_dataset_snapshot)

    p = sub.add_parser("declare", help="declare one file into the catalog")
    p.add_argument("path", help="local file; size and checksum are computed from it")
    p.add_argument("--name", help="catalog name (defaults to the file's basename)")
    p.add_argument("--event-type")
    p.add_argument("--data-tier")
    p.add_argument("--program-version", type=int)
    p.add_argument("--calibration-set", type=int)
    p.add_argument("--parent", type=int, action="append", default=[])
    p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--catalog", default=DEFAULT_CATALOG_ADDR)
    p.set_defaults(func=cmd_declare)

    p = sub.add_parser("locate", help="list a file's replica locations")
    p.add_argument("name")
    p.add_argument("--catalog", default=DEFAULT_CATALOG_ADDR)
    p.set_defaults(func=cmd_locate)

    # -- station tools ----------------------------------------------------
    p = sub.add_parser("fetch", help="ask a station to fetch a file into its cache")
    p.add_argument("name")
    p.add_argument("--station", required=True, help="station control address")
    p.add_argument("--project", help="pin the file for this project")
    p.set_defaults(func=cmd_fetch)

    p = sub.add_parser("store", help="store a new file through a station")
    p.add_argument("path")
    p.add_argument("--station", required=True)
    p.add_argument("--name")
    p.add_argument("--event-type")
    p.add_argument("--data-tier")
    p.add_argument("--program-version", type=int)
    p.add_argument("--calibration-set", type=int)
    p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE")
    p.set_defaults(func=cmd_store)

    # -- projects ---------------------------------------------------------
    p = sub.add_parser("project", help="start, inspect, or stop delivery projects")
    psub = p.add_subparsers(dest="project_command", required=True)
    d = psub.add_parser("start")
    d.add_argument("name")
    d.add_argument("--dataset", required=True)
    d.add_argument("--project-server", default=DEFAULT_PROJECT_ADDR)
    d.set_defaults(func=cmd_project_start)
    d = psub.add_parser("status")
    d.add_argument("name", nargs="?")
    d.add_argument("--project-server", default=DEFAULT_PROJECT_ADDR)
    d.set_defaults(func=cmd_project_status)
    d = psub.add_parser("stop")
    d.add_argument("name")
    d.add_argument("--project-server", default=DEFAULT_PROJECT_ADDR)
    d.set_defaults(func=cmd_project_stop)

    p = sub.add_parser("consume",
                       help="run the consumer adaptor on stdin/stdout")
    p.add_argument("--project-server", default=DEFAULT_PROJECT_ADDR)
    p.add_argument("--station", required=True, help="this consumer's station")
    p.add_argument("--project", default=os.environ.get("SAM_PROJECT"))
    p.add_argument("--dataset")
    p.add_argument("--consumer-id")
    p.set_defaults(func=cmd_consume)

    # -- monitoring and demo ----------------------------------------------
    p = sub.add_parser("status", help="query any daemon's status operation")
    p.add_argument("addr", help="daemon control address")
    p.set_defaults(func=cmd_status)

    p = sub.add_parser("demo",
                       help="boot the full topology, migrate, and run a project")
    p.add_argument("--root", help="working directory (default: a fresh temp dir)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--consumers", type=int, default=4)
    p.add_argument("--files", type=int, default=1000)
    p.add_argument("--mount-latency-ms", type=int, default=0)
    p.set_defaults(func=cmd_demo)

    return parser


# -- daemon commands -------------------------------------------------------

def cmd_daemon(args) -> int:
    role = args.command[:-1]  # catalogd -> catalog, stored -> store, ...
    if args.config:
        topology = load_topology(args.config)
    elif role in ("catalog", "project"):
        topology = TopologyConfig(
            catalog=DaemonAddrs(DEFAULT_CATALOG_ADDR, journal="catalog.journal"),
            project=DaemonAddrs(DEFAULT_PROJECT_ADDR, journal="project.journal"))
    else:
        raise ValidationError(
            f"a topology file is required (--config or ${CONFIG_ENV_VAR})")
    name = getattr(args, "name", role)
    section = topology.section(role, name)
    for key in ("listen", "data_listen", "journal"):
        if getattr(args, key, None):
            setattr(section, key, getattr(args, key))
    if getattr(args, "catalog", None):
        topology.catalog.listen = args.catalog
    [daemon] = serve(topology, [(role, name)])
    print(f"READY {section.listen}", flush=True)  # serve wrote the bound address
    try:
        threading.Event().wait()  # until a signal ends the process
    finally:
        daemon.close()
    return 0


# -- catalog tool commands -------------------------------------------------

def _emit(args, obj, text_lines) -> None:
    if args.json:
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_migrate(args) -> int:
    from .catalog import CatalogClient
    from .migrate import load_export, run_migration, verify_migration

    export = load_export(args.export)
    with CatalogClient(args.catalog) as catalog:
        report = run_migration(export, catalog, import_time=time.time(),
                               content_dir=args.content, dry_run=args.dry_run)
        divergences = verify_migration(export, catalog) if args.verify else None
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(json.dumps({"kind": "totals", **report.to_wire()}) + "\n")
            for name, reason in report.violations:
                fh.write(json.dumps({"kind": "violation", "file_name": name,
                                     "reason": reason}) + "\n")
            for diag in export.diagnostics:
                fh.write(json.dumps({"kind": "diagnostic", "detail": diag}) + "\n")
    obj = {"report": report.to_wire(), "diagnostics": export.diagnostics}
    lines = [
        f"declared {report.declared} files "
        f"({report.duplicates} duplicates, {len(report.violations)} violations)",
        f"datasets: {', '.join(report.datasets_created) or 'none'}",
    ]
    if divergences is not None:
        obj["divergences"] = divergences
        lines.append(f"verify: {'ok' if not divergences else divergences}")
    _emit(args, obj, lines)
    return 0 if not divergences else 3


def cmd_dataset_define(args) -> int:
    from .catalog import CatalogClient
    from .query import parse_expr

    expr = parse_expr(args.expr)
    with CatalogClient(args.catalog) as catalog:
        catalog.define_dataset(args.name, expr)
    _emit(args, {"defined": args.name}, [f"defined {args.name}"])
    return 0


def cmd_dataset_resolve(args) -> int:
    with Client(args.catalog) as catalog:
        files = catalog.call("resolve_dataset", name=args.name)
    _emit(args, {"dataset": args.name, **files}, files["file_names"])
    return 0


def cmd_dataset_snapshot(args) -> int:
    with Client(args.catalog) as catalog:
        snapshot = catalog.call("take_snapshot", dataset_name=args.name)
    _emit(args, snapshot,
          [f"snapshot {snapshot['snapshot_id']}: {len(snapshot['file_ids'])} files"])
    return 0


def _record_from_args(args, path: Path):
    """The FileRecord of a local file, its dimensions from its name and the flags."""
    from .naming import ConventionViolation, name_dimensions, parse_legacy_name
    from .records import FileRecord
    from .transfer import crc32_file

    name = args.name or path.name
    parts = parse_legacy_name(name)
    dimensions = name_dimensions(parts)
    for key in dimensions:  # a flag beats the name
        if getattr(args, key) is not None:
            dimensions[key] = getattr(args, key)
    parameters = {}
    for item in args.param:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValidationError(f"--param needs KEY=VALUE, got {item!r}")
        parameters[key] = value
    return FileRecord(
        file_name=name,
        size_bytes=path.stat().st_size,
        crc32=crc32_file(path),
        **dimensions,
        parents=list(getattr(args, "parent", [])),
        parameters=parameters,
        convention_violation=isinstance(parts, ConventionViolation),
        created_at=time.time(),
    )


def cmd_declare(args) -> int:
    from .catalog import CatalogClient

    path = Path(args.path)
    if not path.is_file():
        raise NotFound(f"no such file: {path}")
    record = _record_from_args(args, path)
    with CatalogClient(args.catalog) as catalog:
        file_id = catalog.declare_file(record)
    _emit(args, {"file_id": file_id, "file_name": record.file_name},
          [f"declared {record.file_name} as file {file_id}"])
    return 0


def cmd_locate(args) -> int:
    from .catalog import CatalogClient

    with CatalogClient(args.catalog) as catalog:
        record = catalog.get_file(args.name)
        locations = catalog.get_locations(record.file_id)
    _emit(args,
          {"file_id": record.file_id,
           "locations": [loc.to_wire() for loc in locations]},
          [f"{loc.endpoint_name} {loc.path_or_volume}" for loc in locations])
    return 0


# -- station tool commands -------------------------------------------------

def cmd_fetch(args) -> int:
    with Client(args.station) as station:
        path = station.call("fetch", file_name=args.name,
                            requesting_project=args.project)
    _emit(args, {"path": path}, [path])
    return 0


def cmd_store(args) -> int:
    path = Path(args.path)
    if not path.is_file():
        raise NotFound(f"no such file: {path}")
    args.parent = []
    record = _record_from_args(args, path)
    wire = record.to_wire()
    wire.pop("file_id", None)
    with Client(args.station) as station:
        # the station opens the path itself, from its own working directory
        file_id = station.call("store", record=wire, local_path=str(path.resolve()))
    _emit(args, {"file_id": file_id, "file_name": record.file_name},
          [f"stored {record.file_name} as file {file_id}"])
    return 0


# -- project commands ------------------------------------------------------

def cmd_project_start(args) -> int:
    with Client(args.project_server) as server:
        result = server.call("start", project_name=args.name, dataset_name=args.dataset)
    _emit(args, result,
          [f"project {args.name}: {result['files']} files from snapshot "
           f"{result['snapshot_id']}"])
    return 0


def cmd_project_status(args) -> int:
    with Client(args.project_server) as server:
        result = server.call("status", project_name=args.name)
    if args.name:
        lines = [f"{result['project_name']}: {result['state']}, "
                 f"{result['delivered']} delivered, {result['undelivered']} undelivered"]
    else:
        lines = [f"{p['project_name']}: {p['state']}, "
                 f"{p['delivered']} delivered, {p['undelivered']} undelivered"
                 for p in result["projects"]]
    _emit(args, result, lines)
    return 0


def cmd_project_stop(args) -> int:
    with Client(args.project_server) as server:
        summary = server.call("stop", project_name=args.name)
    counts = ", ".join(f"{c}={n}" for c, n in sorted(summary["delivered_counts"].items()))
    _emit(args, summary,
          [f"stopped {args.name}: {summary['delivered_total']} delivered ({counts}); "
           f"{len(summary['undelivered'])} undelivered"])
    return 0


def cmd_consume(args) -> int:
    from .consumer import AdaptorConfig, adaptor_run

    config = AdaptorConfig(
        project_addr=args.project_server,
        station_addr=args.station,
        project=args.project,
        dataset=args.dataset,
        consumer_id=args.consumer_id,
    )
    return adaptor_run(sys.stdin, sys.stdout, config)


# -- monitoring and demo ---------------------------------------------------

def cmd_status(args) -> int:
    with Client(args.addr) as client:
        result = client.call("status")
    _emit(args, result, [json.dumps(result, indent=2, sort_keys=True)])
    return 0


def cmd_demo(args) -> int:
    import tempfile

    from .demo import check_demo_results, run_demo

    root = args.root or tempfile.mkdtemp(prefix="samforge-demo-")
    kwargs = {"n_consumers": args.consumers, "mount_latency_ms": args.mount_latency_ms,
              "n_files": args.files}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    results = run_demo(root, **kwargs)
    problems = check_demo_results(results)
    summary = results["summary"]
    lines = [
        f"migrated {results['migration']['declared']} files, "
        f"{len(results['migration']['violations'])} violations, "
        f"datasets {', '.join(results['migration']['datasets_created'])}",
        f"seeded {results['seeded']} files onto both stores",
        f"delivered {summary['delivered_total']} files to "
        f"{len(summary['delivered_counts'])} consumers: "
        + ", ".join(f"{c}={n}" for c, n in sorted(summary["delivered_counts"].items())),
        f"elapsed {results['elapsed_s']:.1f}s (work dir: {root})",
    ]
    lines += [f"FAIL {p}" for p in problems] or ["all end-to-end checks passed"]
    _emit(args, {"results": results, "problems": problems}, lines)
    return 3 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
