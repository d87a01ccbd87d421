"""Command-line surface: parsing, error codes, daemons, round trips."""

import csv
import json
import os
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import samforge
from samforge.catalog import CatalogClient
from samforge.cli import main
from samforge.query import Atom
from samforge.wire import format_addr

from conftest import BAD_STATIONS, record_ops, spawn_daemon, stop_daemon, write_bad_station


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err.splitlines()


@pytest.fixture(scope="module")
def catalogd(tmp_path_factory):
    root = tmp_path_factory.mktemp("catalogd")
    proc, addr = spawn_daemon("catalogd", "--listen", "127.0.0.1:0",
                              "--journal", str(root / "catalog.journal"))
    yield addr
    stop_daemon(proc)


@pytest.fixture(scope="module")
def projectd(tmp_path_factory, catalogd):
    root = tmp_path_factory.mktemp("projectd")
    proc, addr = spawn_daemon("projectd", "--listen", "127.0.0.1:0",
                              "--journal", str(root / "project.journal"),
                              "--catalog", catalogd)
    yield addr
    stop_daemon(proc)


# -- parsing and error mapping ----------------------------------------------

def test_no_subcommand_prints_usage(capsys):
    code, out, err = run_cli(capsys)
    assert code == 2
    assert err and err[0].startswith("usage:")


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("samforge ")


def test_malformed_query_fails_before_connecting(capsys):
    code, out, err = run_cli(capsys, "dataset", "define", "d", "shoe = = phy")
    assert code == 3
    assert err[-1] == "E_MALFORMED_QUERY"


def test_declare_missing_file(capsys, tmp_path):
    code, out, err = run_cli(capsys, "declare", str(tmp_path / "ghost.raw"))
    assert code == 3
    assert err[-1] == "E_NOT_FOUND"


def test_declare_rejects_malformed_param(capsys, tmp_path):
    target = tmp_path / "bphy0412_fs0007_0099.raw"
    target.write_bytes(b"x")
    code, out, err = run_cli(capsys, "declare", str(target), "--param", "noequals")
    assert code == 3
    assert err[-1] == "E_VALIDATION"
    assert any("KEY=VALUE" in line for line in err)


def test_stationd_requires_a_topology_file(capsys, monkeypatch):
    monkeypatch.delenv("SAMFORGE_CONFIG", raising=False)
    code, out, err = run_cli(capsys, "stationd", "cdfa-1")
    assert code == 3
    assert err[-1] == "E_VALIDATION"


@pytest.mark.parametrize("command", ["stored", "stationd"])
def test_daemon_name_missing_from_the_topology_file(capsys, tmp_path, command):
    config = tmp_path / "deploy.ini"
    config.write_text("[catalog]\n")
    code, out, err = run_cli(capsys, command, "nosuch", "--config", str(config))
    assert (code, err[-1]) == (3, "E_VALIDATION")


@pytest.mark.parametrize("case", sorted(BAD_STATIONS))
def test_stationd_refuses_a_station_that_breaks_a_rule(capsys, tmp_path, case):
    config = write_bad_station(tmp_path, case)
    code, out, err = run_cli(capsys, "stationd", "bad", "--config", str(config))
    assert (code, err[-1]) == (3, "E_VALIDATION")
    assert any(BAD_STATIONS[case][1] in line for line in err)


def test_stored_and_stationd_start_from_a_topology_file(capsys, tmp_path):
    config = tmp_path / "deploy.ini"
    config.write_text(
        "[store stken-sim]\n"
        "access =\n    fcdf-router read_write\n\n"
        "[station fcdf-router]\n"
        "route_target = stken-sim\n"
        "endpoints =\n    stken-sim read_write 4\n")
    spawned = []
    try:
        for argv in (("stored", "stken-sim"), ("stationd", "fcdf-router")):
            spawned.append(spawn_daemon(*argv, "--config", str(config), "--listen", "127.0.0.1:0"))
        statuses = []
        for _proc, addr in spawned:
            code, out, _ = run_cli(capsys, "--json", "status", addr)
            assert code == 0
            statuses.append(json.loads("\n".join(out)))
    finally:
        for proc, _addr in spawned:
            stop_daemon(proc)
    store, station = statuses
    assert store["name"] == "stken-sim"
    assert "volumes" in store  # a store's status; stores have no role field
    assert (station["name"], station["role"]) == ("fcdf-router", "router")


# Runs one daemon through cli.main; once it prints READY, and again after it
# answers a status request, writes the samforge modules loaded as JSON lines.
FOOTPRINT_PROBE = """
import io, json, os, sys, threading
from samforge import cli
from samforge.wire import Client

ready = threading.Event()

class Tap(io.StringIO):
    def write(self, text):
        if text.startswith("READY "):
            ready.set()
        return super().write(text)

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "samforge")

sys.stdout = tap = Tap()
threading.Thread(target=cli.main, args=(sys.argv[1:],), daemon=True).start()
assert ready.wait(30), "the daemon never printed READY"
sys.__stdout__.write(json.dumps(loaded()) + "\\n")
with Client(tap.getvalue().split()[1]) as client:
    client.call("status")
sys.__stdout__.write(json.dumps(loaded()) + "\\n")
sys.__stdout__.flush()
os._exit(0)
"""

EVERY_DAEMON = {"samforge", "samforge.cli", "samforge.config", "samforge.errors",
                "samforge.wire"}
ROLE_MODULES = {
    "catalogd": {"catalog", "journal", "query", "records", "naming"},
    "stored": {"store", "journal", "records", "naming", "sync", "transfer"},
    "stationd": {"station", "records", "naming", "sync", "transfer"},
    "projectd": {"project", "journal"},
}


@pytest.mark.parametrize("command", sorted(ROLE_MODULES))
def test_each_daemon_loads_only_its_own_roles_modules(tmp_path, command):
    config = tmp_path / "deploy.ini"
    config.write_text(
        "[DEFAULT]\nlisten = 127.0.0.1:0\n\n[catalog]\n\n[project]\n\n"
        "[store stken-sim]\naccess =\n    fcdf-router read_write\n\n"
        "[station fcdf-router]\nroute_target = stken-sim\n"
        "endpoints =\n    stken-sim read_write 4\n")
    name = {"stored": ["stken-sim"], "stationd": ["fcdf-router"]}.get(command, [])
    src = str(Path(samforge.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop("SAMFORGE_CONFIG", None)
    done = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_PROBE, command, *name, "--config", str(config)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    at_ready, after_status = (set(json.loads(line)) for line in done.stdout.splitlines())
    assert at_ready == EVERY_DAEMON | {f"samforge.{m}" for m in ROLE_MODULES[command]}
    assert after_status == at_ready


def test_connection_refused_maps_to_e_conn(capsys):
    code, out, err = run_cli(capsys, "locate", "a.raw", "--catalog", "127.0.0.1:1")
    assert code == 3
    assert err[-1] == "E_CONN"


# -- catalog round trips over a spawned daemon ------------------------------

def test_declare_locate_dataset_round_trip(capsys, tmp_path, catalogd):
    target = tmp_path / "bphy0412_fs0007_0042.raw"
    target.write_bytes(b"123456789")

    code, out, _ = run_cli(capsys, "declare", str(target), "--catalog", catalogd)
    assert code == 0
    assert out[0].startswith("declared bphy0412_fs0007_0042.raw as file ")

    # name parsing filled the first-class fields; a second declare collides
    code, out, err = run_cli(capsys, "declare", str(target), "--catalog", catalogd)
    assert (code, err[-1]) == (3, "E_DUPLICATE_NAME")

    code, out, _ = run_cli(capsys, "locate", "bphy0412_fs0007_0042.raw",
                           "--catalog", catalogd)
    assert (code, out) == (0, [])  # declared but nowhere resident yet

    code, out, _ = run_cli(capsys, "dataset", "define", "cli-ds",
                           "event_type = phy AND data_tier = raw",
                           "--catalog", catalogd)
    assert code == 0

    code, out, _ = run_cli(capsys, "dataset", "resolve", "cli-ds",
                           "--catalog", catalogd)
    assert code == 0
    assert "bphy0412_fs0007_0042.raw" in out

    code, out, _ = run_cli(capsys, "--json", "dataset", "resolve", "cli-ds",
                           "--catalog", catalogd)
    assert code == 0
    payload = json.loads("\n".join(out))  # exactly one JSON object
    assert payload["dataset"] == "cli-ds"
    assert "bphy0412_fs0007_0042.raw" in payload["file_names"]

    code, out, _ = run_cli(capsys, "dataset", "snapshot", "cli-ds",
                           "--catalog", catalogd)
    assert code == 0
    assert "1 files" in out[0] or "files" in out[0]


def test_dataset_resolve_is_one_request(capsys, rig, monkeypatch):
    names = [f"one-{i:02d}.raw" for i in range(20)]
    ids = [rig.seed_file(name, b"x") for name in names]
    with rig.catalog_client() as catalog:
        catalog.define_dataset("one", Atom("event_type", "=", "phy"))
    ops = record_ops(rig.catalog_service, monkeypatch)
    code, out, _ = run_cli(capsys, "dataset", "resolve", "one", "--catalog", rig.catalog_addr)
    assert (code, out) == (0, names)
    code, out, _ = run_cli(capsys, "--json", "dataset", "resolve", "one",
                           "--catalog", rig.catalog_addr)
    assert code == 0
    assert json.loads("\n".join(out)) == {"dataset": "one", "file_ids": ids, "file_names": names}
    assert ops == ["resolve_dataset", "resolve_dataset"]


def test_declare_maps_a_name_as_migration_does(capsys, tmp_path, catalogd):
    # a name that breaks the convention keeps the tier of its extension
    for name, flags in (("oops.ntp", ()), ("bphy0411_fs9001_004.prd", ("--event-type", "phy"))):
        target = tmp_path / name
        target.write_bytes(b"x")
        assert run_cli(capsys, "declare", str(target), "--catalog", catalogd, *flags)[0] == 0
    with CatalogClient(catalogd) as catalog:
        oops = catalog.get_file("oops.ntp")
        flagged = catalog.get_file("bphy0411_fs9001_004.prd")
    assert (oops.data_tier, oops.event_type, oops.convention_violation) == ("ntp", "unk", True)
    assert (flagged.data_tier, flagged.event_type) == ("prd", "phy")  # a flag beats the name


def test_status_queries_any_daemon(capsys, catalogd):
    code, out, _ = run_cli(capsys, "--json", "status", catalogd)
    assert code == 0
    status = json.loads("\n".join(out))
    assert "files" in status


def test_status_of_a_peer_answering_a_non_json_line_maps_to_e_conn(capsys):
    with socket.create_server(("127.0.0.1", 0)) as listener:
        def answer():
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as rfile:
                rfile.readline()
                conn.sendall(b"ERR BAD_REQUEST unparseable request\n")

        peer = threading.Thread(target=answer)
        peer.start()
        code, _, err = run_cli(capsys, "status", format_addr(listener.getsockname()))
        peer.join(timeout=10)
    assert (code, err[-1]) == (3, "E_CONN")


def test_fetch_prints_the_cached_path_and_pins_it_for_the_project(capsys, rig):
    rig.add_store("stken-sim", {"cdfa-1": "read_only", "seeder": "read_write"})
    station = rig.add_station("cdfa-1", [("stken-sim", "read_only", 2)], served=True)
    file_id = rig.seed_file("f.raw", b"fetched bytes", stores=["stken-sim"])
    addr = rig.station_addr["cdfa-1"]
    code, out, _ = run_cli(capsys, "fetch", "f.raw", "--station", addr, "--project", "p1")
    assert code == 0
    [path] = out
    assert Path(path).read_bytes() == b"fetched bytes"
    code, out, _ = run_cli(capsys, "--json", "fetch", "f.raw", "--station", addr)
    assert (code, json.loads("\n".join(out))) == (0, {"path": path})
    [entry] = station.station_status()["cache"]["entries"]
    assert entry["pin_count"] == 1  # the project's, and no more for the second fetch
    assert station.unpin_file(file_id, "p1")  # NOT_PINNED for any other project


def test_migrate_command_with_report(capsys, tmp_path, catalogd):
    export_dir = tmp_path / "export"
    export_dir.mkdir()
    tables = {
        "files.csv": (("file_name", "size_bytes", "fileset_id", "dataset_id",
                       "dfc_comment", "dfc_row_key"),
                      [("kxyz0101_fs0101_0001.raw", "100", "fs0101", "201", "", "rk100001"),
                       ("kxyz0101_fs0101_0002.raw", "100", "fs0101", "201", "", "rk100002"),
                       ("kabc0202_fs0102_0001.raw", "100", "fs0102", "202", "note", "rk100003")]),
        "filesets.csv": (("fileset_id", "dataset_id", "tape_label"),
                         [("fs0101", "201", "tape-0101"), ("fs0102", "202", "tape-0102")]),
        "datasets.csv": (("dataset_id", "description"),
                         [("201", "one"), ("202", "two")]),
    }
    for name, (header, rows) in tables.items():
        with open(export_dir / name, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)

    report_path = tmp_path / "report.jsonl"
    code, out, _ = run_cli(capsys, "migrate", "--export", str(export_dir),
                           "--catalog", catalogd, "--report", str(report_path),
                           "--verify")
    assert code == 0
    assert out[0] == "declared 3 files (0 duplicates, 0 violations)"
    assert out[1] == "datasets: dfc-201, dfc-202"
    assert out[2] == "verify: ok"

    entries = [json.loads(line) for line in report_path.read_text().splitlines()]
    assert entries[0]["kind"] == "totals"
    assert entries[0]["declared"] == 3

    code, out, _ = run_cli(capsys, "dataset", "resolve", "dfc-201",
                           "--catalog", catalogd)
    assert code == 0
    assert sorted(out) == ["kxyz0101_fs0101_0001.raw", "kxyz0101_fs0101_0002.raw"]


# -- project daemon and the consumer adaptor --------------------------------

def test_store_sends_an_absolute_path(capsys, tmp_path, monkeypatch):
    # a station daemon resolves a relative path against its own directory
    from samforge.wire import ControlHandler, Dispatcher, Server, format_addr

    class RecordingStation(Dispatcher):
        ops = {"store": "store"}

        def __init__(self):
            self.paths = []

        def store(self, record, local_path):
            self.paths.append(local_path)
            return 1

    (tmp_path / "out.raw").write_bytes(b"payload")
    monkeypatch.chdir(tmp_path)
    station = RecordingStation()
    server = Server(ControlHandler, station, ("127.0.0.1", 0)).start()
    try:
        code, _, _ = run_cli(capsys, "store", "out.raw",
                             "--station", format_addr(server.bound_addr))
    finally:
        server.close()
    assert code == 0
    assert station.paths == [str((tmp_path / "out.raw").resolve())]


def test_project_lifecycle_and_consume_subprocess(capsys, tmp_path, catalogd, projectd):
    from samforge.wire import ControlHandler, Dispatcher, Server, format_addr

    class OneShotStation(Dispatcher):
        ops = {"fetch": "fetch", "unpin": "unpin"}

        def fetch(self, file_name, requesting_project=None, prefetch=()):
            return f"/fake/{file_name}"

        def unpin(self, file_id, project):
            return True

    # calibration set 77 is unique to this file on the shared catalog daemon
    target = tmp_path / "bphy0477_fs0007_0777.raw"
    target.write_bytes(b"payload")
    code, out, _ = run_cli(capsys, "declare", str(target), "--catalog", catalogd)
    assert code == 0
    code, out, _ = run_cli(capsys, "dataset", "define", "consume-ds",
                           "calibration_set = 77", "--catalog", catalogd)
    assert code == 0

    code, out, err = run_cli(capsys, "project", "start", "cli-proj",
                             "--dataset", "ghost-ds", "--project-server", projectd)
    assert (code, err[-1]) == (3, "E_NOT_FOUND")

    code, out, _ = run_cli(capsys, "project", "start", "cli-proj",
                           "--dataset", "consume-ds", "--project-server", projectd)
    assert code == 0
    assert out[0].startswith("project cli-proj: 1 files")

    code, out, _ = run_cli(capsys, "project", "status", "cli-proj",
                           "--project-server", projectd)
    assert code == 0
    assert out[0].startswith("cli-proj: running")

    station_server = Server(ControlHandler, OneShotStation(), ("127.0.0.1", 0)).start()
    try:
        result = subprocess.run(
            [sys.executable, "-m", "samforge.cli", "consume",
             "--project-server", projectd,
             "--station", format_addr(station_server.bound_addr),
             "--project", "cli-proj", "--consumer-id", "cli-c1"],
            input="CONFIGURE\nGETFILE\nRELEASE\nGETFILE\nBYE\n",
            capture_output=True, text=True, timeout=30)
    finally:
        station_server.close()
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "OK", "FILE /fake/bphy0477_fs0007_0777.raw", "OK", "END"]

    code, out, _ = run_cli(capsys, "project", "status",
                           "--project-server", projectd)
    assert code == 0  # listing form, no name argument

    code, out, _ = run_cli(capsys, "project", "stop", "cli-proj",
                           "--project-server", projectd)
    assert code == 0
    assert out[0].startswith("stopped cli-proj: 1 delivered (cli-c1=1)")


def test_demo_command_small_run(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "demo", "--files", "120", "--consumers", "2",
                           "--root", str(tmp_path / "demo"))
    assert code == 0
    assert out[-1] == "all end-to-end checks passed"
    assert any(line.startswith("migrated 120 files") for line in out)
