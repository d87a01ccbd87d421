"""The eight headline guarantees, one test per criterion.

conftest.py turns these results into a per-criterion PASS/FAIL summary at
the end of the run; keep the test names in the test_criterion_<n>_<slug>
form it parses.
"""

import csv
import io
import itertools
import random
import re
import socket
import time
from pathlib import Path

import pytest

from samforge.catalog import CatalogClient
from samforge.consumer import COMMANDS, STATES, TABLE, AdaptorConfig, adaptor_run
from samforge.demo import check_demo_results, make_corpus, run_demo
from samforge.errors import AccessDenied, CacheFull, ConnectFailed, RemoteError
from samforge.migrate import load_export, run_migration
from samforge.query import Atom
from samforge.records import FileRecord
from samforge.transfer import crc32_bytes, crc32_file, crc32_stream
from samforge.wire import Client, ControlHandler, Dispatcher, Server, format_addr

from conftest import run_threads, spawn_daemon, stop_daemon
from test_crc import reference_crc32
from test_fsm import CASES, at_state


# -- criterion 1: end-to-end replay -----------------------------------------

def test_criterion_1_end_to_end_replay(tmp_path):
    """Full topology: migrate 1000 files, run a 4-consumer project."""
    results = run_demo(tmp_path / "demo", n_consumers=4, mount_latency_ms=0)

    assert check_demo_results(results) == []
    assert results["elapsed_s"] < 60

    # the advertised topology actually ran
    assert set(results["stores"]) == {"cdfen-sim", "stken-sim"}
    assert len(results["stations"]) == 3  # one router, two analysis stations

    # migration of the synthetic export
    assert results["migration"]["declared"] == 1000
    assert len(results["migration"]["violations"]) == 10
    assert len(results["corpus"]["datasets"]) == 5
    assert results["divergences"] == []

    # delivery: every snapshot file exactly once, consumers within one
    transcript = results["transcript"]
    delivered = [t["file_id"] for t in transcript]
    assert len(delivered) == 100
    assert len(set(delivered)) == 100
    counts = results["summary"]["delivered_counts"]
    assert len(counts) == 4
    assert max(counts.values()) - min(counts.values()) <= 1
    assert results["summary"]["undelivered"] == []

    # every delivered path matched the catalog checksum at read time
    assert all(t["crc_ok"] for t in transcript)


# -- criterion 2: corruption recovery ---------------------------------------

def test_criterion_2_corruption_recovery(rig):
    store_access = {"cdfa-1": "read_only", "seeder": "read_write"}
    rig.add_store("cdfen-sim", store_access)
    rig.add_store("stken-sim", store_access)
    station = rig.add_station(
        "cdfa-1",
        [("cdfen-sim", "read_only", 4), ("stken-sim", "read_only", 4)])

    rng = random.Random(20260823)
    originals = {}
    for i in range(90):
        name = f"c2-{i:02d}.raw"
        data = rng.randbytes(rng.randrange(64, 257))
        originals[name] = data
        rig.seed_file(name, data, fileset=i // 25, stores=["cdfen-sim", "stken-sim"])

    # cdfen-sim sorts first, so every fetch tries it before stken-sim
    wrapper = station.inject_faults("cdfen-sim", seed=99, corrupt_every_nth=3)

    for name, data in originals.items():
        path = station.fetch_file(name)
        assert Path(path).read_bytes() == data  # no corrupt bytes reachable

    assert wrapper.calls == 90
    assert wrapper.corrupted == 30  # every 3rd transfer was flipped
    assert station.counters["crc_mismatches"] == 30
    assert station.counters["retries"] == 30
    assert station.counters["transfers_ok"] == 90

    mismatches = [e for e in station.events if e["kind"] == "crc_mismatch"]
    assert len(mismatches) == 30
    assert {e["endpoint"] for e in mismatches} == {"cdfen-sim"}

    # the cached copies still match the catalog record checksums
    with rig.catalog_client() as catalog:
        for name, data in originals.items():
            record = catalog.get_file(name)
            assert record.crc32 == crc32_bytes(data)
            cached = Path(station.fetch_file(name))
            assert crc32_file(cached) == record.crc32


# -- criterion 3: access and rate enforcement -------------------------------

def test_criterion_3_access_and_rate_enforcement(rig):
    rig.add_store("cdfen-sim", {"fcdf-router": "read_only", "seeder": "read_write"},
                  mount_latency_ms=20)
    router = rig.add_station("fcdf-router", [("cdfen-sim", "read_only", 2)],
                             role="router", route_target="cdfen-sim")

    # writes routed to the read-only archive are refused outright
    record = {
        "file_name": "denied.raw", "size_bytes": 0, "crc32": 0,
        "data_tier": "raw", "event_type": "phy", "program_version": 1,
        "calibration_set": 1,
    }
    empty = rig.root / "denied.raw"
    empty.write_bytes(b"")
    with pytest.raises(AccessDenied) as excinfo:
        router.store_file(record, local_path=str(empty))
    assert excinfo.value.code == "ACCESS_DENIED"

    # 20 concurrent fetches against a 2-slot endpoint: exactly 2 in flight
    for i in range(20):
        rig.seed_file(f"c3-{i:02d}.raw", bytes([i]) * 64, fileset=i,
                      stores=["cdfen-sim"])

    run_threads(20, lambda i: router.fetch_file(f"c3-{i:02d}.raw"))

    limits = router.station_status()["rate_limits"]["cdfen-sim"]
    assert limits["slots"] == 2
    assert limits["high_water"] == 2  # reached the cap, never exceeded it
    assert limits["in_flight"] == 0
    assert router.counters["transfers_ok"] == 20


# -- criterion 4: migration oracle ------------------------------------------

LEGACY_NAME = re.compile(r"[a-z][a-z]{3}[0-9]{4}_fs[0-9]{4}_[0-9]{4}\.(raw|prd|ntp)")


def test_criterion_4_migration_oracle(rig, tmp_path):
    corpus = make_corpus(tmp_path / "corpus")  # 1000 files, 5 datasets, 10 malformed

    # independent oracle: a brute-force scan of the export table
    by_dataset: dict[str, set[str]] = {}
    with open(corpus.export_dir / "files.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            by_dataset.setdefault(row["dataset_id"], set()).add(row["file_name"])
    assert len(by_dataset) == 5

    export = load_export(corpus.export_dir)
    with rig.catalog_client() as catalog:
        report = run_migration(export, catalog, import_time=time.time(),
                               content_dir=corpus.content_dir)
        assert report.declared == 1000

        for dataset_id, expected in sorted(by_dataset.items()):
            resolved = set(catalog.call("resolve_dataset",
                                        name=f"dfc-{dataset_id}")["file_names"])
            assert resolved == expected  # set equality, per dataset

        rerun = run_migration(export, catalog, import_time=time.time(),
                              content_dir=corpus.content_dir)
        assert rerun.declared == 0
        assert rerun.duplicates == 1000
        assert rerun.datasets_created == []

        # the malformed names: reported, flagged, still queryable
        all_names = set().union(*by_dataset.values())
        expected_violators = {n for n in all_names if not LEGACY_NAME.fullmatch(n)}
        reported = {name for name, _ in report.violations}
        assert reported == expected_violators
        assert len(reported) == 10
        for name in sorted(reported):
            record = catalog.get_file(name)
            assert record.convention_violation is True


# -- criterion 5: FSM conformance -------------------------------------------

class _FuzzServer:
    def __init__(self, remaining):
        self.remaining = remaining

    def call(self, op, **kwargs):
        if op == "next":
            if self.remaining <= 0:
                return {"end": True}
            self.remaining -= 1
            return {"file_id": self.remaining, "path": f"/f/{self.remaining}"}
        return {}


def _legal_outcome(lines, remaining):
    """Independent mirror of the protocol rules: 'ok' or 'err' per session."""
    state = "Start"
    for raw in lines:
        words = raw.split()
        if not words:
            continue
        verb, args = words[0], words[1:]
        if verb == "BYE" and state in ("Start", "Configured", "Holding"):
            return "ok"
        if state == "Start" and verb == "CONFIGURE":
            state = "Configured"
        elif state == "Configured" and verb == "GETFILE":
            if remaining == 0:
                return "ok"  # END closes the session cleanly
            remaining -= 1
            state = "Holding"
        elif state == "Holding" and verb == "RELEASE":
            status = args[0] if args else "consumed"
            if status not in ("consumed", "skipped"):
                return "err"
            state = "Configured"
        else:
            return "err"
    return "err"  # input ran dry without BYE


def test_criterion_5_fsm_conformance_and_fuzz():
    # table-driven: every (state, input) pair behaves as the hand-written
    # expectation table demands
    assert {(s, c) for s, c, _, _ in CASES} == set(itertools.product(STATES, COMMANDS))
    assert set(TABLE) == set(itertools.product(STATES, COMMANDS))
    for state, verb, expected, after in CASES:
        fsm = at_state(state)
        action = fsm.command(verb, [])
        assert action[0] == expected
        assert fsm.state == after

    # 10,000 fuzzed message sequences through the full adaptor
    rng = random.Random(0xC0FFEE)
    config = AdaptorConfig(project_addr="x", station_addr="y",
                           project="proj", consumer_id="fuzz")
    arg_pools = {
        "CONFIGURE": ([], ["p2"]),
        "RELEASE": ([], ["consumed"], ["skipped"], ["banana"]),
    }
    verbs = ["CONFIGURE", "GETFILE", "RELEASE", "BYE", "NOISE", "getfile"]
    outcomes = {"ok": 0, "err": 0}
    for _ in range(10_000):
        lines = []
        for _ in range(rng.randrange(1, 9)):
            if rng.random() < 0.05:
                lines.append("   ")  # blank lines must be ignored
                continue
            verb = rng.choice(verbs)
            args = rng.choice(arg_pools.get(verb, ([],)))
            lines.append(" ".join([verb, *args]))
        remaining = rng.randrange(0, 3)

        expected = _legal_outcome(lines, remaining)
        out = io.StringIO()
        status = adaptor_run(iter(lines), out, config,
                             client_factory=lambda addr: _FuzzServer(remaining))
        emitted = out.getvalue().splitlines()

        if expected == "ok":
            assert status == 0, (lines, emitted)
            assert not any(line.startswith("ERR") for line in emitted), (lines, emitted)
        else:
            assert status != 0, (lines, emitted)
            assert emitted and emitted[-1].startswith("ERR "), (lines, emitted)
        outcomes[expected] += 1

    assert sum(outcomes.values()) == 10_000
    assert min(outcomes.values()) > 1000  # the fuzz exercised both kinds


# -- criterion 6: durability under kill -9 ----------------------------------

class _AcceptanceStation(Dispatcher):
    ops = {"fetch": "fetch", "unpin": "unpin"}

    def fetch(self, file_name, requesting_project=None, prefetch=()):
        return f"/delivered/{file_name}"

    def unpin(self, file_id, project):
        return True


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_criterion_6_durability_under_kill_9(tmp_path):
    n_files = 60
    catalog_addr = f"127.0.0.1:{_free_port()}"
    project_addr = f"127.0.0.1:{_free_port()}"
    catalog_journal = str(tmp_path / "catalog.journal")
    project_journal = str(tmp_path / "project.journal")

    station_server = Server(ControlHandler, _AcceptanceStation(), ("127.0.0.1", 0)).start()
    station_addr = format_addr(station_server.bound_addr)

    def boot():
        return {
            "catalog": spawn_daemon("catalogd", "--listen", catalog_addr,
                                    "--journal", catalog_journal)[0],
            "project": spawn_daemon("projectd", "--listen", project_addr,
                                    "--journal", project_journal,
                                    "--catalog", catalog_addr)[0],
        }

    daemons = boot()
    project_client = Client(project_addr)
    try:
        with CatalogClient(catalog_addr) as catalog:
            for i in range(n_files):
                catalog.declare_file(FileRecord(
                    file_name=f"acc6-{i:03d}.raw", size_bytes=1, crc32=0,
                    data_tier="raw", event_type="phy", program_version=6,
                    calibration_set=6))
            catalog.define_dataset("accept6", Atom("event_type", "=", "phy"))
            baseline = catalog.call("resolve_dataset", name="accept6")
        assert len(baseline["file_ids"]) == n_files

        def retrying(op, **kwargs):
            # one ConnectFailed per restart is expected: the client's socket
            # died with the old process; reconnection happens on retry
            for _ in range(80):
                try:
                    return project_client.call(op, **kwargs)
                except (ConnectFailed, RemoteError) as e:
                    code = getattr(e, "code", "")
                    if code not in ("CONN",):
                        raise
                    time.sleep(0.05)
            raise AssertionError(f"project server never recovered for {op}")

        retrying("start", project_name="p6", dataset_name="accept6")

        rng = random.Random(6006)
        kill_points = set(rng.sample(range(3, 2 * n_files), 10))
        ops_done = 0
        killed_while_held = 0

        def maybe_kill(held_file):
            nonlocal daemons, killed_while_held
            if ops_done not in kill_points:
                return
            for proc in daemons.values():
                stop_daemon(proc, kill=True)  # SIGKILL, no shutdown handlers
            daemons = boot()
            if held_file is not None:
                killed_while_held += 1
            # after every restart and journal replay, the catalog answers
            # the dataset exactly as before
            with CatalogClient(catalog_addr) as catalog:
                assert catalog.call("resolve_dataset", name="accept6") == baseline

        released = []
        ended = set()
        consumers = ("c1", "c2")
        while len(ended) < len(consumers):
            for consumer in consumers:
                if consumer in ended:
                    continue
                result = retrying("next", project_name="p6", consumer_id=consumer,
                                  station=station_addr)
                ops_done += 1
                if result.get("end"):
                    ended.add(consumer)
                    maybe_kill(None)
                    continue
                file_id = result["file_id"]
                maybe_kill(file_id)  # crash while this consumer holds a file
                try:
                    retrying("release", project_name="p6", consumer_id=consumer,
                             file_id=file_id)
                except RemoteError as e:
                    # a release acked just before a crash may be retried after
                    # replay; the journal already holds it
                    if e.code != "NOT_HELD":
                        raise
                released.append(file_id)
                ops_done += 1
                maybe_kill(None)

        # every file released exactly once: nothing lost, nothing repeated
        assert sorted(released) == baseline["file_ids"]
        assert len(released) == n_files

        summary = retrying("stop", project_name="p6")
        assert summary["delivered_total"] == n_files
        assert summary["undelivered"] == []
        assert killed_while_held >= 2  # crashes landed mid-delivery too

        with CatalogClient(catalog_addr) as catalog:
            assert catalog.call("resolve_dataset", name="accept6") == baseline
    finally:
        project_client.close()
        for proc in daemons.values():
            stop_daemon(proc, kill=True)
        station_server.close()


# -- criterion 7: cache discipline ------------------------------------------

def test_criterion_7_cache_discipline(rig):
    rig.add_store("stken-sim", {"cdfa-1": "read_only", "seeder": "read_write"})
    station = rig.add_station("cdfa-1", [("stken-sim", "read_only", 4)],
                              cache_capacity=5)

    names = [f"u{i}.raw" for i in range(1, 9)]
    for i, name in enumerate(names):
        rig.seed_file(name, bytes([i]), fileset=0, stores=["stken-sim"])

    def resident():
        status = station.station_status()["cache"]
        assert status["resident_bytes"] <= 5
        assert len(status["entries"]) <= 5
        return {e["file_name"]: e for e in status["entries"]}

    # two pinned, then fill to capacity
    station.fetch_file("u1.raw", requesting_project="keep")
    station.fetch_file("u2.raw", requesting_project="keep")
    for name in ("u3.raw", "u4.raw", "u5.raw"):
        station.fetch_file(name)
        resident()

    # three more fetches evict exactly the unpinned files in LRU order
    for name in ("u6.raw", "u7.raw", "u8.raw"):
        station.fetch_file(name)
        resident()
    evictions = [e["file_name"] for e in station.events if e["kind"] == "evict"]
    assert evictions == ["u3.raw", "u4.raw", "u5.raw"]
    assert station.counters["evictions"] == 3

    cache = resident()
    assert set(cache) == {"u1.raw", "u2.raw", "u6.raw", "u7.raw", "u8.raw"}
    assert cache["u1.raw"]["pin_count"] == 1  # pins survived the pressure
    assert cache["u2.raw"]["pin_count"] == 1

    # pin everything, then ask for one more: a prompt CacheFull, no deadlock
    for entry in cache.values():
        if entry["pin_count"] == 0:
            station.fetch_file(entry["file_name"], requesting_project="hold")
    started = time.monotonic()
    with pytest.raises(CacheFull):
        station.fetch_file("u3.raw")
    assert time.monotonic() - started < 1.0

    after = resident()
    assert set(after) == set(cache)  # nothing was evicted to make room
    assert all(e["pin_count"] == 1 for e in after.values())


# -- criterion 8: checksum unit vectors -------------------------------------

def test_criterion_8_checksum_vectors(tmp_path):
    # the two frozen vectors
    assert crc32_bytes(b"") == 0x00000000
    assert crc32_bytes(b"123456789") == 0xCBF43926

    # agreed with the bit-by-bit reference implementation before use
    assert reference_crc32(b"") == 0x00000000
    assert reference_crc32(b"123456789") == 0xCBF43926

    # every entry point computes the same polynomial
    for payload in (b"", b"123456789", b"a", b"samforge", bytes(range(256))):
        want = reference_crc32(payload)
        assert crc32_bytes(payload) == want
        assert crc32_stream(io.BytesIO(payload)) == want
        target = tmp_path / "vector.bin"
        target.write_bytes(payload)
        assert crc32_file(target) == want
