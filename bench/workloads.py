"""The benchmark's three workloads, one round at a time.

Every round boots a fresh deployment (that is its set-up), runs the
workload's timed phase as one closed-loop client, checks every output,
and ends with a kill -9 of the catalog that must lose nothing
acknowledged.  The inputs come only from the seed.

* ingest:  migrate a demo export, verify it, seed every file onto tape,
           read the project dataset back through a station.
* deliver: two consumers in two projects pull one dataset through the
           same analysis station, whose cache holds a quarter of it.
* bulk:    upload large files through an analysis station, deliver them
           from tape to one station, then from that station to the other.
"""

from __future__ import annotations

import random
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import deploy
from deploy import CATALOG, PROJECT, ROUTER, SEEDER, STATION_A, STATION_B, STORE

from samforge.catalog import CatalogClient
from samforge.consumer import AdaptorConfig, adaptor_run
from samforge.demo import make_corpus
from samforge.migrate import load_export, run_migration, verify_migration
from samforge.naming import ConventionViolation, parse_legacy_name
from samforge.query import Atom
from samforge.records import FileRecord
from samforge.transfer import crc32_bytes, crc32_file, put_to_store
from samforge.wire import Client

MiB = 1 << 20

# The store charges this much per volume switch in every workload.
MOUNT_LATENCY_MS = 5
# In deliver, each analysis station caches this share of the dataset's bytes.
DELIVER_CACHE_SHARE = 0.25
SMALL_VOLUME_BYTES = 256 * 1024  # the demo's volume size, for the small-file corpora
RESTARTS = 3  # catalog kill -9 and restarts per round; restart_s is their median

# A well-formed corpus name; make_corpus writes only these and its malformed list.
_WELL_FORMED = re.compile(r"^[a-z]{4}\d{4}_fs\d{4}_\d{4}\.(raw|prd|ntp)$")


@dataclass
class Sizes:
    ingest_files: int = 3000
    ingest_readback: int = 100
    deliver_files: int = 500
    bulk_files: int = 6
    bulk_mib: int = 32
    bulk_background: int = 400


@dataclass
class Round:
    """What one round measured and checked."""

    traced: bool
    setup_s: float = 0.0
    busy_s: float = 0.0  # the time files_per_s is taken over
    files: int = 0
    bytes: int = 0
    latencies: list[float] = field(default_factory=list)  # seconds per unit operation
    restart_s: float = 0.0
    peak_rss_kib: dict[str, int] = field(default_factory=dict)
    store_write_bytes: int = 0
    store_put_bytes: int = 0
    migrated_rows: int = 0
    phases: dict[str, float] = field(default_factory=dict)
    windows: list[tuple[int, int]] = field(default_factory=list)  # timed phases, ns
    status: dict[str, dict] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, problem: str, ops: int = 1) -> None:
        if not ok:
            self.failed += ops
            self.problems.append(problem)


class Bench:
    """Inputs shared by every round of one run, and the round loop's hooks."""

    def __init__(self, workload: str, run_dir: Path, seed: int, sizes: Sizes):
        self.workload = workload
        self.dir = run_dir
        self.seed = seed
        self.sizes = sizes
        self.tracer = None  # the load generator's tracer during a traced round
        PREPARE[workload](self)

    def span(self, name: str):
        return _Span(self.tracer, name)

    def run_round(self, index: int, trace_dir: Path | None) -> Round:
        rnd = Round(traced=trace_dir is not None)
        round_dir = self.dir / f"round{index}"
        round_dir.mkdir()
        dep = deploy.Deployment(round_dir, trace_dir=trace_dir, mount_latency_ms=MOUNT_LATENCY_MS,
                                **TOPOLOGY[self.workload](self))
        spawned = time.monotonic()
        try:
            dep.start()
            ROUNDS[self.workload](self, dep, rnd, index, spawned)
            restart_gate(dep, rnd)
        except Exception as e:  # noqa: BLE001 - any failure is reported, never hidden
            rnd.failed += 1
            rnd.attempted += 1
            rnd.problems.append(f"{type(e).__name__}: {e}")
        finally:
            dep.stop()
        return rnd


class _Span:
    def __init__(self, tracer, name: str):
        self.tracer, self.name, self.span = tracer, name, None

    def __enter__(self):
        if self.tracer is not None:
            self.span = self.tracer.begin(self.name)
        return self

    def __exit__(self, *exc):
        if self.span is not None:
            self.tracer.end(self.span)


# -- shared steps ------------------------------------------------------------

def _corpus(bench: Bench, name: str, **kwargs):
    corpus = make_corpus(bench.dir / name, seed=bench.seed, **kwargs)
    crcs = {p.name: crc32_file(p) for p in corpus.content_dir.iterdir()}
    return corpus, load_export(corpus.export_dir), crcs


class _TimedCatalog:
    """The catalog client run_migration uses, timing each declare."""

    def __init__(self, client: CatalogClient):
        self._client = client
        self.declare_s: list[float] = []

    def declare_file(self, record):
        started = time.perf_counter()
        try:
            return self._client.declare_file(record)
        finally:
            self.declare_s.append(time.perf_counter() - started)

    def __getattr__(self, name):
        return getattr(self._client, name)


def migrate(bench: Bench, rnd: Round, catalog, export, content_dir: Path,
            expected_violations: int):
    with bench.span("bench.migrate"):
        report = run_migration(export, catalog, import_time=time.time(),
                               content_dir=content_dir)
    rows = len(export.files)
    rnd.attempted += rows
    rnd.migrated_rows += rows
    expected = sorted(r.file_name for r in export.files if not _WELL_FORMED.match(r.file_name))
    flagged = sorted(name for name, _ in report.violations)
    rnd.check(report.declared == rows and report.duplicates == 0,
              f"migration declared {report.declared} of {rows} rows "
              f"({report.duplicates} duplicates)", max(1, rows - report.declared))
    rnd.check(flagged == expected and len(expected) == expected_violations,
              f"migration flagged {len(flagged)} names, the export has {len(expected)} "
              f"malformed ({expected_violations} generated)")
    datasets = [f"dfc-{d}" for d in export.dataset_ids()]
    rnd.check(report.datasets_created == datasets,
              f"migration created datasets {report.datasets_created}, wanted {datasets}")
    return report


def seed_store(bench: Bench, rnd: Round, dep: deploy.Deployment, catalog, corpus,
               names: list[str]) -> None:
    """Put each file on the tape store and record the location, as seed_stores does."""
    store_data = dep.data_listen[STORE]
    with bench.span("bench.seed"):
        for name in names:
            data = (corpus.content_dir / name).read_bytes()
            crc = crc32_bytes(data)
            record = catalog.get_file(name)
            rnd.attempted += 1
            rnd.check(record.crc32 == crc, f"catalog CRC of {name} differs from its bytes")
            parts = parse_legacy_name(name)
            fileset = 0 if isinstance(parts, ConventionViolation) else parts.fileset_number
            volume = put_to_store(store_data, SEEDER, name, fileset, data, crc)
            catalog.add_location(record.file_id, STORE, volume)
            rnd.store_put_bytes += len(data)


class _Consumer:
    """One consumer adaptor fed GETFILE/RELEASE lines until its project ends.

    The adaptor runs in the calling thread; GETFILE to FILE is timed, and
    every delivered path is checked against the corpus CRC before release.
    """

    def __init__(self, bench: Bench, rnd: Round, project: str, crcs: dict[str, int]):
        self.bench, self.rnd, self.project, self.crcs = bench, rnd, project, crcs
        self.delivered: list[str] = []
        self.bad_crc: list[str] = []
        self.latencies: list[float] = []
        self.bytes = 0
        self._asked = 0.0
        self._span = None
        self._last = ""

    def run(self, dep: deploy.Deployment, station: str, dataset: str) -> int:
        config = AdaptorConfig(project_addr=dep.addr(PROJECT), station_addr=dep.addr(station),
                               consumer_id=f"{self.project}-consumer")
        client = Client(dep.addr(PROJECT))
        try:
            return adaptor_run(self._lines(dataset), self, config, lambda _addr: client)
        finally:
            client.close()

    def _lines(self, dataset: str):
        yield f"CONFIGURE {self.project} {dataset}"
        while True:
            tracer = self.bench.tracer
            self._span = tracer.begin("consumer.getfile") if tracer else None
            self._asked = time.perf_counter()
            yield "GETFILE"
            path = Path(self._last[len("FILE "):])
            if self.crcs.get(path.name) != crc32_file(path):
                self.bad_crc.append(path.name)
            self.delivered.append(path.name)
            self.bytes += path.stat().st_size
            yield "RELEASE"

    # the adaptor's output stream
    def write(self, text: str) -> None:
        line = text.rstrip("\n")
        if line.startswith(("FILE ", "END", "ERR")) and self._span is not None:
            self.bench.tracer.end(self._span)
            self._span = None
        if line.startswith("FILE "):
            self.latencies.append(time.perf_counter() - self._asked)
        self._last = line

    def flush(self) -> None:
        pass

    def check(self, exit_code: int, expected: list[str]) -> None:
        rnd = self.rnd
        rnd.attempted += len(expected)
        rnd.check(exit_code == 0, f"{self.project}: adaptor ended with {self._last!r}")
        missing = len(set(expected) - set(self.delivered))
        repeats = len(self.delivered) - len(set(self.delivered))
        rnd.check(missing == 0 and repeats == 0 and len(self.delivered) == len(expected),
                  f"{self.project}: {missing} files missing, {repeats} delivered twice",
                  max(1, missing + repeats))
        rnd.check(not self.bad_crc, f"{self.project}: CRC mismatch on {self.bad_crc[:3]}",
                  len(self.bad_crc))


def restart_gate(dep: deploy.Deployment, rnd: Round) -> None:
    """kill -9 the catalog, RESTARTS times; it must lose nothing acknowledged.

    The acknowledged locations are the store's files plus each station's
    cache entries; the catalog must hold exactly those before the first
    kill, and the same files and locations after every restart.
    """
    rnd.peak_rss_kib = dep.peak_rss_kib()
    rnd.store_write_bytes = deploy.write_bytes(dep.daemons[STORE].proc.pid)
    rnd.status = {label: _call(dep.addr(label), "status")
                  for label in (STORE, ROUTER, STATION_A, STATION_B)}
    before = _call(dep.addr(CATALOG), "status")
    locations = rnd.status[STORE]["files"] + sum(
        len(rnd.status[s]["cache"]["entries"]) for s in (ROUTER, STATION_A, STATION_B))
    rnd.attempted += 1
    rnd.check(before["locations"] == locations,
              f"catalog holds {before['locations']} locations, the endpoints {locations}")
    took = []
    for _ in range(RESTARTS):
        after = {}
        took.append(dep.restart_catalog(
            lambda: after.update(_call(dep.addr(CATALOG), "status"))))
        rnd.attempted += 1
        rnd.check((after["files"], after["locations"]) == (before["files"], before["locations"]),
                  f"after kill -9 the catalog holds {after['files']} files and "
                  f"{after['locations']} locations, {before['files']} and "
                  f"{before['locations']} were acknowledged")
    rnd.restart_s = sorted(took)[len(took) // 2]


def _call(addr: str, op: str, **args):
    with Client(addr) as client:
        return client.call(op, **args)


# -- ingest ------------------------------------------------------------------

def _prepare_ingest(bench: Bench) -> None:
    bench.corpus, bench.export, bench.crcs = _corpus(
        bench, "corpus", n_files=bench.sizes.ingest_files,
        project_dataset_size=bench.sizes.ingest_readback)


def _ingest(bench: Bench, dep: deploy.Deployment, rnd: Round, index: int,
            spawned: float) -> None:
    corpus, export = bench.corpus, bench.export
    rnd.setup_s = time.monotonic() - spawned
    t0 = time.monotonic_ns()
    with CatalogClient(dep.addr(CATALOG)) as client:
        catalog = _TimedCatalog(client)
        migrate(bench, rnd, catalog, export, corpus.content_dir, expected_violations=10)
        t1 = time.monotonic_ns()
        with bench.span("bench.verify"):
            divergences = verify_migration(export, client)
        rnd.attempted += len(export.dataset_ids())
        rnd.check(not divergences, f"verify found divergences in "
                  f"{[d['dataset'] for d in divergences]}", len(divergences))
        t2 = time.monotonic_ns()
        names = sorted(bench.crcs)
        seed_store(bench, rnd, dep, client, corpus, names)
        t3 = time.monotonic_ns()
    readback = _Consumer(bench, rnd, f"readback-{index}", bench.crcs)
    with bench.span("bench.readback"):
        code = readback.run(dep, STATION_A, corpus.project_dataset)
    readback.check(code, corpus.files_by_dataset[corpus.project_dataset_id])
    t4 = time.monotonic_ns()

    rnd.windows = [(t0, t4)]
    rnd.busy_s = (t3 - t0) / 1e9
    rnd.files = len(export.files)
    rnd.bytes = rnd.store_put_bytes
    rnd.latencies = catalog.declare_s  # the user's unit: one export row declared
    rnd.phases.update({
        "migrate_files_per_s": len(export.files) / ((t1 - t0) / 1e9),
        "verify_s": (t2 - t1) / 1e9,
        "seed_files_per_s": len(names) / ((t3 - t2) / 1e9),
    })


def _ingest_topology(bench: Bench) -> dict:
    return {"volume_capacity_bytes": SMALL_VOLUME_BYTES,
            "cache_capacity_bytes": dict.fromkeys((ROUTER, STATION_A, STATION_B), 64 * MiB)}


# -- deliver -----------------------------------------------------------------

def _prepare_deliver(bench: Bench) -> None:
    n = bench.sizes.deliver_files
    bench.corpus, bench.export, bench.crcs = _corpus(
        bench, "corpus", n_files=n, n_datasets=2, n_malformed=0, project_dataset_size=n)
    bench.dataset_bytes = sum(r.size_bytes for r in bench.export.files)


def _deliver(bench: Bench, dep: deploy.Deployment, rnd: Round, index: int,
             spawned: float) -> None:
    corpus = bench.corpus
    with CatalogClient(dep.addr(CATALOG)) as catalog:
        migrate(bench, rnd, catalog, bench.export, corpus.content_dir, expected_violations=0)
        seed_store(bench, rnd, dep, catalog, corpus, sorted(bench.crcs))
    rnd.setup_s = time.monotonic() - spawned

    expected = corpus.files_by_dataset[corpus.project_dataset_id]
    consumers = [_Consumer(bench, rnd, f"deliver-{index}-{side}", bench.crcs)
                 for side in "ab"]
    codes = [None, None]
    start = threading.Barrier(2)

    def drive(i: int) -> None:
        start.wait()
        codes[i] = consumers[i].run(dep, STATION_A, corpus.project_dataset)

    other = threading.Thread(target=drive, args=(1,))
    other.start()
    t0 = time.monotonic_ns()
    try:
        with bench.span("bench.deliver"):
            drive(0)
    finally:
        other.join()
    t1 = time.monotonic_ns()
    for consumer, code in zip(consumers, codes):
        consumer.check(code, expected)

    rnd.windows = [(t0, t1)]
    rnd.busy_s = (t1 - t0) / 1e9
    rnd.latencies = consumers[0].latencies + consumers[1].latencies
    rnd.files = sum(len(c.delivered) for c in consumers)
    rnd.bytes = sum(c.bytes for c in consumers)
    rnd.phases["deliver_files_per_s"] = rnd.files / rnd.busy_s


def _deliver_topology(bench: Bench) -> dict:
    cache = int(bench.dataset_bytes * DELIVER_CACHE_SHARE)
    return {"volume_capacity_bytes": SMALL_VOLUME_BYTES,
            "cache_capacity_bytes": {ROUTER: 64 * MiB, STATION_A: cache, STATION_B: cache}}


# -- bulk --------------------------------------------------------------------

BULK_DATASET = "bulk-upload"


def _prepare_bulk(bench: Bench) -> None:
    bench.corpus, bench.export, bench.crcs = _corpus(
        bench, "background", n_files=bench.sizes.bulk_background)
    upload_dir = bench.dir / "upload"
    upload_dir.mkdir()
    rng = random.Random(bench.seed)
    bench.uploads = []
    for i in range(bench.sizes.bulk_files):
        path = upload_dir / f"bblk0101_fs{9101 + i:04d}_0000.raw"
        path.write_bytes(rng.randbytes(bench.sizes.bulk_mib * MiB))
        bench.uploads.append(path)
    bench.upload_crcs = {p.name: crc32_file(p) for p in bench.uploads}


def _bulk(bench: Bench, dep: deploy.Deployment, rnd: Round, index: int,
          spawned: float) -> None:
    with CatalogClient(dep.addr(CATALOG)) as catalog:
        migrate(bench, rnd, catalog, bench.export, bench.corpus.content_dir,
                expected_violations=10)
        catalog.define_dataset(BULK_DATASET, Atom("event_type", "=", "blk"))
    rnd.setup_s = time.monotonic() - spawned

    t0 = time.monotonic_ns()
    upload_s = []
    with Client(dep.addr(STATION_A)) as station, bench.span("bench.upload"):
        for path in bench.uploads:
            record = FileRecord(file_name=path.name, size_bytes=0, crc32=0, data_tier="raw",
                                event_type="blk", program_version=1, calibration_set=1).to_wire()
            record.pop("file_id")
            rnd.attempted += 1
            started = time.perf_counter()
            station.call("store", record=record, local_path=str(path))
            upload_s.append(time.perf_counter() - started)
            rnd.store_put_bytes += path.stat().st_size
    buffered = list((dep.state / ROUTER / "permanent").iterdir())
    rnd.check(not buffered, f"router still buffers {[p.name for p in buffered]}", len(buffered))
    with CatalogClient(dep.addr(CATALOG)) as catalog:
        for path in bench.uploads:
            where = [loc.endpoint_name
                     for loc in catalog.get_locations(catalog.get_file(path.name).file_id)]
            rnd.check(where == [STORE], f"{path.name} is at {where}, not only on tape")

    expected = [p.name for p in bench.uploads]
    tape = _Consumer(bench, rnd, f"bulk-tape-{index}", bench.upload_crcs)
    with bench.span("bench.tape_pass"):
        tape.check(tape.run(dep, STATION_A, BULK_DATASET), expected)
    gets = _call(dep.addr(STORE), "status")["gets"]
    peer = _Consumer(bench, rnd, f"bulk-peer-{index}", bench.upload_crcs)
    with bench.span("bench.peer_pass"):
        peer.check(peer.run(dep, STATION_B, BULK_DATASET), expected)
    t1 = time.monotonic_ns()
    gets_after = _call(dep.addr(STORE), "status")["gets"]
    rnd.check(gets_after == gets, f"the peer pass read tape {gets_after - gets} times")

    size = sum(p.stat().st_size for p in bench.uploads)
    rnd.windows = [(t0, t1)]
    rnd.latencies = upload_s + tape.latencies + peer.latencies
    rnd.busy_s = sum(rnd.latencies)
    rnd.files = 3 * len(bench.uploads)
    rnd.bytes = 3 * size
    rnd.phases.update({
        "upload_mib_per_s": size / MiB / sum(upload_s),
        "tape_fetch_mib_per_s": size / MiB / sum(tape.latencies),
        "peer_fetch_mib_per_s": size / MiB / sum(peer.latencies),
    })


def _bulk_topology(bench: Bench) -> dict:
    room = 2 * bench.sizes.bulk_files * bench.sizes.bulk_mib * MiB
    return {"volume_capacity_bytes": 2 * bench.sizes.bulk_mib * MiB,
            "cache_capacity_bytes": dict.fromkeys((ROUTER, STATION_A, STATION_B), room)}


PREPARE = {"ingest": _prepare_ingest, "deliver": _prepare_deliver, "bulk": _prepare_bulk}
ROUNDS = {"ingest": _ingest, "deliver": _deliver, "bulk": _bulk}
TOPOLOGY = {"ingest": _ingest_topology, "deliver": _deliver_topology, "bulk": _bulk_topology}
WORKLOADS = tuple(ROUNDS)
