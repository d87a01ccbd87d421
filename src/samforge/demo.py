"""End-to-end demo: synthetic corpus, full topology, one project run.

Builds a legacy-export corpus (1000 files over 5 datasets, a handful of
convention-violating names), writes the deployment's topology file to
``<root>/run/samforge.ini`` and boots every daemon from it in one process
on ephemeral loopback ports - catalog, router station, two analysis
stations, two stores, project server - migrates the corpus, seeds both
stores with the file bytes, then drives a project over the 100-file
dataset with lockstep consumers, each one running the consumer adaptor,
verifying every delivered path against the catalog checksum.

Only the corpus is seeded.  Which consumer receives which file, and in
what order, follows thread scheduling, so transcripts differ between runs.
The checks do not depend on that order - every file delivered exactly
once, per-consumer counts within 1 of each other, every delivered path
matching its catalog CRC - so the demo doubles as the end-to-end
acceptance harness.
"""

from __future__ import annotations

import csv
import itertools
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from .catalog import CatalogClient
from .config import TopologyConfig, load_topology, serve
from .consumer import AdaptorConfig, adaptor_run
from .migrate import (
    DatasetRow,
    FileRow,
    FilesetRow,
    columns,
    load_export,
    run_migration,
    verify_migration,
)
from .naming import ConventionViolation, parse_legacy_name
from .transfer import crc32_bytes, crc32_file, put_to_store
from .wire import Client

DEFAULT_SEED = 20030617

SEEDER = "seeder"

# The README deployment, every port chosen by the kernel.
_TOPOLOGY_INI = """\
[DEFAULT]
listen = 127.0.0.1:0
cache_capacity_bytes = 67108864
volume_capacity_bytes = 262144
mount_latency_ms = {mount_latency_ms}

[store cdfen-sim]
access =
    fcdf-router read_only
    cdfa-1 read_only
    cdfa-2 read_only
    seeder read_write

[store stken-sim]
access =
    fcdf-router read_write
    cdfa-1 read_only
    cdfa-2 read_only
    seeder read_write

[station fcdf-router]
route_target = stken-sim
endpoints =
    stken-sim read_write 4
    cdfen-sim read_only 2

[station cdfa-1]
route_target = fcdf-router
endpoints =
    stken-sim read_only 4
    cdfen-sim read_only 2
    fcdf-router read_write 4
    cdfa-2 read_only 4

[station cdfa-2]
route_target = fcdf-router
endpoints =
    stken-sim read_only 4
    cdfen-sim read_only 2
    fcdf-router read_write 4
    cdfa-1 read_only 4
"""

# (stream, event_type, program_version, calibration_set, tier) per dataset
_DATASET_SHAPES = [
    ("b", "phy", 4, 11, "raw"),
    ("j", "min", 9, 2, "raw"),
    ("e", "ele", 12, 7, "prd"),
    ("m", "muo", 3, 30, "prd"),
    ("h", "had", 21, 5, "ntp"),
]

_MALFORMED_NAMES = [
    "0phy0411_fs9001_0001.raw",   # digit stream
    "bph0411_fs9001_0002.raw",    # prefix too short
    "bphy04_9002.raw",            # fileset segment missing
    "oops.raw",                   # nothing matches
    "bphy0411_fs901_0003.raw",    # 3-digit fileset
    "bphy0411_fs9001_004.raw",    # 3-digit sequence
    "bphy0411_fs9001_0005.xyz",   # unknown tier
    "BPHY0411_fs9001_0006.raw",   # uppercase stream
    "bphy0411fs9001_0007.raw",    # separator missing
    "bphy0411_fs9001_0008",       # extension missing
]


@dataclass
class Corpus:
    root: Path
    export_dir: Path
    content_dir: Path
    dataset_ids: list[str]
    project_dataset_id: str
    files_by_dataset: dict[str, list[str]] = field(default_factory=dict)

    @property
    def project_dataset(self) -> str:
        return f"dfc-{self.project_dataset_id}"


def make_corpus(root: str | Path, seed: int = DEFAULT_SEED, n_files: int = 1000,
                n_datasets: int = 5, n_malformed: int = 10,
                project_dataset_size: int = 100) -> Corpus:
    """Write a synthetic legacy export plus the file contents it describes."""
    if n_datasets > len(_DATASET_SHAPES):
        raise ValueError(f"at most {len(_DATASET_SHAPES)} datasets supported")
    root = Path(root)
    content_dir = root / "content"
    export_dir = root / "export"
    content_dir.mkdir(parents=True, exist_ok=True)
    export_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)

    dataset_ids = [str(101 + i) for i in range(n_datasets)]
    project_dataset_id = dataset_ids[-1]
    # the last dataset gets exactly the project files, all well formed;
    # the malformed names spread over the earlier datasets
    sizes = _split_evenly(n_files - project_dataset_size, n_datasets - 1)
    sizes.append(project_dataset_size)

    file_rows = []
    fileset_rows = []
    files_by_dataset: dict[str, list[str]] = {ds: [] for ds in dataset_ids}
    malformed_left = list(_MALFORMED_NAMES[:n_malformed])
    # spread the malformed names evenly over the non-project rows
    early_rows = n_files - project_dataset_size
    malformed_interval = max(1, early_rows // max(1, n_malformed))
    fileset_counter = 1
    row_key = 1

    for ds_index, (dataset_id, count) in enumerate(zip(dataset_ids, sizes)):
        stream, event_type, pv, cc, tier = _DATASET_SHAPES[ds_index]
        allow_malformed = dataset_id != project_dataset_id
        produced = 0
        while produced < count:
            fileset_number = fileset_counter
            fileset_id = f"fs{fileset_number:04d}"
            fileset_rows.append((fileset_id, dataset_id, f"tape-{fileset_number:04d}"))
            fileset_counter += 1
            batch = min(25, count - produced)
            for seq in range(batch):
                if allow_malformed and malformed_left and (row_key % malformed_interval == 0):
                    name = malformed_left.pop(0)
                else:
                    name = (f"{stream}{event_type}{pv:02d}{cc:02d}"
                            f"_fs{fileset_number:04d}_{seq:04d}.{tier}")
                size = rng.randrange(1024, 4097)
                data = rng.randbytes(size)
                (content_dir / name).write_bytes(data)
                comment = f"run {row_key} golden" if row_key % 3 == 0 else ""
                file_rows.append((name, size, fileset_id, dataset_id, comment,
                                  f"rk{row_key:06d}"))
                files_by_dataset[dataset_id].append(name)
                row_key += 1
                produced += 1
    if malformed_left:
        raise RuntimeError("corpus too small to place every malformed name")

    _write_csv(export_dir / "files.csv", FileRow, file_rows)
    _write_csv(export_dir / "filesets.csv", FilesetRow, fileset_rows)
    _write_csv(export_dir / "datasets.csv", DatasetRow,
               [(ds, f"synthetic dataset {ds}") for ds in dataset_ids])
    return Corpus(
        root=root,
        export_dir=export_dir,
        content_dir=content_dir,
        dataset_ids=dataset_ids,
        project_dataset_id=project_dataset_id,
        files_by_dataset=files_by_dataset,
    )


def _split_evenly(total: int, parts: int) -> list[int]:
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def _write_csv(path: Path, row_type, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns(row_type))
        writer.writerows(rows)


def seed_stores(topology: TopologyConfig, corpus: Corpus) -> int:
    """Copy every corpus file onto every store and record the locations."""
    seeded = 0
    with CatalogClient(topology.catalog.listen) as catalog:
        for content in sorted(corpus.content_dir.iterdir()):
            data = content.read_bytes()
            name = content.name
            record = catalog.get_file(name)
            parts = parse_legacy_name(name)
            fileset = 0 if isinstance(parts, ConventionViolation) else parts.fileset_number
            for store_name, store in topology.stores.items():
                volume_id = put_to_store(store.listen, SEEDER,
                                         name, fileset, data, crc32_bytes(data))
                catalog.add_location(record.file_id, store_name, volume_id)
            seeded += 1
    return seeded


def run_lockstep_consumers(topology: TopologyConfig, project_name: str,
                           n_consumers: int = 4) -> list[dict]:
    """Pull a whole project dry with equal-rate consumer adaptors; returns transcript."""
    stations = [name for name, station in topology.stations.items()
                if not station.is_router]
    assignments = [(f"consumer-{i + 1}", stations[i % len(stations)])
                   for i in range(n_consumers)]
    barrier = threading.Barrier(n_consumers)
    transcript: list[dict] = []
    transcript_lock = threading.Lock()
    failures: list[Exception] = []

    def consume(consumer_id: str, station_name: str) -> None:
        config = AdaptorConfig(project_addr=topology.project.listen,
                               station_addr=topology.stations[station_name].listen,
                               project=project_name, consumer_id=consumer_id)
        said: list[str] = []  # each line the adaptor writes
        out = SimpleNamespace(write=said.append, flush=lambda: None)
        catalog = CatalogClient(topology.catalog.listen)

        def lines():
            yield "CONFIGURE"
            for rounds in itertools.count(1):
                try:
                    barrier.wait(timeout=120)
                except threading.BrokenBarrierError:
                    pass  # peers finished; run the tail unsynchronized
                yield "GETFILE"
                # the adaptor reads on only after a FILE line; END or ERR ends it
                path = said[-1].removeprefix("FILE ").rstrip("\n")
                record = catalog.get_file(Path(path).name)
                with transcript_lock:
                    transcript.append({
                        "file_id": record.file_id,
                        "file_name": record.file_name,
                        "consumer": consumer_id,
                        "station": station_name,
                        "path": path,
                        "crc_ok": crc32_file(path) == record.crc32,
                        "round": rounds,
                    })
                yield "RELEASE"

        try:
            if adaptor_run(lines(), out, config) != 0:
                raise RuntimeError(f"{consumer_id}: adaptor ended with {said[-1].rstrip()!r}")
        except Exception as e:  # noqa: BLE001 - surfaced to the caller
            failures.append(e)
        finally:
            barrier.abort()
            catalog.close()

    threads = [threading.Thread(target=consume, args=pair, daemon=True)
               for pair in assignments]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    if failures:
        raise failures[0]
    return transcript


def run_demo(root: str | Path, seed: int = DEFAULT_SEED, n_consumers: int = 4,
             mount_latency_ms: int = 0, n_files: int = 1000) -> dict:
    """The full deployment replay; returns every measurable the checks need."""
    started = time.monotonic()
    root = Path(root)
    corpus = make_corpus(root / "corpus", seed=seed, n_files=n_files)
    config = root / "run" / "samforge.ini"
    config.parent.mkdir(parents=True, exist_ok=True)
    config.write_text(_TOPOLOGY_INI.format(mount_latency_ms=mount_latency_ms))
    topology = load_topology(config)
    daemons = serve(topology, topology.daemons())
    try:
        export = load_export(corpus.export_dir)
        with CatalogClient(topology.catalog.listen) as catalog:
            report = run_migration(export, catalog, import_time=time.time(),
                                   content_dir=corpus.content_dir)
            divergences = verify_migration(export, catalog)
        seeded = seed_stores(topology, corpus)

        project_name = "demo-project"
        with Client(topology.project.listen) as project:
            project.call("start", project_name=project_name,
                         dataset_name=corpus.project_dataset)
            transcript = run_lockstep_consumers(topology, project_name, n_consumers)
            summary = project.call("stop", project_name=project_name)

        station_status = {d.name: d.service.station_status()
                          for d in daemons if d.role == "station"}
        store_status = {d.name: d.service.status() for d in daemons if d.role == "store"}
    finally:
        for daemon in reversed(daemons):
            daemon.close()

    return {
        "elapsed_s": time.monotonic() - started,
        "corpus": {
            "files": n_files,
            "datasets": corpus.dataset_ids,
            "project_dataset": corpus.project_dataset,
        },
        "migration": report.to_wire(),
        "divergences": divergences,
        "seeded": seeded,
        "transcript": transcript,
        "summary": summary,
        "stations": station_status,
        "stores": store_status,
    }


def check_demo_results(results: dict) -> list[str]:
    """Every end-to-end guarantee, as a list of human-readable failures."""
    problems = []
    transcript = results["transcript"]
    delivered = [t["file_id"] for t in transcript]
    if len(delivered) != len(set(delivered)):
        problems.append("a file was delivered more than once")
    snapshot_files = results["summary"]["snapshot_files"]
    if len(delivered) != snapshot_files:
        problems.append(
            f"delivered {len(delivered)} files, snapshot holds {snapshot_files}")
    if results["summary"]["undelivered"]:
        problems.append(f"undelivered remainder: {results['summary']['undelivered']}")
    counts = results["summary"]["delivered_counts"].values()
    if counts and max(counts) - min(counts) > 1:
        problems.append(f"per-consumer counts spread beyond 1: {sorted(counts)}")
    bad_crc = [t["file_name"] for t in transcript if not t["crc_ok"]]
    if bad_crc:
        problems.append(f"delivered paths failed checksum: {bad_crc[:5]}")
    if results["divergences"]:
        problems.append(f"migration diverged: {results['divergences'][:2]}")
    return problems
