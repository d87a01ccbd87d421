"""Per-layer metrics from the spans of traced rounds.

Each traced round leaves one span dump per process (the daemons and the
load generator).  ``LayerStats.add_round`` folds a round in;
``LayerStats.metrics`` turns the pooled samples into the named metrics.
Latency metrics pool every span of their kind in the round, set-up
included; per-file counts and the busy ratio take only what happened
inside the round's timed phases.  LAYOUT.md says which end-to-end metric
each one should move.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path

from deploy import CATALOG, PROJECT, STATIONS, STORE
from spans import children_index, covered_ns, median, self_ns, tail

MiB = 1 << 20
LOADGEN = "loadgen"

# name -> unit; the order is the report's
METRICS = {
    "journal.append_us_p50": "us",
    "journal.fsyncs_per_file": "fsync/file",
    "wire.rpcs_per_file": "rpc/file",
    "wire.connects_per_file": "conn/file",
    "wire.overhead_us_p50": "us",
    "catalog.declare_us_p50": "us",
    "catalog.declare_growth": "ratio",
    "catalog.resolve_ms_p50": "ms",
    "catalog.lookup_us_p50": "us",
    "catalog.location_write_us_p50": "us",
    "catalog.replay_entries_per_s": "entries/s",
    "catalog.busy_ratio": "ratio",
    "migrate.self_ms_per_kfile": "ms/kfile",
    "store.put_ms_p50": "ms",
    "store.get_ms_p50": "ms",
    "store.drive_wait_ms_p99": "ms",
    "store.mount_switches_per_kfile": "switch/kfile",
    "store.disk_bytes_per_byte": "B/B",
    "transfer.pull_ms_p50": "ms",
    "transfer.pull_mib_per_s": "MiB/s",
    "transfer.crc_bytes_per_byte": "B/B",
    "station.hit_ratio": "ratio",
    "station.fetch_hit_ms_p50": "ms",
    "station.fetch_miss_ms_p50": "ms",
    "station.fetch_self_us_p50": "us",
    "station.evictions_per_file": "evict/file",
    "station.slot_wait_ms_p99": "ms",
    "station.store_ms_p50": "ms",
    "station.peak_rss_mib": "MiB",
    "project.next_ms_p50": "ms",
    "project.next_self_us_p50": "us",
    "project.release_us_p50": "us",
    "project.start_ms": "ms",
    "consumer.self_us_p50": "us",
    "errors.responses": "count",
    "station.retries": "count",
    "station.crc_mismatches": "count",
}

# Measured on one workload only (a station hit needs deliver's second
# project, a station store needs bulk's upload), so left out of the
# per-layer line every workload prints and reported on their own lines.
ONE_WORKLOAD = ("station.fetch_hit_ms_p50", "station.store_ms_p50")
# Exact counts that read 0 on ingest and bulk by design: no station hits
# and no evictions there.  Any other metric that reads 0 measured nothing.
ZERO_BY_DESIGN = ("station.hit_ratio", "station.evictions_per_file")
# Always zero on a correct run; the top-level failed count carries them.
ERROR_COUNTS = ("errors.responses", "station.retries", "station.crc_mismatches")


def role_of(label: str) -> str:
    if label in STATIONS:
        return "station"
    if label == STORE:
        return "store"
    return label  # catalog, project, loadgen


def load_dumps(trace_dir: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(trace_dir.glob("*.json"))]


class LayerStats:
    def __init__(self):
        self.samples: dict[str, list] = defaultdict(list)
        self.totals: Counter = Counter()
        self.errors: Counter = Counter()

    def add_round(self, rnd, dumps: list[dict]) -> None:
        S, T = self.samples, self.totals
        windows = rnd.windows

        def inside(t: int) -> bool:
            return any(lo <= t <= hi for lo, hi in windows)

        served: dict[str, int] = {}  # client span ref -> server dispatch duration
        called: list[tuple[str, int]] = []
        catalog_busy: list[tuple[int, int]] = []
        for doc in dumps:
            role = role_of(doc["label"])
            spans = doc["spans"]
            kids = children_index(spans)
            declares = []
            for s in spans:
                name, took = s[2], s[4] - s[3]
                if name.startswith("op."):
                    op = name[3:]
                    S[f"{role}.{op}"].append(took)
                    if isinstance(s[1], str):
                        served[s[1]] = took
                    if s[6] and s[6].get("err"):
                        self.errors[f"{role}.{op}.{s[6]['err']}"] += 1
                    if inside(s[3]):
                        T["rpcs"] += 1
                    if role == CATALOG:
                        catalog_busy.append((s[3], s[4]))
                        if op == "declare_file":
                            declares.append(s)
                    elif role == "station" and op == "fetch":
                        children = kids.get(s[0], [])
                        miss = any(c[2] == "pull" for c in children)
                        S["station.fetch_miss" if miss else "station.fetch_hit"].append(took)
                        if miss:  # a hit's self time is its wait on the admission lock
                            S["station.fetch_self"].append(self_ns(s, children))
                    elif role == PROJECT and op == "next":
                        S["project.next_self"].append(self_ns(s, kids.get(s[0], [])))
                elif name.startswith("rpc."):
                    called.append((f"{doc['pid']}:{s[0]}", took))
                elif name.startswith("data."):
                    S[f"{role}.data.{name[5:]}"].append(took)
                elif name == "journal.append":
                    S["journal.append"].append(took)
                elif name == "wait":
                    S[f"{role}.wait"].append(took)
                elif name == "consumer.getfile":
                    S["consumer.getfile"].append(self_ns(s, kids.get(s[0], [])))
                elif name == "pull":
                    S["pull"].append(took)
                    T["pull_bytes"] += (s[6] or {}).get("bytes", 0)
                    T["pull_ns"] += took
                elif name == "boot" and role == CATALOG and (s[6] or {}).get("entries"):
                    S["replay"].append(s[6]["entries"] / (took / 1e9))
                elif name == "bench.migrate":
                    T["migrate_self_ns"] += self_ns(s, kids.get(s[0], []))
            if len(declares) >= 20:
                declares.sort(key=lambda s: s[3])
                tenth = len(declares) // 10
                first = median(s[4] - s[3] for s in declares[:tenth])
                last = median(s[4] - s[3] for s in declares[-tenth:])
                S["declare_growth"].append(last / first)
            if role != LOADGEN:
                for mark, t, amount in doc["marks"]:
                    if inside(t):
                        T[mark] += amount
        for ref, took in called:
            if ref in served:
                S["wire.overhead"].append(took - served[ref])
        for lo, hi in windows:
            S["catalog.busy"].append(covered_ns(catalog_busy, lo, hi) / (hi - lo))

        T["files"] += rnd.files
        T["bytes"] += rnd.bytes
        T["migrated_rows"] += rnd.migrated_rows
        T["store_write_bytes"] += rnd.store_write_bytes
        T["store_put_bytes"] += rnd.store_put_bytes
        T["mount_switches"] += rnd.status[STORE]["mount_switches"]
        for station in STATIONS:
            counters = rnd.status[station]["counters"]
            for key in ("cache_hits", "transfers_ok", "evictions", "retries", "crc_mismatches"):
                T[key] += counters[key]
        S["station.peak_rss"].append(max(rnd.peak_rss_kib[s] for s in STATIONS))

    def metrics(self) -> dict[str, tuple[float | None, int]]:
        """name -> (value, samples behind it); value None when nothing was measured."""
        S, T = self.samples, self.totals

        def p50(key_or_keys, scale):
            keys = [key_or_keys] if isinstance(key_or_keys, str) else key_or_keys
            values = [v for k in keys for v in S[k]]
            m = median(values)
            return (m / scale if m is not None else None), len(values)

        def p99(key, scale):
            value, _pct = tail(S[key], 99)
            return (value / scale if value is not None else None), len(S[key])

        def ratio(num, den, scale=1.0):
            return (T[num] / T[den] * scale if T[den] else None), T[den]

        hits, misses = T["cache_hits"], T["transfers_ok"]
        migrate_rows = T["migrated_rows"]
        pull_s = T["pull_ns"] / 1e9
        return {
            "journal.append_us_p50": p50("journal.append", 1e3),
            "journal.fsyncs_per_file": ratio("fsync", "files"),
            "wire.rpcs_per_file": ratio("rpcs", "files"),
            "wire.connects_per_file": ratio("accept", "files"),
            "wire.overhead_us_p50": p50("wire.overhead", 1e3),
            "catalog.declare_us_p50": p50("catalog.declare_file", 1e3),
            "catalog.declare_growth": p50("declare_growth", 1.0),
            "catalog.resolve_ms_p50": p50(["catalog.resolve_dataset",
                                           "catalog.take_snapshot"], 1e6),
            "catalog.lookup_us_p50": p50(["catalog.get_file", "catalog.get_locations"], 1e3),
            "catalog.location_write_us_p50": p50(["catalog.add_location",
                                                  "catalog.remove_location"], 1e3),
            "catalog.replay_entries_per_s": p50("replay", 1.0),
            "catalog.busy_ratio": p50("catalog.busy", 1.0),
            "migrate.self_ms_per_kfile": (
                (T["migrate_self_ns"] / 1e6 / (migrate_rows / 1000) if migrate_rows else None),
                migrate_rows),
            "store.put_ms_p50": p50("store.data.PUT", 1e6),
            "store.get_ms_p50": p50("store.data.FETCH", 1e6),
            "store.drive_wait_ms_p99": p99("store.wait", 1e6),
            "store.mount_switches_per_kfile": ratio("mount_switches", "files", 1000.0),
            "store.disk_bytes_per_byte": ratio("store_write_bytes", "store_put_bytes"),
            "transfer.pull_ms_p50": p50("pull", 1e6),
            "transfer.pull_mib_per_s": ((T["pull_bytes"] / MiB / pull_s if pull_s else None),
                                        len(S["pull"])),
            "transfer.crc_bytes_per_byte": ratio("crc_bytes", "bytes"),
            "station.hit_ratio": ((hits / (hits + misses) if hits + misses else None),
                                  hits + misses),
            "station.fetch_hit_ms_p50": p50("station.fetch_hit", 1e6),
            "station.fetch_miss_ms_p50": p50("station.fetch_miss", 1e6),
            "station.fetch_self_us_p50": p50("station.fetch_self", 1e3),
            "station.evictions_per_file": ratio("evictions", "files"),
            "station.slot_wait_ms_p99": p99("station.wait", 1e6),
            "station.store_ms_p50": p50("station.store", 1e6),
            "station.peak_rss_mib": p50("station.peak_rss", 1024.0),
            "project.next_ms_p50": p50("project.next", 1e6),
            "project.next_self_us_p50": p50("project.next_self", 1e3),
            "project.release_us_p50": p50("project.release", 1e3),
            "project.start_ms": p50("project.start", 1e6),
            "consumer.self_us_p50": p50("consumer.getfile", 1e3),
            "errors.responses": (sum(self.errors.values()), sum(self.errors.values())),
            "station.retries": (T["retries"], T["retries"]),
            "station.crc_mismatches": (T["crc_mismatches"], T["crc_mismatches"]),
        }

    def tail_percentiles(self) -> dict[str, float | None]:
        """The percentile each p99 metric actually used, by the ten-beyond rule."""
        return {"store.drive_wait_ms_p99": tail(self.samples["store.wait"], 99)[1],
                "station.slot_wait_ms_p99": tail(self.samples["station.wait"], 99)[1]}
