#!/usr/bin/env python3
"""samforge benchmark: one command, every metric, every output checked.

    python3 bench/run.py --workload {ingest,deliver,bulk} --seed N \\
        --seconds S --trace {0,1}

Runs rounds of the workload (see workloads.py) against daemons started
from this checkout's src/ until the timed phases add up to S seconds.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones from
traced rounds, which alternate with untraced rounds so that the tracing
overhead is measured too.  Lines before it are the human report.  Exits
1 when any output was wrong, 2 when the checkout holds no program.

State lives under .bench_run/ at the checkout root and is removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import socket
import sys
import threading
import time
import weakref
from pathlib import Path

import layers
import spans
from spans import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MAX_THREADS = 2
MAX_CONNECTIONS = 2
# Set-up is a median over rounds, and a traced run needs an untraced round too.
MIN_ROUNDS = 2
# Start no round that would end past this; the run must exit within 180 s.
RUN_DEADLINE_S = 150.0
# The gated metrics; units as in BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "files_per_s": "files/s",
    "latency_p50_ms": "ms",
    "peak_rss_mib": "MiB",
}
# Reported on their own lines, not gated: too noisy on a shared host, or
# measured on one workload only.
REPORTED = {
    "migrate_files_per_s": "files/s", "verify_s": "s", "seed_files_per_s": "files/s",
    "deliver_files_per_s": "files/s", "upload_mib_per_s": "MiB/s",
    "tape_fetch_mib_per_s": "MiB/s", "peer_fetch_mib_per_s": "MiB/s",
}


class LoadLimits:
    """Asserts the load generator's own footprint: 2 threads, 2 connections.

    Every outgoing connection goes through socket.create_connection; the
    count is taken each time one opens, which is the only moment it grows.
    """

    def __init__(self):
        self._open: weakref.WeakSet = weakref.WeakSet()
        self.peak_connections = 0
        self.peak_threads = 0
        self._original = socket.create_connection

    def _create_connection(self, *args, **kwargs):
        sock = self._original(*args, **kwargs)
        self._open.add(sock)
        live = sum(1 for s in list(self._open) if s.fileno() != -1)
        self.peak_connections = max(self.peak_connections, live)
        self.sample_threads()
        return sock

    def sample_threads(self) -> None:
        self.peak_threads = max(self.peak_threads, threading.active_count())

    def install(self) -> None:
        socket.create_connection = self._create_connection

    def uninstall(self) -> None:
        socket.create_connection = self._original

    def problems(self) -> list[str]:
        out = []
        if self.peak_threads > MAX_THREADS:
            out.append(f"load generator ran {self.peak_threads} threads (limit {MAX_THREADS})")
        if self.peak_connections > MAX_CONNECTIONS:
            out.append(f"load generator held {self.peak_connections} connections "
                       f"(limit {MAX_CONNECTIONS})")
        return out


def settle_disk() -> None:
    """Flush what the last step wrote or deleted, outside any timed phase.

    On a filesystem mounted with online discard, deleting a round's files
    costs the next journal commit, which would otherwise land on the next
    round's first fsyncs.
    """
    os.sync()


def end_to_end(rounds) -> dict[str, float]:
    return {
        "setup_s": median(r.setup_s for r in rounds),
        "files_per_s": median(r.files / r.busy_s for r in rounds),
        "latency_p50_ms": median(x for r in rounds for x in r.latencies) * 1e3,
        "peak_rss_mib": median(max(r.peak_rss_kib.values()) for r in rounds) / 1024,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, run_dir: Path,
        sizes=None, say=print) -> dict:
    """Run the rounds; returns the result object the last output line carries."""
    limits = LoadLimits()
    limits.install()
    try:
        rounds, stats = _rounds(workload, seed, seconds, trace, run_dir, sizes, say)
    finally:
        limits.uninstall()
    problems = [p for r in rounds for p in r.problems] + limits.problems()
    say(f"load generator: at most {limits.peak_threads} threads, "
        f"{limits.peak_connections} connections")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds) + len(limits.problems())
    metrics = {}
    if not problems:
        metrics, unmeasured = _metrics(rounds, stats, trace, say)
        for problem in unmeasured:
            say(f"FAIL {problem}")
        problems += unmeasured
        failed += len(unmeasured)
        say(f"report ops_failed_ratio = {failed / attempted:.6g} ratio")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _rounds(workload, seed, seconds, trace, run_dir, sizes, say):
    """Untraced rounds, or untraced and traced in turn, until enough was timed."""
    import workloads  # needs samforge importable

    started = time.monotonic()
    bench = workloads.Bench(workload, run_dir, seed, sizes or workloads.Sizes())
    settle_disk()
    stats = layers.LayerStats()
    rounds = []
    measured = 0.0
    while True:
        index = len(rounds)
        traced = trace and index % 2 == 1
        trace_dir = run_dir / f"trace{index}" if traced else None
        round_started = time.monotonic()
        if traced:
            trace_dir.mkdir()
            bench.tracer = spans.Tracer(layers.LOADGEN)
            uninstall = spans.install(bench.tracer)
            try:
                rnd = bench.run_round(index, trace_dir)
            finally:
                uninstall()
            if not rnd.problems:
                bench.tracer.dump(trace_dir / f"{layers.LOADGEN}-{os.getpid()}.json")
                stats.add_round(rnd, layers.load_dumps(trace_dir))
            bench.tracer = None
            shutil.rmtree(trace_dir, ignore_errors=True)
        else:
            rnd = bench.run_round(index, None)
        rounds.append(rnd)
        shutil.rmtree(run_dir / f"round{index}", ignore_errors=True)
        settle_disk()
        measured += sum(hi - lo for lo, hi in rnd.windows) / 1e9
        say(f"round {index}{' traced' if traced else ''}: setup {rnd.setup_s:.3f} s, "
            f"{rnd.files} files in {rnd.busy_s:.3f} s, restart {rnd.restart_s:.3f} s"
            + "".join(f"\n  FAIL {p}" for p in rnd.problems))
        took = time.monotonic() - round_started
        if rnd.problems or (measured >= seconds and len(rounds) >= MIN_ROUNDS) \
                or time.monotonic() - started + took > RUN_DEADLINE_S:
            return rounds, stats


def _unmeasured(values: dict) -> list[str]:
    """The metrics that came out empty, which means a probe stopped matching."""
    return [f"metric {name} measured nothing" for name, value in values.items()
            if value is None or (value == 0 and name not in layers.ZERO_BY_DESIGN)]


def _metrics(rounds, stats, trace: bool, say) -> tuple[dict, list[str]]:
    """The JSON line's metrics, and a problem for each one that measured nothing."""
    plain = [r for r in rounds if not r.traced]
    for name, unit in REPORTED.items():
        values = [r.phases[name] for r in plain if name in r.phases]
        if values:
            say(f"report {name} = {median(values):.6g} {unit} (median of {len(values)} rounds)")
    latencies = [x for r in plain for x in r.latencies]
    p99, pct = spans.tail(latencies, 99)
    say(f"report latency_p99_ms = {p99 * 1e3:.6g} ms (the p{pct:.4g} of {len(latencies)} "
        "samples)")
    say(f"report restart_s = {median(r.restart_s for r in plain):.6g} s "
        f"(median of {len(plain)} rounds)")
    if not trace:
        e2e = end_to_end(plain)
        for name, unit in END_TO_END.items():
            say(f"metric {name} = {e2e[name]:.6g} {unit}")
        return ({name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()},
                _unmeasured(e2e))

    traced = [r for r in rounds if r.traced]
    overhead = (median(r.files / r.busy_s for r in plain)
                / median(r.files / r.busy_s for r in traced) - 1) * 100
    values = stats.metrics()
    for name, pct in stats.tail_percentiles().items():
        say(f"{name} is the p{pct:.4g}" if pct else f"{name}: no samples")
    for name, unit in layers.METRICS.items():
        value, n = values[name]
        shown = "no samples" if value is None else f"{value:.6g} {unit}"
        say(f"layer {name} = {shown} (n={n})")
    for key, count in sorted(stats.errors.items()):
        say(f"layer errors.{key} = {count}")
    say(f"layer tracing.overhead_pct = {overhead:.6g} % (n={len(traced)})")
    line = {name: values[name][0] for name in layers.METRICS
            if name not in layers.ONE_WORKLOAD + layers.ERROR_COUNTS}
    metrics = {name: {"value": value, "unit": layers.METRICS[name]}
               for name, value in line.items() if value is not None}
    metrics["tracing.overhead_pct"] = {"value": overhead, "unit": "%"}
    return metrics, _unmeasured(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("ingest", "deliver", "bulk"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "samforge" / "__init__.py").is_file():
        print(f"no samforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # A terminated run still stops its daemons: unwind through the finally blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run_dir = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
        settle_disk()
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
