"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

The smoke tests boot the real daemons and run each workload at a tiny
size through every correctness gate, traced and untraced.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# -- the percentile rule -----------------------------------------------------

def test_tail_uses_p99_when_ten_samples_lie_beyond_it():
    values = list(range(1, 1001))  # p99 by nearest rank is 990; 10 values beyond
    assert spans.tail(values, 99) == (990, 99.0)


def test_tail_falls_back_to_the_highest_percentile_with_ten_beyond():
    values = list(range(1, 101))
    value, pct = spans.tail(values, 99)
    assert value == 90 and pct == 90.0
    assert sum(v > value for v in values) == 10


def test_tail_ignores_input_order_and_keeps_ten_beyond_for_any_size():
    for n in (21, 22, 57, 333):
        values = list(range(n, 0, -1))
        value, _ = spans.tail(values, 99)
        assert sum(v > value for v in values) == 10


def test_tail_with_too_few_samples_reports_the_median():
    assert spans.tail([5, 1, 3], 99) == (3, 200 / 3)
    assert spans.tail([], 99) == (None, None)


# -- self time ---------------------------------------------------------------

def _span(sid, parent, name, t0, t1, thread=1):
    return [sid, parent, name, t0, t1, thread, None]


def test_self_time_subtracts_children_in_the_same_thread_only():
    root = _span(1, None, "op.next", 0, 100)
    tree = [
        root,
        _span(2, 1, "rpc.get_file", 10, 20),
        _span(3, 1, "rpc.fetch", 30, 70),
        _span(4, 3, "rpc.get_locations", 35, 45),  # grandchild: inside its parent
        _span(5, 1, "rpc.elsewhere", 80, 90, thread=2),  # another thread
        _span(6, "4242:7", "op.remote", 0, 5),  # parent in another process
    ]
    kids = spans.children_index(tree)
    assert [s[0] for s in kids[1]] == [2, 3]
    assert spans.self_ns(root, kids[1]) == 100 - 10 - 40
    assert spans.self_ns(tree[2], kids[3]) == 40 - 10


def test_self_time_counts_overlapping_children_once_and_clips_them():
    root = _span(1, None, "op.fetch", 100, 200)
    children = [_span(2, 1, "a", 90, 130), _span(3, 1, "b", 120, 150),
                _span(4, 1, "c", 190, 260)]
    assert spans.self_ns(root, children) == 100 - 50 - 10


def test_tracer_nests_spans_per_thread_and_dumps_closed_ones(tmp_path):
    tracer = spans.Tracer("loadgen")
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.end(inner)
    dangling = tracer.begin("dangling")
    tracer.end(outer)
    assert inner[1] == outer[0] and dangling[1] == outer[0]
    tracer.dump(tmp_path / "d.json")
    (doc,) = layers.load_dumps(tmp_path)
    assert [s[2] for s in doc["spans"]] == ["outer", "inner"]


# -- empty metrics -----------------------------------------------------------

def test_a_metric_that_measured_nothing_is_a_problem():
    values = {"store.put_ms_p50": None, "journal.fsyncs_per_file": 0.0,
              "station.hit_ratio": 0.0, "station.evictions_per_file": None,
              "wire.rpcs_per_file": 4.2}
    assert run._unmeasured(values) == [
        "metric store.put_ms_p50 measured nothing",
        "metric journal.fsyncs_per_file measured nothing",
        "metric station.evictions_per_file measured nothing",
    ]


# -- smoke runs --------------------------------------------------------------

TINY = workloads.Sizes(ingest_files=150, ingest_readback=25, deliver_files=60,
                       bulk_files=2, bulk_mib=1, bulk_background=150)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_each_workload_passes_every_gate_at_tiny_size(tmp_path, workload, trace):
    result = run.run(workload, seed=7, seconds=0.01, trace=trace, run_dir=tmp_path,
                     sizes=TINY, say=lambda _line: None)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] > 0
    wanted = (set(layers.METRICS) - set(layers.ONE_WORKLOAD) - set(layers.ERROR_COUNTS)
              | {"tracing.overhead_pct"}) if trace else set(run.END_TO_END)
    assert set(result["metrics"]) == wanted
    assert all(m["value"] > 0 for name, m in result["metrics"].items()
               if not name.startswith(("station.hit_ratio", "station.evictions",
                                       "tracing.")))
