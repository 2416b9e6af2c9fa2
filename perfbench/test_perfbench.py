"""Tests for the benchmark's own arithmetic and its metric tables."""

from __future__ import annotations

import json
import math
import types

import numpy as np
import pytest

from perfbench import common, runner
from perfbench.loadgen import Schedule
from perfbench.serve_open import LADDER_STEP
from perfbench.spans import SpanRecorder, mean_ms
from perfbench.stats import (
    covered,
    due_latencies,
    ladder,
    ladder_search,
    meets_limit,
    percentile,
    samples_beyond,
    self_times,
    tail_percentile,
    timing_summary,
    windowed_percentile,
)


# ----------------------------------------------------------------------
# percentiles and their sample counts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("q", [0.0, 12.5, 50.0, 95.0, 99.0, 100.0])
def test_percentile_matches_numpy_linear(q):
    values = list(np.random.default_rng(3).exponential(size=101))
    assert percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_percentile_toward_a_failure_is_infinite():
    assert percentile([1.0, 2.0, math.inf], 50.0) == 2.0
    assert percentile([1.0, 2.0, math.inf], 75.0) == math.inf
    assert percentile([math.inf, math.inf], 50.0) == math.inf


def test_percentile_rejects_empty_and_bad_q():
    with pytest.raises(ValueError):
        percentile([], 50.0)
    with pytest.raises(ValueError):
        percentile([1.0], 101.0)


@pytest.mark.parametrize("n,q,beyond", [
    (1000, 99.0, 10), (999, 99.0, 9), (100, 90.0, 10), (10000, 99.9, 10),
])
def test_samples_beyond(n, q, beyond):
    assert samples_beyond(n, q) == beyond


@pytest.mark.parametrize("n,q", [
    (50, None), (100, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, q):
    assert tail_percentile(n) == q


def test_timing_summary_states_count_and_percentile():
    values = list(range(1, 201))
    s = timing_summary(values)
    assert s["n"] == 200 and s["tail_q"] == 95.0
    assert s["p50"] == pytest.approx(100.5)
    assert s["tail"] == pytest.approx(np.percentile(values, 95.0))
    small = timing_summary([3.0, 1.0, 2.0])
    assert small["tail_q"] == 100.0 and small["tail"] == 3.0


# ----------------------------------------------------------------------
# due-time latency and the limit
# ----------------------------------------------------------------------
def test_latency_counts_from_due_time_and_failures_are_infinite():
    lat = due_latencies([0.0, 1.0, 2.0], [0.5, None, 2.25])
    assert lat == [0.5, math.inf, 0.25]
    with pytest.raises(ValueError):
        due_latencies([0.0], [])


def test_a_stall_is_charged_to_every_request_due_during_it():
    # Requests due every 10 ms; the system stalls from 0 to 100 ms and
    # then answers everything at once.  Send-time latency would read
    # ~0 for the later ones; due-time latency shows the wait.
    due = [0.01 * i for i in range(10)]
    lat = due_latencies(due, [0.1] * 10)
    assert lat == pytest.approx([0.1 - d for d in due])


def test_meets_limit():
    ok = [0.01] * 990 + [0.2] * 10
    assert meets_limit(ok, 0.05, 99.0, 0.01)
    slow = [0.01] * 980 + [0.2] * 20
    assert not meets_limit(slow, 0.05, 99.0, 0.01)
    failing = [0.01] * 985 + [math.inf] * 15
    assert not meets_limit(failing, 0.05, 99.0, 0.01)
    assert not meets_limit([], 0.05, 99.0, 0.01)


def test_windowed_percentile_groups_by_time():
    times = [0.1, 0.2, 1.1, 1.5, 3.2]
    values = [1.0, 3.0, 10.0, 20.0, 7.0]
    assert windowed_percentile(times, values, 1.0, 50.0) == [2.0, 15.0, 7.0]
    assert windowed_percentile(times, values, 1.0, 50.0, 2) == [2.0, 15.0]


def test_poisson_schedule_is_seeded_and_mixes_batches():
    a = Schedule.poisson(2000.0, 2.0, 64, np.random.default_rng(5), [10, 3])
    b = Schedule.poisson(2000.0, 2.0, 64, np.random.default_rng(5), [10, 3])
    assert np.array_equal(a.due, b.due) and np.array_equal(a.items, b.items)
    assert len(a.due) == 4000 and np.all(np.diff(a.due) >= 0)
    assert 0.005 < a.kinds.mean() < 0.03
    assert a.items[a.kinds == 1].max() < 3


# ----------------------------------------------------------------------
# the rate ladder
# ----------------------------------------------------------------------
def test_ladder_rungs_are_at_most_five_percent_apart():
    assert LADDER_STEP <= 1.05
    rates = ladder(1500.0, LADDER_STEP, 10)
    assert rates[0] == 1500.0
    assert all(b / a <= 1.05 + 1e-12 for a, b in zip(rates, rates[1:]))


@pytest.mark.parametrize("capacity", [0, 3, 17, 18, 21, 22, 39, 40])
def test_ladder_search_finds_highest_passing_rung(capacity):
    rung, probes = ladder_search(lambda k: k <= capacity, 40, 18, 4)
    assert rung == capacity
    passed = {k for k, ok in probes if ok}
    failed = {k for k, ok in probes if not ok}
    assert all(k <= capacity for k in passed)
    assert all(k > capacity for k in failed)
    if capacity < 40:
        assert capacity + 1 in failed  # the next rung was seen failing


def test_ladder_search_probes_few_rungs():
    _, probes = ladder_search(lambda k: k <= 21, 40, 18, 4)
    assert [k for k, _ in probes] == [18, 22, 20, 21]


def test_ladder_search_validates():
    with pytest.raises(ValueError):
        ladder_search(lambda k: True, 10, 0, 4)
    with pytest.raises(ValueError):
        ladder(1.0, 1.0, 3)


# ----------------------------------------------------------------------
# span self time
# ----------------------------------------------------------------------
def test_covered_merges_overlaps():
    assert covered([(1.0, 3.0), (2.0, 5.0), (8.0, 9.0)]) == 5.0
    assert covered([]) == 0.0


def test_self_time_subtracts_clipped_union_of_children():
    spans = [
        (0, "parent", 0.0, 10.0, None),
        (1, "a", 1.0, 3.0, 0),
        (2, "b", 2.0, 5.0, 0),   # overlaps a: counted once
        (3, "c", 8.0, 12.0, 0),  # sticks out: clipped to 10
        (4, "grand", 1.5, 2.5, 1),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[4] == pytest.approx(1.0)


def _fake_module():
    mod = types.SimpleNamespace()

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    return mod


def test_recorder_nests_spans_and_restores():
    mod = _fake_module()
    original = mod.outer
    rec = SpanRecorder()
    rec.wrap(mod, "inner", "inner")
    rec.wrap(mod, "outer", "outer",
             counter=lambda args, out: {"out": out})
    assert mod.outer(1) == 4 and mod.outer(2) == 6
    summary = rec.summary()
    assert summary["outer"]["calls"] == 2 and summary["inner"]["calls"] == 2
    assert summary["outer"]["self_s"] <= summary["outer"]["total_s"]
    assert summary["inner"]["self_s"] == pytest.approx(
        summary["inner"]["total_s"])
    assert rec.counters == {"out": 10.0}
    assert mean_ms(summary, "outer") > 0.0 and mean_ms(summary, "none") == 0
    rec.restore()
    assert mod.outer is original


def test_recorder_wraps_methods_and_classmethods():
    class Thing:
        def twice(self, x):
            return 2 * x

        @classmethod
        def make(cls, x):
            return cls(), x

    rec = SpanRecorder()
    rec.wrap(Thing, "twice", "twice")
    rec.wrap(Thing, "make", "make")
    obj, x = Thing.make(3)
    assert isinstance(obj, Thing) and x == 3 and obj.twice(4) == 8
    assert {n: r["calls"] for n, r in rec.summary().items()} == {
        "make": 1, "twice": 1}
    rec.restore()
    assert isinstance(Thing.__dict__["make"], classmethod)


def test_span_dump_round_trips(tmp_path):
    rec = SpanRecorder()
    with rec.span("outer"):
        with rec.span("inner"):
            pass
    path = tmp_path / "spans.json"
    rec.dump(str(path), {"cpu_end": 1.5})
    data = json.loads(path.read_text())
    assert set(data["spans"]) == {"outer", "inner"} and data["cpu_end"] == 1.5


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with what the runs print
# ----------------------------------------------------------------------
def test_benchmark_json_matches_metric_tables():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(runner.WORKLOADS)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert {n: m["unit"] for n, m in e2e.items()} == common.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layer == common.PER_LAYER


def test_layer_metrics_zero_fill_and_reject_unknown():
    out = common.layer_metrics({"trace.overhead_pct": 2.5})
    assert set(out) == set(common.PER_LAYER)
    assert out["imaging.entropy.encode_ms"] == {"value": 0.0, "unit": "ms"}
    with pytest.raises(KeyError):
        common.metrics({}, common.END_TO_END)
