"""Tests of the benchmark's own metric code.

    PYTHONPATH=src python3 -m pytest farmbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


# -- percentiles ------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_is_the_highest_with_ten_samples_beyond(n, expected):
    assert metrics.tail_percentile(n) == expected


@pytest.mark.parametrize("n", [20, 57, 100, 101, 1000, 1234, 10000])
def test_reported_tail_leaves_at_least_ten_samples_beyond(n):
    values = [float(v) for v in range(n)]
    q = metrics.tail_percentile(n)
    cut = metrics.percentile(values, q)
    assert sum(1 for v in values if v > cut) >= metrics.MIN_BEYOND
    higher = [h for h in metrics.TAIL_LADDER if h > q]
    if higher:
        cut = metrics.percentile(values, higher[0])
        assert sum(1 for v in values if v > cut) < metrics.MIN_BEYOND


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert metrics.percentile(values, 50) == 3.0
    assert metrics.percentile(values, 90) == 5.0
    assert metrics.percentile(values, 1) == 1.0
    assert metrics.percentile([], 50) == 0.0


# -- exec-log phases --------------------------------------------------------------


def _ev(event, ts, part, txn, case="c"):
    return {"event": event, "ts": ts, "case_id": case, "part_index": part, "txn": txn}


def test_phases_from_exec_log_including_a_part_fed_twice():
    events = [
        # part 0: one clean attempt
        _ev("feed", 10.000, 0, "t0"),
        _ev("claimed", 10.100, 0, "t0"),
        _ev("file-read", 10.150, 0, "t0"),
        _ev("result-written", 10.160, 0, "t0"),
        _ev("computed-marked", 10.260, 0, "t0"),
        _ev("commit", 10.460, 0, "t0"),
        # part 1: first attempt claimed, then aborted and fed again
        _ev("feed", 10.000, 1, "t1a"),
        _ev("claimed", 10.200, 1, "t1a"),
        {"event": "abort-observed", "ts": 11.0, "case_id": "c", "part_index": 1,
         "txn": "t1a"},
        _ev("feed", 12.000, 1, "t1b"),
        _ev("claimed", 12.050, 1, "t1b"),
        _ev("file-read", 12.060, 1, "t1b"),
        _ev("result-written", 12.070, 1, "t1b"),
        _ev("computed-marked", 12.080, 1, "t1b"),
        _ev("commit", 12.090, 1, "t1b"),
        {"event": "worker-started", "ts": 9.0, "worker_id": "w0"},
    ]
    phases = metrics.extract_phases(list(reversed(events)))  # order-independent
    approx = lambda xs: pytest.approx(sorted(xs), abs=1e-6)  # noqa: E731
    assert sorted(phases["claim_wait"]) == approx([100.0, 200.0, 50.0])
    assert sorted(phases["fetch"]) == approx([50.0, 10.0])
    assert sorted(phases["run"]) == approx([10.0, 10.0])
    assert sorted(phases["mark"]) == approx([100.0, 10.0])
    assert sorted(phases["commit"]) == approx([200.0, 10.0])
    # Part latency runs from the first feed, so the replay counts against it.
    assert sorted(phases["part_latency"]) == approx([460.0, 2090.0])


def test_phases_of_one_attempt_add_up_to_its_latency():
    events = [_ev(name, ts, 0, "t") for name, ts in [
        ("feed", 1.0), ("claimed", 1.3), ("file-read", 1.35),
        ("result-written", 1.4), ("computed-marked", 1.5), ("commit", 1.7)]]
    phases = metrics.extract_phases(events)
    total = sum(phases[p][0] for p, _, _ in metrics.PHASES)
    assert total == pytest.approx(phases["part_latency"][0])


# -- span self time ---------------------------------------------------------------


def _span(span_id, parent, name, start, end, extra=None):
    return [span_id, parent, name, start, end, extra]


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        _span(1, 0, "client.call", 0.0, 10.0),
        _span(2, 1, "wire.encode_frame", 1.0, 3.0),
        _span(3, 1, "entries.to_wire", 2.0, 5.0),  # overlaps span 2
        _span(4, 1, "wire.encode_frame", 8.0, 12.0),  # runs past its parent
        _span(5, 3, "wire.encode_frame", 2.5, 4.0),  # grandchild of 1
    ]
    own = metrics.self_times(spans)
    assert own[1] == pytest.approx(10.0 - (5.0 - 1.0) - (10.0 - 8.0))
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0 - 1.5)
    assert own[4] == pytest.approx(4.0)
    assert own[5] == pytest.approx(1.5)
    layers = metrics.self_time_by_layer(spans)
    assert layers == pytest.approx({"client": 4.0, "wire": 7.5, "entries": 1.5})


def test_spans_are_cut_to_the_window_by_end_time():
    spans = [_span(1, 0, "a", 0.0, 1.0), _span(2, 0, "a", 0.5, 2.0),
             _span(3, 0, "a", 2.5, 3.5)]
    assert [s[0] for s in metrics.in_window(spans, 1.5, 3.0)] == [2]


def test_layer_metrics_split_calls_that_may_park():
    call = lambda i, op, parkable, dur: _span(  # noqa: E731
        i, 0, "client.call", 0.0, dur, [op, parkable, "SchedulerEntry", False])
    dumps = [
        {"role": "worker", "stats": {}, "spans": [
            call(1, "space.take", False, 0.002),
            call(2, "space.take", True, 0.800),  # a claim that parked
            call(3, "txn.create", False, 0.001),
        ]},
        {"role": "server", "stats": {"stored_entries": 6}, "spans": []},
        {"role": "master", "stats": {}, "spans": []},
    ]
    values, counts = metrics.layer_metrics(dumps, [], tasks=2)
    assert counts["client.rtt_ms.p50"] == 2
    assert values["client.rtt_ms.p99"] == pytest.approx(2.0)
    assert values["client.calls_per_task"] == pytest.approx(1.5)
    assert values["worker.claims_per_task"] == pytest.approx(1.0)
    assert values["space.stored_entries_end"] == 6


# -- the benchmark's contract -----------------------------------------------------


def test_benchmark_json_names_exactly_the_metrics_the_command_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["farmbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_inputs_depend_only_on_the_seed():
    for name in ("echo-fanout", "mixed-tenants"):
        a, b, c = (workloads.Workload(name, seed) for seed in (7, 7, 8))
        first = [case.input for case in a.round(0)]
        assert first == [case.input for case in b.round(0)]
        assert first != [case.input for case in c.round(0)]


def test_pi_reference_digits():
    assert workloads.pi_hex(16) == "243F6A8885A308D3"
