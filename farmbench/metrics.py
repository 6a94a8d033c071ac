"""Pure metric code: percentiles, exec-log phases, span self time, and the
per-layer metrics of a traced run. No I/O; ``tests/`` checks these."""

from __future__ import annotations

import math
import statistics
from typing import Any, Iterable

# Every per-layer metric of a traced run, with its unit.
LAYER_UNITS = {
    "agents.execute_ms.p50": "ms",
    "agents.bbp.eval16_s.1e3": "s",
    "agents.bbp.eval16_s.1e4": "s",
    "agents.bbp.eval16_s.1e5": "s",
    "agents.row_wait_ms.p50": "ms",
    "entries.scheduler_bytes_per_task": "B/task",
    "entries.codec_ms_per_task": "ms/task",
    "wire.frames_per_task": "frames/task",
    "wire.bytes_per_task": "B/task",
    "client.rtt_ms.p50": "ms",
    "client.rtt_ms.p99": "ms",
    "client.calls_per_task": "calls/task",
    "client.stalled_calls_per_task": "calls/task",
    "server.threads_per_request": "threads/request",
    "space.op_us.p50": "us",
    "space.park_ms.p50": "ms",
    "space.park_ms.p90": "ms",
    "space.take_hit_ratio": "ratio",
    "space.stored_entries_end": "entries",
    "space.take_us.resident_10k": "us",
    "transactions.created_per_task": "txns/task",
    "transactions.commit_ratio": "ratio",
    "transactions.sweep_ms.p50": "ms",
    "transactions.sweep_ms.records_10k": "ms",
    "worker.claim_wait_ms.p50": "ms",
    "worker.claim_wait_ms.p90": "ms",
    "worker.fetch_ms.p50": "ms",
    "worker.run_ms.p50": "ms",
    "worker.mark_ms.p50": "ms",
    "worker.claims_per_task": "claims/task",
    "master.commit_ms.p50": "ms",
    "master.part_latency_ms.p50": "ms",
    "master.part_latency_ms.p90": "ms",
    "master.replays_per_task": "replays/task",
    "trace.overhead": "ratio",
}

# Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10
# A call that cannot park and still takes this long waited on the network:
# loopback round trips here take ~1-3 ms, a delayed-ACK stall ~40 ms.
STALL_MS = 20.0


def _rank(n: int, q: float) -> int:
    # Rounding first keeps 99.9% of 10000 at rank 9990, not 9991.
    return max(1, math.ceil(round(q / 100.0 * n, 9)))


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[_rank(len(ordered), q) - 1]


def beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q-th percentile."""
    return n - _rank(n, q)


def supported(n: int, q: float) -> bool:
    return beyond(n, q) >= MIN_BEYOND


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ten of n samples beyond it."""
    best = None
    for q in TAIL_LADDER:
        if supported(n, q):
            best = q
    return best


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# -- protocol phases from exec-log lines -------------------------------------------

# (phase, from event, to event), all keyed by the task transaction.
PHASES = (
    ("claim_wait", "feed", "claimed"),
    ("fetch", "claimed", "file-read"),
    ("run", "file-read", "result-written"),
    ("mark", "result-written", "computed-marked"),
    ("commit", "computed-marked", "commit"),
)
_PHASE_EVENTS = {name for _, a, b in PHASES for name in (a, b)}


def extract_phases(events: Iterable[dict[str, Any]]) -> dict[str, list[float]]:
    """Phase durations in ms from exec-log events.

    Each attempt of a part has its own task transaction, so phases pair events
    by ``txn``; an attempt that was aborted contributes only the phases it
    finished. ``part_latency`` runs from the part's first feed to its commit,
    so a replay counts against the part.
    """
    marks: dict[str, dict[str, float]] = {}
    first_feed: dict[tuple[str, int], float] = {}
    commits: list[tuple[tuple[str, int], float]] = []
    for ev in sorted(events, key=lambda e: e["ts"]):
        name = ev.get("event")
        if name not in _PHASE_EVENTS:
            continue
        part = (ev.get("case_id"), ev.get("part_index"))
        if name == "feed":
            first_feed.setdefault(part, ev["ts"])
        elif name == "commit":
            commits.append((part, ev["ts"]))
        marks.setdefault(ev.get("txn"), {}).setdefault(name, ev["ts"])
    out: dict[str, list[float]] = {phase: [] for phase, _, _ in PHASES}
    for stamps in marks.values():
        for phase, a, b in PHASES:
            if a in stamps and b in stamps:
                out[phase].append((stamps[b] - stamps[a]) * 1000.0)
    out["part_latency"] = [
        (ts - first_feed[part]) * 1000.0 for part, ts in commits if part in first_feed
    ]
    return out


# -- spans --------------------------------------------------------------------------

# A span as recorded by tracing.Recorder: (id, parent, name, start, end, extra).
ID, PARENT, NAME, START, END, EXTRA = range(6)


def self_times(spans: list[list]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so self time is never negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT]:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    result = {}
    for span in spans:
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span[ID], ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result[span[ID]] = (end - start) - covered
    return result


def self_time_by_layer(spans: list[list]) -> dict[str, float]:
    """Total self time in seconds per layer (the span name's first word)."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        layer = span[NAME].split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + own[span[ID]]
    return totals


def in_window(spans: list[list], start: float, end: float) -> list[list]:
    """Spans that ended inside [start, end]."""
    return [s for s in spans if start <= s[END] <= end]


def _durations(spans: Iterable[list], scale: float) -> list[float]:
    return [(s[END] - s[START]) * scale for s in spans]


def layer_metrics(
    dumps: list[dict[str, Any]],
    events: list[dict[str, Any]],
    tasks: int,
) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics of one traced run, and the sample count behind each.

    ``dumps`` are the windowed span dumps of every process (``role``,
    ``spans``, ``stats``); ``events`` the exec-log lines of the measured
    cases; ``tasks`` the parts those cases committed.
    """
    by_role: dict[str, list[list]] = {"server": [], "worker": [], "master": []}
    for dump in dumps:
        by_role[dump["role"]].extend(dump["spans"])
    server, clients = by_role["server"], by_role["worker"] + by_role["master"]
    every = server + clients
    per_task = 1.0 / max(tasks, 1)

    def named(spans, prefix):
        return [s for s in spans if s[NAME].startswith(prefix)]

    execute = named(by_role["worker"], "agents.execute.")
    row_reads = [s for s in named(by_role["worker"], "agents.space_read")
                 if s[EXTRA] == "RowEntry"]
    codec = named(every, "entries.")
    sched_bytes = sum(s[EXTRA][1] for s in named(clients, "entries."))
    frames = named(every, "wire.encode_frame")
    calls = named(clients, "client.call")
    quick_calls = [s for s in calls if not s[EXTRA][1]]
    stalled = [s for s in quick_calls if (s[END] - s[START]) * 1e3 >= STALL_MS]
    lookups = named(server, "space.read") + named(server, "space.take")
    quick_ops = (named(server, "space.write") + named(server, "space.subscribe")
                 + [s for s in lookups if not s[EXTRA][0]])
    parked = [s for s in lookups if s[EXTRA][0]]
    takes = named(server, "space.take")
    created = named(server, "transactions.create")
    commits = named(server, "transactions.commit")
    sweeps = named(server, "transactions.sweep")
    requests = named(server, "wire.read_frame")
    threads = named(server, "server.thread_start")
    claims = [s for s in named(by_role["worker"], "client.call")
              if s[EXTRA][0] == "space.take" and not s[EXTRA][3]]
    phases = extract_phases(events)
    stored = sum(d["stats"].get("stored_entries", 0) for d in dumps)

    samples: dict[str, list[float]] = {
        "agents.execute_ms": _durations(execute, 1e3),
        "agents.row_wait_ms": _durations(row_reads, 1e3),
        "client.rtt_ms": _durations(quick_calls, 1e3),
        "space.op_us": _durations(quick_ops, 1e6),
        "space.park_ms": _durations(parked, 1e3),
        "transactions.sweep_ms": _durations(sweeps, 1e3),
        "worker.claim_wait_ms": phases["claim_wait"],
        "worker.fetch_ms": phases["fetch"],
        "worker.run_ms": phases["run"],
        "worker.mark_ms": phases["mark"],
        "master.commit_ms": phases["commit"],
        "master.part_latency_ms": phases["part_latency"],
    }
    quantiles = {
        "agents.execute_ms": (50,),
        "agents.row_wait_ms": (50,),
        "client.rtt_ms": (50, 99),
        "space.op_us": (50,),
        "space.park_ms": (50, 90),
        "transactions.sweep_ms": (50,),
        "worker.claim_wait_ms": (50, 90),
        "worker.fetch_ms": (50,),
        "worker.run_ms": (50,),
        "worker.mark_ms": (50,),
        "master.commit_ms": (50,),
        "master.part_latency_ms": (50, 90),
    }
    metrics: dict[str, float] = {}
    counts: dict[str, int] = {}
    for base, qs in quantiles.items():
        for q in qs:
            name = f"{base}.p{q}"
            metrics[name] = percentile(samples[base], q)
            counts[name] = len(samples[base])
    ratios = {
        "entries.scheduler_bytes_per_task": (sched_bytes * per_task, tasks),
        "entries.codec_ms_per_task": (
            sum(_durations(codec, 1e3)) * per_task, tasks),
        "wire.frames_per_task": (len(frames) * per_task, tasks),
        "wire.bytes_per_task": (sum(s[EXTRA] for s in frames) * per_task, tasks),
        "client.calls_per_task": (len(calls) * per_task, tasks),
        "client.stalled_calls_per_task": (len(stalled) * per_task, tasks),
        "server.threads_per_request": (
            len(threads) / max(len(requests), 1), len(requests)),
        "space.take_hit_ratio": (
            sum(1 for s in takes if s[EXTRA][1]) / max(len(takes), 1), len(takes)),
        "space.stored_entries_end": (float(stored), 1),
        "transactions.created_per_task": (len(created) * per_task, tasks),
        "transactions.commit_ratio": (
            len(commits) / max(len(created), 1), len(created)),
        "worker.claims_per_task": (len(claims) * per_task, tasks),
    }
    for name, (value, n) in ratios.items():
        metrics[name] = value
        counts[name] = n
    return metrics, counts
