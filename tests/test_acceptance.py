"""Acceptance gate: the eight release criteria, one verdict line each.

Every test prints `ACCEPTANCE <n> <label>: PASS/FAIL (<detail>)` on the real
stdout (bypassing capture) before asserting, so a full run always ends with a
readable scoreboard even when a criterion fails.
"""

import math
import random
import threading
import time
import tracemalloc
from collections import Counter

import sys

from _model import replay, run_stress
from conftest import (
    cholesky_oracle,
    make_case_config,
    pi_hex,
    run_case_with_workers,
    spd_matrix,
)
from spacefarm.agents import cholesky
from spacefarm.client import Session
from spacefarm.entries import ResultEntry, StopEntry, Template, encode_payload
from spacefarm.errors import SessionClosed
from spacefarm.execlog import load_events
from spacefarm.harness import Scenario, run_scenario
from spacefarm.server import SpaceServer
from spacefarm.space import SpaceCore
from spacefarm.transactions import TxnManager


def verdict(number: int, label: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {number} {label}: {status}"
    if detail:
        line += f" ({detail})"
    print(line, file=sys.__stdout__, flush=True)


# -- 1: space semantics --------------------------------------------------------------


def _space_pair():
    core = SpaceCore()
    return core, TxnManager(core)


def _check_visibility():
    core, _ = _space_pair()
    core.write(StopEntry(case_id="v"))
    tpl = Template("StopEntry", {"case_id": "v"})
    assert core.read(tpl) == StopEntry(case_id="v")
    assert core.read(tpl) is not None  # read is non-destructive
    assert core.take(tpl) == StopEntry(case_id="v")
    assert core.read(tpl) is None  # take removes


def _check_promotion_and_restore():
    core, txns = _space_pair()
    tpl = Template("StopEntry", {"case_id": "p"})
    txn = txns.create(10_000)
    core.write(StopEntry(case_id="p"), txn=txn)
    assert core.read(tpl) is None  # invisible until commit
    txns.commit(txn)
    assert core.read(tpl) is not None  # promoted
    txn2 = txns.create(10_000)
    assert core.take(tpl, txn=txn2) is not None
    assert core.read(tpl) is None  # held by the transaction
    txns.abort(txn2)
    assert core.read(tpl) is not None  # restored


def _check_abort_neutrality():
    core, txns = _space_pair()
    core.write(StopEntry(case_id="n1"))
    core.write(StopEntry(case_id="n2"))
    before = core.snapshot()
    txn = txns.create(10_000)
    core.take(Template("StopEntry", {"case_id": "n1"}), txn=txn)
    core.write(StopEntry(case_id="n3"), txn=txn)
    assert core.snapshot() != before
    txns.abort(txn)
    assert core.snapshot() == before


def _check_blocking_wakeup():
    core, _ = _space_pair()
    got = []
    thread = threading.Thread(
        target=lambda: got.append(
            core.take(Template("StopEntry", {"case_id": "b"}), timeout_ms=5_000)
        ),
        daemon=True,
    )
    thread.start()
    time.sleep(0.1)
    core.write(StopEntry(case_id="b"))
    thread.join(timeout=5)
    assert got == [StopEntry(case_id="b")]


def _check_oldest_first():
    core, _ = _space_pair()
    first = ResultEntry("t", 0, encode_payload(b"1"))
    second = ResultEntry("t", 0, encode_payload(b"2"))
    core.write(first)
    core.write(second)
    tpl = Template("ResultEntry", {"case_id": "t"})
    assert core.read(tpl) == first
    assert core.take(tpl) == first
    assert core.take(tpl) == second


def test_acceptance_1_space_semantics():
    failures = []
    checks = [
        ("visibility", _check_visibility),
        ("promotion/restore", _check_promotion_and_restore),
        ("abort-neutrality", _check_abort_neutrality),
        ("blocking-wakeup", _check_blocking_wakeup),
        ("oldest-first", _check_oldest_first),
    ]
    ops = 0
    try:
        for name, fn in checks:
            try:
                fn()
            except Exception as exc:
                failures.append(f"{name}: {exc!r}")
        history = run_stress(num_threads=8, ops_per_thread=150, seed=20260815)
        ops = len(history)
        if ops < 1000:
            failures.append(f"stress produced only {ops} operations")
        try:
            replay(history)
        except Exception as exc:
            failures.append(f"stress replay diverged: {exc!r}")
    finally:
        verdict(
            1,
            "space-semantics",
            not failures,
            "; ".join(failures) if failures else f"all checks, stress ops={ops}",
        )
    assert not failures, failures


# -- 2: pi digits end to end ----------------------------------------------------------


def test_acceptance_2_bbp_end_to_end(tmp_path, address):
    passed = False
    detail = ""
    try:
        config = make_case_config(
            tmp_path,
            address,
            input_bytes=b"1 80",
            case_id="accept-bbp",
            agent_id="bbp-pi",
            cut_name="bbp_range",
            num_parts=8,
            initial_workers=3,
        )
        started = time.monotonic()
        report = run_case_with_workers(config, 3, tmp_path)
        elapsed = time.monotonic() - started
        with open(config.output_path, "rb") as fh:
            produced = fh.read()
        expected = pi_hex(1, 80).encode("ascii")
        passed = produced == expected and report.replays == 0 and elapsed < 30.0
        detail = (
            f"digits={'exact' if produced == expected else 'MISMATCH'} "
            f"replays={report.replays} elapsed={elapsed:.1f}s"
        )
    except Exception as exc:
        detail = repr(exc)
        raise
    finally:
        verdict(2, "bbp-end-to-end", passed, detail)
    assert passed, detail


# -- 3: factorization end to end -------------------------------------------------------


def _parse_factor(output: bytes) -> list[list[float]]:
    lines = [ln for ln in output.decode("utf-8").splitlines() if ln.strip()]
    size = int(lines[0])
    return [[float(tok) for tok in line.split()] for line in lines[1 : size + 1]]


def _frobenius(rows) -> float:
    return math.sqrt(sum(v * v for row in rows for v in row))


def test_acceptance_3_cholesky_end_to_end(tmp_path, address):
    size = 10
    a = spd_matrix(size, seed=2026)
    oracle = cholesky_oracle(a)
    norm_a = _frobenius(a)
    passed = False
    detail = ""
    try:
        worst_residual = 0.0
        worst_elem = 0.0
        for p in (1, 2, 5, 10):
            config = make_case_config(
                tmp_path,
                address,
                input_bytes=cholesky.format_matrix(a).encode("utf-8"),
                case_id=f"accept-chol-p{p}",
                agent_id="cholesky-rowblock",
                cut_name="cholesky_rowblock",
                num_parts=p,
                initial_workers=p,
                task_lease_ms=30_000,
                agent_params={"row_timeout_ms": 30_000},
            )
            run_case_with_workers(config, p, tmp_path)
            with open(config.output_path, "rb") as fh:
                factor = _parse_factor(fh.read())
            residual_rows = [
                [
                    sum(factor[i][k] * factor[j][k] for k in range(size)) - a[i][j]
                    for j in range(size)
                ]
                for i in range(size)
            ]
            residual = _frobenius(residual_rows) / norm_a
            worst_residual = max(worst_residual, residual)
            for i in range(size):
                for j in range(size):
                    o = oracle[i][j]
                    diff = abs(factor[i][j] - o)
                    limit = 1e-12 * abs(o)
                    if diff > limit:
                        raise AssertionError(
                            f"P={p} element ({i},{j}) off by {diff:.3e}"
                        )
                    if abs(o) > 0:
                        worst_elem = max(worst_elem, diff / abs(o))
        passed = worst_residual <= 1e-10
        detail = (
            f"P=1,2,5,10 worst residual={worst_residual:.2e} "
            f"worst elementwise={worst_elem:.2e}"
        )
    except Exception as exc:
        detail = repr(exc)
        raise
    finally:
        verdict(3, "cholesky-end-to-end", passed, detail)
    assert passed, detail


# -- 4: kill-fault replay suite --------------------------------------------------------

KILL_PHASES = ("after-claim", "before-result-write")


def _kill_scenario(tmp_path, phase: str) -> Scenario:
    input_path = tmp_path / f"input-{phase}.bin"
    input_path.write_bytes(bytes(range(8)) * 6)
    return Scenario.from_dict(
        {
            "name": f"kill-{phase}",
            "topology": {"workers": 3},
            "case": {
                "case_id": f"kill-{phase}",
                "agent_id": "echo",
                "agent_version": "1",
                "agent_params": {"delay_ms": 200},
                "input_path": str(input_path),
                "output_path": str(tmp_path / phase / "out.bin"),
                "cut_strategy": {"name": "byte_chunk", "params": {"chunk_size": 6}},
                "num_parts": 8,
                "initial_workers": 3,
                "task_lease_ms": 2_500,
                "max_attempts": 5,
            },
            "faults": [{"target": 0, "trigger": phase, "action": "kill"}],
            "assertions": [
                "case_completes",
                "exactly_once",
                "replays_at_least_one",
                "output_matches_baseline",
                "recovery_within_2x_lease",
            ],
            "timeout_s": 90,
        }
    )


def test_acceptance_4_replay_fault_suite(tmp_path):
    passed = False
    detail = ""
    try:
        failures = []
        for phase in KILL_PHASES:
            scenario = _kill_scenario(tmp_path, phase)
            report = run_scenario(
                scenario, str(tmp_path / phase), raise_on_failure=False
            )
            if not report.passed:
                bad = [a for a in report.assertions if not a["passed"]]
                failures.append(
                    f"{phase}: "
                    + "; ".join(f"{a['name']} ({a['detail']})" for a in bad)
                )
        passed = not failures
        detail = "; ".join(failures) if failures else f"{len(KILL_PHASES)} phases, byte-identical"
    except Exception as exc:
        detail = repr(exc)
        raise
    finally:
        verdict(4, "replay-fault-suite", passed, detail)
    assert passed, detail


# -- 5: adaptability -------------------------------------------------------------------


def test_acceptance_5_adaptability(tmp_path):
    passed = False
    detail = ""
    try:
        late_input = tmp_path / "late-input.bin"
        late_input.write_bytes(bytes(range(12)))
        late = Scenario.from_dict(
            {
                "name": "late-join",
                "topology": {"workers": 3, "start_offsets": [0, 0, 2.0]},
                "case": {
                    "case_id": "late-join",
                    "agent_id": "echo",
                    "agent_version": "1",
                    "agent_params": {"delay_ms": 800},
                    "input_path": str(late_input),
                    "output_path": str(tmp_path / "late" / "out.bin"),
                    "cut_strategy": {"name": "byte_chunk", "params": {"chunk_size": 1}},
                    "num_parts": 12,
                    "initial_workers": 2,
                    "task_lease_ms": 10_000,
                },
                "assertions": ["case_completes", "exactly_once", "late_join_executes"],
                "timeout_s": 90,
            }
        )
        removal_input = tmp_path / "removal-input.bin"
        removal_input.write_bytes(bytes(range(6)))
        removal = Scenario.from_dict(
            {
                "name": "worker-removal",
                "topology": {"workers": 2},
                "case": {
                    "case_id": "worker-removal",
                    "agent_id": "echo",
                    "agent_version": "1",
                    "agent_params": {"delay_ms": 200},
                    "input_path": str(removal_input),
                    "output_path": str(tmp_path / "removal" / "out.bin"),
                    "cut_strategy": {"name": "byte_chunk", "params": {"chunk_size": 1}},
                    "num_parts": 6,
                    "initial_workers": 2,
                    "task_lease_ms": 2_500,
                    "max_attempts": 5,
                },
                "faults": [
                    {"target": 0, "trigger": "after-claim", "action": "kill"}
                ],
                "assertions": [
                    "case_completes",
                    "exactly_once",
                    "replays_at_least_one",
                ],
                "timeout_s": 90,
            }
        )
        failures = []
        for scenario, label in ((late, "late-join"), (removal, "removal")):
            report = run_scenario(
                scenario, str(tmp_path / label), raise_on_failure=False
            )
            if not report.passed:
                bad = [a for a in report.assertions if not a["passed"]]
                failures.append(
                    f"{label}: "
                    + "; ".join(f"{a['name']} ({a['detail']})" for a in bad)
                )
        passed = not failures
        detail = (
            "; ".join(failures)
            if failures
            else "late worker executed tasks; removal did not stall"
        )
    except Exception as exc:
        detail = repr(exc)
        raise
    finally:
        verdict(5, "adaptability", passed, detail)
    assert passed, detail


# -- 6: task mutual exclusion ----------------------------------------------------------


def _scan_task_intervals(history, case_id):
    """Walk the linearized history; per part, claims must never overlap.

    A claim is a take of a visible TaskEntry of the case under a transaction;
    it is held until that transaction commits or aborts. A take outside any
    transaction is not a claim. Returns (claims, overlaps, consumed), where
    consumed counts, per part, the commits that deleted its task entry.
    """
    parts = {}  # seq of a TaskEntry of the case -> its part
    holders = {}  # part -> transaction holding its entry
    consumed = Counter()
    claims = 0
    overlaps = 0
    for row in sorted(history, key=lambda r: r["order"]):
        op = row["op"]
        if op == "write":
            entry = row["entry"]
            if entry.get("kind") == "TaskEntry" and entry.get("case_id") == case_id:
                parts[row["seq"]] = entry["part_index"]
        elif op == "take" and row.get("seq") in parts and row["txn"] is not None:
            claims += 1
            part = parts[row["seq"]]
            if part in holders:
                overlaps += 1
            holders[part] = row["txn"]
        elif op in ("commit", "abort"):
            for part, txn in list(holders.items()):
                if txn == row["txn"]:
                    del holders[part]
            if op == "commit":
                consumed.update(parts[seq] for seq in row["deleted"] if seq in parts)
    return claims, overlaps, consumed


def _task_write(order, seq, part):
    entry = {
        "kind": "TaskEntry", "case_id": "c", "part_index": part, "lease_ms": 1,
        "agent_id": "echo",
    }
    return {"op": "write", "order": order, "seq": seq, "txn": None, "entry": entry}


def _take(order, seq, txn):
    return {"op": "take", "order": order, "seq": seq, "txn": txn, "template": {}}


def test_task_scanner_counts_two_open_attempts_of_one_part():
    history = [
        _task_write(1, 1, 0),
        _take(2, 1, "t1"),
        _take(3, 1, "t2"),  # t1 still open: two workers hold part 0
        {"op": "commit", "order": 4, "txn": "t1", "promoted": [], "deleted": [1]},
        {"op": "commit", "order": 5, "txn": "t2", "promoted": [], "deleted": [1]},
    ]
    claims, overlaps, consumed = _scan_task_intervals(history, "c")
    assert (claims, overlaps, consumed) == (2, 1, {0: 2})


def test_task_scanner_ignores_claim_of_an_aborted_attempt():
    history = [
        _task_write(1, 1, 0),
        _task_write(2, 2, 1),
        _take(3, 1, "t1"),
        {"op": "abort", "order": 4, "txn": "t1", "restored": [1], "deleted": []},
        _take(5, 1, "t2"),  # the restored entry, claimed after t1 ended
        _take(6, 2, None),  # a take outside a transaction is not a claim
        {"op": "commit", "order": 7, "txn": "t2", "promoted": [], "deleted": [1]},
    ]
    claims, overlaps, consumed = _scan_task_intervals(history, "c")
    assert (claims, overlaps, consumed) == (2, 0, {0: 1})


def test_acceptance_6_scheduler_mutual_exclusion(tmp_path):
    passed = False
    detail = ""
    srv = SpaceServer(host="127.0.0.1", port=0, record_history=True)
    srv.start()
    try:
        address = f"127.0.0.1:{srv.address[1]}"
        logs = tmp_path / "logs"
        logs.mkdir()
        config = make_case_config(
            tmp_path,
            address,
            input_bytes=bytes(range(100)),
            case_id="mutex-100",
            num_parts=100,
            task_lease_ms=30_000,
        )
        report = run_case_with_workers(config, 8, tmp_path, execlog_dir=logs)
        events = load_events([str(p) for p in logs.iterdir()])
        commits = Counter(
            e["part_index"] for e in events if e["event"] == "commit"
        )
        marks = Counter(
            e["part_index"] for e in events if e["event"] == "computed-marked"
        )
        claims, overlaps, consumed = _scan_task_intervals(
            srv.space.history, "mutex-100"
        )
        each_once = dict.fromkeys(range(100), 1)
        once = commits == each_once and marks == each_once and consumed == each_once
        passed = once and claims >= 100 and overlaps == 0 and report.results == 100
        detail = (
            f"commits={'1 each' if once else dict(commits)} "
            f"task claims={claims} overlaps={overlaps}"
        )
    except Exception as exc:
        detail = repr(exc)
        raise
    finally:
        srv.shutdown(drain_ms=0)
        verdict(6, "scheduler-mutual-exclusion", passed, detail)
    assert passed, detail


# -- 7: per-digit scaling sanity -------------------------------------------------------


def test_acceptance_7_bbp_scaling():
    from spacefarm.agents import bbp

    passed = False
    detail = ""
    try:
        def best_of(position, repeats=3):
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                bbp.hex_digits(position, 1)
                times.append(time.perf_counter() - t0)
            return max(min(times), 1e-6)

        t1k = best_of(1_000)
        t10k = best_of(10_000)
        t100k = best_of(100_000)
        ratio_a = t10k / t1k
        ratio_b = t100k / t10k
        tracemalloc.start()
        bbp.hex_digits(100_000, 1)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # ~linear per digit: a 10x deeper position may cost 10x plus log slack
        passed = ratio_a <= 30.0 and ratio_b <= 30.0 and peak < 64 * 1024
        detail = (
            f"t(1k)={t1k * 1e3:.2f}ms ratios x10={ratio_a:.1f} x100={ratio_b:.1f} "
            f"peak={peak}B backend={bbp.BACKEND}"
        )
    except Exception as exc:
        detail = repr(exc)
        raise
    finally:
        verdict(7, "bbp-scaling", passed, detail)
    assert passed, detail


# -- 8: wire protocol ------------------------------------------------------------------


def _random_json(rng: random.Random, depth: int = 0):
    roll = rng.random()
    if depth >= 3 or roll < 0.4:
        leaf = rng.random()
        if leaf < 0.25:
            return rng.randrange(-(10**12), 10**12)
        if leaf < 0.5:
            return rng.uniform(-1e6, 1e6)
        if leaf < 0.75:
            return "".join(
                chr(rng.randrange(32, 0x2FA0)) for _ in range(rng.randrange(0, 12))
            )
        return rng.choice([True, False, None])
    if roll < 0.75:
        return [_random_json(rng, depth + 1) for _ in range(rng.randrange(0, 5))]
    return {f"k{i}": _random_json(rng, depth + 1) for i in range(rng.randrange(0, 5))}


def test_acceptance_8_wire_protocol(address):
    from spacefarm.wire import decode_frame, encode_frame

    passed = False
    detail = ""
    try:
        rng = random.Random(0xACCE55)
        roundtripped = 0
        for _ in range(10_000):
            message = {
                f"f{i}": _random_json(rng) for i in range(rng.randrange(1, 5))
            }
            assert decode_frame(encode_frame(message)) == message
            roundtripped += 1

        # pipelining: a parked take must not block later requests on the wire,
        # and every response must pair with its request
        session = Session.connect(address)
        taken = []
        parked = threading.Thread(
            target=lambda: taken.append(
                session.take(
                    Template("StopEntry", {"case_id": "pipeline"}), timeout_ms=8_000
                )
            ),
            daemon=True,
        )
        parked.start()
        time.sleep(0.1)
        pairs = 0
        for i in range(20):
            case = f"pipe-{i}"
            session.write(StopEntry(case_id=case))
            got = session.read(Template("StopEntry", {"case_id": case}), timeout_ms=0)
            assert got == StopEntry(case_id=case)
            pairs += 1
        session.write(StopEntry(case_id="pipeline"))
        parked.join(timeout=5)
        assert taken == [StopEntry(case_id="pipeline")]
        session.close()

        # disconnect during a blocked take consumes nothing
        victim = Session.connect(address)
        errors = []

        def blocked():
            try:
                victim.take(Template("StopEntry", {"case_id": "dc"}), timeout_ms=30_000)
            except SessionClosed:
                errors.append("closed")

        blocker = threading.Thread(target=blocked, daemon=True)
        blocker.start()
        time.sleep(0.2)
        victim.close()
        blocker.join(timeout=5)
        other = Session.connect(address)
        other.write(StopEntry(case_id="dc"))
        survivor = other.read(Template("StopEntry", {"case_id": "dc"}), timeout_ms=0)
        still_there = other.take(
            Template("StopEntry", {"case_id": "dc"}), timeout_ms=0
        )
        other.close()
        assert survivor == StopEntry(case_id="dc")
        assert still_there == StopEntry(case_id="dc")

        passed = roundtripped == 10_000 and pairs == 20
        detail = f"roundtrip={roundtripped} pipelined pairs={pairs} disconnect clean"
    except Exception as exc:
        detail = repr(exc)
        raise
    finally:
        verdict(8, "wire-protocol", passed, detail)
    assert passed, detail
