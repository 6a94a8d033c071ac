"""End-to-end cases run in-process: worker threads against a real server with
the master driving the protocol. Kill faults need separate processes and live
in the harness tests; here we exercise the transactional replay paths.
"""

import json
import os
import queue
import random
import subprocess
import sys
import threading
import time
from collections import Counter

import pytest

from conftest import (
    make_case_config,
    pi_hex,
    run_case_with_workers,
    running_workers,
    spd_matrix,
)
from spacefarm import transactions, wire
from spacefarm.agents import AgentDescriptor, _REGISTRY, _bbp_py, bbp, cholesky, register
from spacefarm.client import Session
from spacefarm.entries import (
    ConfigurationEntry,
    ResultEntry,
    StopEntry,
    TaskEntry,
    Template,
    decode_payload,
    encode_payload,
    entry_to_wire,
    new_entry_id,
)
from spacefarm.errors import (
    ConfigError,
    ConnectionFailed,
    CutFailed,
    MaxAttemptsExceeded,
    TxnNotOpen,
)
from spacefarm.execlog import load_events
from spacefarm.harness import check_exactly_once, free_port
from spacefarm.master import CaseConfig, Master
from spacefarm.server import SpaceServer
from spacefarm.worker import CLAIM_LEASE_MS, FaultInjector, _Fault


NO_TASKS = {"wait": 0, "on": 0, "computed": 0}


def task_counts(session, case_id):
    return session.admin_status(case_id)["case"]["tasks"]


def configuration(session, case_id):
    return session.read(Template("ConfigurationEntry", {"case_id": case_id}))


def test_echo_case_round_trips_output(tmp_path, address, session):
    payload = random.Random(7).randbytes(64)
    config = make_case_config(tmp_path, address, input_bytes=payload)
    report = run_case_with_workers(config, 2, tmp_path)
    assert report.results == 4
    assert report.replays == 0
    with open(config.output_path, "rb") as fh:
        assert fh.read() == payload
    assert task_counts(session, config.case_id) == NO_TASKS
    assert configuration(session, config.case_id) is None


def test_bbp_case_produces_pi_digits(tmp_path, address):
    config = make_case_config(
        tmp_path,
        address,
        input_bytes=b"1 32",
        agent_id="bbp-pi",
        cut_name="bbp_range",
        num_parts=2,
    )
    report = run_case_with_workers(config, 2, tmp_path)
    assert report.replays == 0
    with open(config.output_path, "rb") as fh:
        assert fh.read() == pi_hex(1, 32).encode("ascii")


def test_cholesky_case_matches_sequential_factorization(tmp_path, address):
    a = spd_matrix(4, seed=11)
    config = make_case_config(
        tmp_path,
        address,
        input_bytes=cholesky.format_matrix(a).encode("utf-8"),
        agent_id="cholesky-rowblock",
        cut_name="cholesky_rowblock",
        num_parts=2,
        initial_workers=2,
        agent_params={"row_timeout_ms": 20_000},
    )
    report = run_case_with_workers(config, 2, tmp_path)
    assert report.results == 2
    from conftest import cholesky_oracle

    with open(config.output_path, "rb") as fh:
        lines = [ln for ln in fh.read().decode("utf-8").splitlines() if ln.strip()]
    size = int(lines[0])
    factor = [[float(t) for t in line.split()] for line in lines[1 : size + 1]]
    assert factor == cholesky_oracle(a)


def test_cholesky_case_in_blocks_of_rows_matches_sequential_factorization(
    tmp_path, address
):
    a = spd_matrix(48, seed=12)  # P=2 gives blocks of 3 rows
    config = make_case_config(
        tmp_path,
        address,
        input_bytes=cholesky.format_matrix(a).encode("utf-8"),
        agent_id="cholesky-rowblock",
        cut_name="cholesky_rowblock",
        num_parts=2,
        initial_workers=2,
        agent_params={"row_timeout_ms": 20_000},
    )
    report = run_case_with_workers(config, 2, tmp_path)
    assert report.results == 2 and report.replays == 0
    from conftest import cholesky_oracle

    with open(config.output_path, "rb") as fh:
        assert fh.read() == cholesky.format_matrix(cholesky_oracle(a)).encode("utf-8")


def test_a_case_holds_one_connection_per_process(tmp_path, server, address):
    """The master and each worker hold one connection: the master's
    subscription and the agents' row reads share it."""
    a = spd_matrix(16, seed=3)
    config = make_case_config(
        tmp_path,
        address,
        input_bytes=cholesky.format_matrix(a).encode("utf-8"),
        agent_id="cholesky-rowblock",
        cut_name="cholesky_rowblock",
        num_parts=2,
        initial_workers=2,
        agent_params={"row_timeout_ms": 20_000},
    )
    peak = 0
    done = threading.Event()

    def watch():
        nonlocal peak
        while not done.is_set():
            peak = max(peak, len(server._conns))
            time.sleep(0.001)

    watcher = threading.Thread(target=watch, daemon=True)
    watcher.start()
    try:
        report = run_case_with_workers(config, 2, tmp_path)
    finally:
        done.set()
        watcher.join(timeout=5)
    assert report.results == 2
    assert peak <= 2 + 1


def test_a_restricted_worker_never_claims_a_task_it_may_not_run(tmp_path, address):
    logs = tmp_path / "logs"
    logs.mkdir()
    config = make_case_config(
        tmp_path,
        address,
        input_bytes=bytes(range(8)),
        num_parts=2,
        max_attempts=5,
        agent_params={"delay_ms": 1_000},
    )
    with running_workers(address, 1, tmp_path / "any"):
        with running_workers(
            address, 1, tmp_path / "bbp", allowed_agents=["bbp-pi"], execlog_dir=logs
        ):
            report = Master(config).run()
    assert report.results == 2
    assert report.replays == 0
    events = load_events([str(p) for p in logs.iterdir()])
    assert [e for e in events if e["event"] == "claimed"] == []


def test_abort_fault_replays_part_and_still_completes(tmp_path, address, session):
    payload = bytes(range(48))
    config = make_case_config(tmp_path, address, input_bytes=payload)
    injectors = {0: FaultInjector([_Fault(phase="after-claim", action="abort-txn")])}
    report = run_case_with_workers(config, 2, tmp_path, injectors=injectors)
    assert report.replays >= 1
    with open(config.output_path, "rb") as fh:
        assert fh.read() == payload
    assert task_counts(session, config.case_id) == NO_TASKS


def test_abort_before_result_write_is_neutral(tmp_path, address):
    payload = bytes(range(40))
    config = make_case_config(tmp_path, address, input_bytes=payload)
    injectors = {
        0: FaultInjector([_Fault(phase="before-result-write", action="abort-txn")])
    }
    report = run_case_with_workers(config, 2, tmp_path, injectors=injectors)
    assert report.replays >= 1
    with open(config.output_path, "rb") as fh:
        assert fh.read() == payload


def test_aborted_attempt_leaves_no_scratch_file(tmp_path, address):
    # Worker 0 aborts after worker 1 has finished its own part and is waiting
    # again, so the replay runs on worker 1 and worker 0 never retries.
    payload = bytes(range(40))
    config = make_case_config(
        tmp_path, address, input_bytes=payload, num_parts=2,
        agent_params={"delay_ms": 100},
    )
    injectors = {
        0: FaultInjector([
            _Fault(phase="after-claim", action="pause", pause_ms=300),
            _Fault(phase="before-result-write", action="abort-txn"),
        ])
    }
    report = run_case_with_workers(config, 2, tmp_path, injectors=injectors)
    assert report.replays == 1
    with open(config.output_path, "rb") as fh:
        assert fh.read() == payload
    assert [p for p in tmp_path.glob("scratch-*/**/*") if p.is_file()] == []


def test_a_claim_lost_before_the_agent_starts_never_runs_it(tmp_path, address):
    """The claim is aborted right after it was taken, and the heartbeat's
    renewal during the pause comes back TXN_NOT_OPEN: the worker abandons
    the attempt before the agent starts, and the replay commits the part."""
    assert 700 > CLAIM_LEASE_MS / 3  # a renewal falls inside the pause
    logs = tmp_path / "logs"
    logs.mkdir()
    config = make_case_config(
        tmp_path, address, input_bytes=bytes(range(32)), num_parts=2
    )
    injectors = {
        0: FaultInjector([
            _Fault(phase="after-claim", action="abort-txn"),
            _Fault(phase="after-claim", action="pause", pause_ms=700),
        ])
    }
    report = run_case_with_workers(
        config, 1, tmp_path, injectors=injectors, execlog_dir=logs
    )
    assert report.results == 2
    events = load_events([str(p) for p in logs.iterdir()])
    first = next(e for e in events if e["event"] == "claimed")
    attempt = [e for e in events if e.get("txn") == first["txn"]]
    assert [e["event"] for e in attempt] == ["claimed", "task-abandoned"]
    assert attempt[-1]["reason"] == "lease-lost"
    assert check_exactly_once(events, 2)


def test_failing_agent_exhausts_attempts(tmp_path, address, session):
    def broken(data, params, space):
        raise RuntimeError("synthetic agent failure")

    descriptor = register(AgentDescriptor("always-fails", "1", broken))
    try:
        config = make_case_config(
            tmp_path,
            address,
            input_bytes=b"xxxx",
            agent_id="always-fails",
            num_parts=1,
            max_attempts=2,
        )
        with pytest.raises(MaxAttemptsExceeded):
            run_case_with_workers(config, 1, tmp_path)
        assert task_counts(session, config.case_id) == NO_TASKS
        assert configuration(session, config.case_id) is None
    finally:
        del _REGISTRY[descriptor.key]


def test_a_malformed_task_payload_kills_no_worker(tmp_path, address, session):
    restores: queue.Queue = queue.Queue()
    session.subscribe(
        Template("TaskEntry", {"case_id": "bad"}), lambda seq, fields: restores.put(seq)
    )
    session.write(ConfigurationEntry("bad", "echo", "1", {}))
    session.write(TaskEntry("bad", 0, 10_000, "echo", "!!not base64!!"))
    restores.get(timeout=5)  # the write itself
    with running_workers(address, 2, tmp_path) as threads:
        for _ in range(2):  # two failed attempts: each worker has met the task
            restores.get(timeout=10)
        session.write(ConfigurationEntry("good", "echo", "1", {}))
        session.write(TaskEntry("good", 0, 10_000, "echo", encode_payload(b"still here")))
        result = session.take(
            Template("ResultEntry", {"case_id": "good"}), timeout_ms=10_000
        )
        assert result is not None and decode_payload(result.payload) == b"still here"
        assert all(thread.is_alive() for thread in threads)
        # End the bad case, so the next claim of its task drops it.
        session.take(Template("ConfigurationEntry", {"case_id": "bad"}))
        session.write(StopEntry("bad"))
    assert not any(thread.is_alive() for thread in threads)


def test_a_malformed_task_payload_fails_the_case_after_max_attempts(
    tmp_path, address, session, monkeypatch
):
    monkeypatch.setattr("spacefarm.master.encode_payload", lambda data: "!!not base64!!")
    config = make_case_config(
        tmp_path, address, input_bytes=b"xxxx", num_parts=2, max_attempts=3
    )
    with running_workers(address, 2, tmp_path) as threads:
        with pytest.raises(MaxAttemptsExceeded):
            Master(config).run()
        assert all(thread.is_alive() for thread in threads)
    assert task_counts(session, config.case_id) == NO_TASKS
    assert configuration(session, config.case_id) is None


def test_queue_time_does_not_count_against_the_lease(tmp_path, address):
    """A lease starts at the claim: with one worker the last parts wait far
    longer than one lease in the bag, yet none of them is replayed."""
    config = make_case_config(
        tmp_path,
        address,
        input_bytes=bytes(range(16)),
        num_parts=16,
        task_lease_ms=1_000,
        max_attempts=3,
        agent_params={"delay_ms": 300},
    )
    report = run_case_with_workers(config, 1, tmp_path)
    assert report.results == 16
    assert report.replays == 0


def test_task_of_a_finished_case_is_dropped_not_replayed(tmp_path, address, session):
    logs = tmp_path / "logs"
    logs.mkdir()
    session.write(TaskEntry("gone", 0, 1_000, "echo", encode_payload(b"x")))
    with running_workers(address, 1, tmp_path, execlog_dir=logs):
        deadline = time.monotonic() + 10
        while task_counts(session, "gone") != NO_TASKS and time.monotonic() < deadline:
            time.sleep(0.05)
        time.sleep(0.3)  # a task put back would be claimed again here
    assert task_counts(session, "gone") == NO_TASKS
    events = load_events([str(p) for p in logs.iterdir()])
    claims = [e for e in events if e["event"] == "claimed"]
    dropped = [e for e in events if e["event"] == "task-abandoned"]
    assert len(claims) == 1
    assert [e["reason"] for e in dropped] == ["configuration-missing"]


def wait_for_event(logs, name, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        events = load_events([str(p) for p in logs.iterdir()])
        if any(e["event"] == name for e in events):
            return events
        time.sleep(0.05)
    raise AssertionError(f"no {name} event within {timeout_s} s")


def test_task_of_a_failed_case_is_dropped_after_its_stop_event(
    tmp_path, address, session
):
    """A failed case ends with its StopEntry too, so a worker that cached
    the case's configuration drops it and then drops a stray task."""

    def broken(data, params, space):
        raise RuntimeError("synthetic agent failure")

    descriptor = register(AgentDescriptor("fails-every-time", "1", broken))
    logs = tmp_path / "logs"
    logs.mkdir()
    try:
        config = make_case_config(
            tmp_path,
            address,
            input_bytes=b"xxxx",
            case_id="failed-case",
            agent_id="fails-every-time",
            num_parts=1,
            max_attempts=1,
        )
        with running_workers(address, 1, tmp_path, execlog_dir=logs):
            with pytest.raises(MaxAttemptsExceeded):
                Master(config).run()
            stopped_at = len(wait_for_event(logs, "case-stopped"))
            session.write(
                TaskEntry("failed-case", 0, 1_000, "fails-every-time", encode_payload(b"x"))
            )
            deadline = time.monotonic() + 10
            while (
                task_counts(session, "failed-case") != NO_TASKS
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
            time.sleep(0.3)  # a task put back would be claimed again here
        events = load_events([str(p) for p in logs.iterdir()])[stopped_at:]
        assert [e["event"] for e in events if e["event"] == "claimed"] == ["claimed"]
        dropped = [e["reason"] for e in events if e["event"] == "task-abandoned"]
        assert dropped == ["configuration-missing"]
        assert task_counts(session, "failed-case") == NO_TASKS
        assert session.read(Template("StopEntry", {"case_id": "failed-case"})) is None
    finally:
        del _REGISTRY[descriptor.key]


@pytest.fixture
def server_process():
    """A server in its own process, so lowering the client's frame limit
    leaves the server's alone."""
    address = f"127.0.0.1:{free_port()}"
    proc = subprocess.Popen(
        [sys.executable, "-m", "spacefarm", "serve", "--bind", address],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 10
        while True:
            try:
                Session.connect(address, timeout_s=1.0).close()
                break
            except ConnectionFailed:
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
        yield address
    finally:
        proc.terminate()
        proc.wait(timeout=10)


def test_a_result_too_large_to_send_fails_the_case_not_the_worker(
    tmp_path, server_process, monkeypatch
):
    blob = bytes(range(256)) * 4
    address = server_process

    def body_bytes(entry, **params):
        params["entry"] = entry_to_wire(entry)
        return len(wire.encode_frame(wire.request(10**6, "space.write", params))) - 4

    payload = encode_payload(blob)
    # The master's task write and the worker's task take fit; the worker's
    # result write does not.
    feed = body_bytes(TaskEntry("too-large", 0, 1_000, "echo", payload))
    result = body_bytes(ResultEntry("too-large", 0, payload), txn=new_entry_id())
    limit = (feed + result) // 2
    assert feed < limit < result
    monkeypatch.setattr(wire, "MAX_FRAME", limit)
    logs = tmp_path / "logs"
    logs.mkdir()
    config = make_case_config(
        tmp_path,
        address,
        input_bytes=blob,
        case_id="too-large",
        num_parts=1,
        max_attempts=2,
        task_lease_ms=1_000,
    )
    with running_workers(address, 2, tmp_path, execlog_dir=logs) as workers:
        with pytest.raises(MaxAttemptsExceeded):
            Master(config).run()
        assert all(worker.is_alive() for worker in workers)
    events = load_events([str(p) for p in logs.iterdir()])
    reasons = Counter(e["reason"] for e in events if e["event"] == "task-abandoned")
    assert reasons["result-too-large"] >= 2
    session = Session.connect(address)
    try:
        assert task_counts(session, "too-large") == NO_TASKS
    finally:
        session.close()


def test_a_failed_case_takes_a_task_claimed_between_its_count_and_its_take(
    tmp_path, address, session
):
    """A failed case counts its leftover tasks and then takes them.  A worker
    may claim a counted task in between, so the take misses; the master
    counts again until the attempt has put the task back, and takes it."""
    config = make_case_config(
        tmp_path, address, input_bytes=b"x", case_id="raced", num_parts=1
    )
    task = TaskEntry("raced", 0, 1_000, "echo", encode_payload(b"x"))
    template = Template("TaskEntry", {"case_id": "raced"})
    session.write(task)
    rival = session.txn_create(5_000)
    restore = threading.Timer(0.2, session.txn_abort, (rival,))
    master = Master(config)
    master._session = Session.connect(address)
    count = master._session.admin_status
    claimed = []

    def count_then_claim(case_id):
        counts = count(case_id)
        if not claimed:
            claimed.append(session.take(template, rival))
            restore.start()
        return counts

    master._session.admin_status = count_then_claim
    try:
        master._end_case(config.task_lease_ms / 1000.0)
    finally:
        master._session.close()
        restore.join(timeout=5)
    assert claimed == [task]
    assert task_counts(session, "raced") == NO_TASKS


def test_a_part_costs_one_round_trip_and_one_configuration_read(
    tmp_path, monkeypatch
):
    """One worker, 16 parts: the master feeds in one batch, and the worker
    reads the configuration once and spends one round trip per part: a
    publish batch that also claims the next task. A blocking take follows
    only a batched take that missed."""
    server = SpaceServer(host="127.0.0.1", port=0, record_history=True)
    server.start()
    host, port = server.address
    batches = []  # (thread name, [(op, kind of its entry or template)], answers)
    exchange = Session._exchange

    def recording(self, ops, *rest):
        answers = exchange(self, ops, *rest)
        kinds = []
        for op, params in ops:
            named = params.get("entry") or params.get("template") or {}
            kinds.append((op, named.get("kind")))
        batches.append((threading.current_thread().name, kinds, answers))
        return answers

    monkeypatch.setattr(Session, "_exchange", recording)
    try:
        config = make_case_config(
            tmp_path, f"{host}:{port}", input_bytes=bytes(range(64)), num_parts=16
        )
        assert run_case_with_workers(config, 1, tmp_path).results == 16
        config_reads = [
            row for row in server.space.history
            if row["op"] == "read" and row["template"]["kind"] == "ConfigurationEntry"
        ]
    finally:
        server.shutdown(drain_ms=0)
    assert len(config_reads) == 1
    feed = ("space.write", "TaskEntry")
    feeds = [kinds for _, kinds, _ in batches if feed in kinds]
    assert feeds == [[("space.write", "ConfigurationEntry")] + [feed] * 16]
    claim = [("space.take", "TaskEntry")]
    publish = [
        ("space.write", "ResultEntry"), ("txn.commit", None),
        ("txn.create", None), ("space.take", "TaskEntry"),
    ]
    worker = [(kinds, answers) for name, kinds, answers in batches
              if name == "test-worker-0"]
    assert [kinds for kinds, _ in worker[:4]] == [
        [("space.subscribe", "StopEntry")], [("txn.create", None)], claim,
        [("space.read", "ConfigurationEntry")],
    ]
    assert worker[2][1][0]["entry"] is not None
    rest = worker[4:]
    # A stop that comes before the last claim parks is aborted by the worker.
    if rest[-1][0] == [("txn.abort", None)]:
        rest = rest[:-1]
    assert rest[0][0] == publish
    assert sum(kinds == publish for kinds, _ in rest) == 16
    for (kinds, answers), (before, answered) in zip(rest[1:], rest):
        assert kinds in (publish, claim)
        if kinds == claim:
            # The batched take before it missed. A claim waits until it takes
            # a task; the one parked after the last part ends with TxnNotOpen
            # when the stop aborts its transaction.
            assert before == publish and answered[3]["entry"] is None
            assert isinstance(answers[0], TxnNotOpen) or answers[0]["entry"]


def test_a_finished_case_ends_in_three_master_exchanges(
    tmp_path, server, address, monkeypatch
):
    """After its last result, the master sends one batch that takes the
    configuration and writes and takes the StopEntry, asks for the case's
    counts once, and takes exactly the 16 RowEntry blocks a 64x64 P=2
    factorization leaves, in one batch."""
    master = threading.current_thread().name
    exchanges = []  # the master's: ([(op, kind of its entry or template)], answers)
    exchange = Session._exchange

    def recording(self, ops, *rest):
        answers = exchange(self, ops, *rest)
        if threading.current_thread().name == master:
            kinds = []
            for op, params in ops:
                named = params.get("entry") or params.get("template") or {}
                kinds.append((op, named.get("kind")))
            exchanges.append((kinds, answers))
        return answers

    monkeypatch.setattr(Session, "_exchange", recording)
    config = make_case_config(
        tmp_path,
        address,
        input_bytes=cholesky.format_matrix(spd_matrix(64, seed=24)).encode("utf-8"),
        agent_id="cholesky-rowblock",
        cut_name="cholesky_rowblock",
        num_parts=2,
        initial_workers=2,
        agent_params={"row_timeout_ms": 20_000},
    )
    assert run_case_with_workers(config, 2, tmp_path).results == 2
    result_take = [("space.take", "ResultEntry")]
    last = max(
        index for index, (kinds, answers) in enumerate(exchanges)
        if kinds == result_take and answers[0]["entry"] is not None
    )
    after = exchanges[last + 1:]
    assert [kinds for kinds, _ in after] == [
        [
            ("space.take", "ConfigurationEntry"),
            ("space.write", "StopEntry"),
            ("space.take", "StopEntry"),
        ],
        [("admin.status", None)],
        [("space.take", "RowEntry")] * 16,
    ]
    assert all(answer["entry"] is not None for answer in after[2][1])
    assert server.space.stats()["stored"] == 0


def test_a_case_starts_no_thread_per_part(tmp_path, address, monkeypatch):
    started = []
    start = threading.Thread.start

    def counting(self):
        started.append(self.name)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counting)
    config = make_case_config(
        tmp_path, address, input_bytes=bytes(range(64)), num_parts=32
    )
    assert run_case_with_workers(config, 1, tmp_path).results == 32
    assert started.count("task-heartbeat") == 1
    assert len(started) < 32


def test_the_heartbeat_renews_a_task_that_outlasts_its_lease(tmp_path, address):
    config = make_case_config(
        tmp_path,
        address,
        input_bytes=b"x",
        num_parts=1,
        task_lease_ms=300,
        max_attempts=1,
        agent_params={"delay_ms": 900},
    )
    report = run_case_with_workers(config, 1, tmp_path)
    assert report.results == 1
    assert report.replays == 0


def test_the_heartbeat_extends_a_claim_to_the_task_lease_within_the_claim_lease(
    tmp_path, address
):
    """A claim holds the short claim lease until the heartbeat renews it to
    the task's lease. That renewal must come within the claim lease, on the
    claim lease's schedule: a third of this lease is later than the claim
    lease's end, and the agent outlasts both."""
    task_lease_ms, delay_ms = 6_000, 2_500
    assert CLAIM_LEASE_MS < task_lease_ms // 3 < delay_ms
    config = make_case_config(
        tmp_path,
        address,
        input_bytes=b"x",
        num_parts=1,
        task_lease_ms=task_lease_ms,
        max_attempts=1,
        agent_params={"delay_ms": delay_ms},
    )
    report = run_case_with_workers(config, 1, tmp_path)
    assert report.results == 1
    assert report.replays == 0


def test_the_heartbeat_renews_while_a_pure_python_kernel_computes(
    tmp_path, address, monkeypatch
):
    # At this position the pure kernel computes in bytecode for longer than
    # the 300 ms lease; the interpreter's thread switching lets the heartbeat
    # renew meanwhile.
    monkeypatch.setattr(bbp, "hex_digits", _bbp_py.hex_digits)
    config = make_case_config(
        tmp_path,
        address,
        input_bytes=b"100001 32",
        agent_id="bbp-pi",
        cut_name="bbp_range",
        num_parts=1,
        task_lease_ms=300,
        max_attempts=1,
    )
    report = run_case_with_workers(config, 1, tmp_path)
    assert report.results == 1
    assert report.replays == 0
    with open(config.output_path, "rb") as fh:
        assert fh.read() == pi_hex(100_001, 32).encode("ascii")


def test_soak_leaves_no_state_behind(server, address, tmp_path):
    def settled():
        deadline = time.monotonic() + 5
        # The master's two sessions are gone once the server saw them close.
        while len(server._conns) > 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        stats = server.space.stats()
        return stats["stored"], stats["subscriptions"]

    after = []
    with running_workers(address, 2, tmp_path):
        for index in range(50):
            config = make_case_config(
                tmp_path, address, input_bytes=bytes(range(8)), case_id=f"soak-{index}"
            )
            assert Master(config).run().results == 4
            if index in (0, 49):
                after.append(settled())
        with server.txns._lock:
            held = len(server.txns._records)
            open_ = server.txns.open_count()
    assert after[0] == after[1]
    # 50 cases finish hundreds of transactions; only the idle claims remain.
    assert held == open_ <= 2


def wait_for_waiters(server, count, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while server.space.stats()["waiters"] < count:
        assert time.monotonic() < deadline, f"fewer than {count} parked lookups"
        time.sleep(0.005)


def test_idle_workers_keep_one_claim_transaction(tmp_path, monkeypatch):
    """Over two claim leases, idle workers neither time a claim out nor send
    it again: each waits in one take, and the heartbeat alone keeps its claim
    transaction open."""
    created = []
    create = transactions.TxnManager.create

    def counting(self, *args, **kwargs):
        txn_id = create(self, *args, **kwargs)
        created.append(txn_id)
        return txn_id

    monkeypatch.setattr(transactions.TxnManager, "create", counting)
    server = SpaceServer(host="127.0.0.1", port=0, record_history=True)
    server.start()
    host, port = server.address
    try:
        with running_workers(f"{host}:{port}", 2, tmp_path):
            wait_for_waiters(server, 2)
            time.sleep(2 * CLAIM_LEASE_MS / 1000.0)
            grown = len(created)
            assert server.space.stats()["waiters"] == 2
        takes = [
            row for row in server.space.history
            if row["op"] == "take" and row["template"]["kind"] == "TaskEntry"
        ]
    finally:
        server.shutdown(drain_ms=0)
    assert grown <= 2
    assert takes == []


def test_a_stop_aborts_the_idle_claims_at_once(server, address, tmp_path):
    """An idle worker's claim waits in the server with no deadline; a stop
    aborts its transaction, which answers the claim, and the worker leaves
    well within one claim lease."""
    before = set(server.txns._records)
    with running_workers(address, 2, tmp_path) as threads:
        wait_for_waiters(server, 2)
        claims = set(server.txns._records) - before
        stopping = time.monotonic()
    stopped_s = time.monotonic() - stopping
    assert not any(thread.is_alive() for thread in threads)
    assert stopped_s < 0.5
    assert len(claims) == 2
    assert not any(server.txns.is_open(txn) for txn in claims)


def test_short_parts_cost_fewer_renewals_than_parts(tmp_path, address, monkeypatch):
    """A claim transaction is opened at the claim lease and first renewed a
    third of that lease later, so a part that commits sooner costs no
    renewal."""
    renewals = []
    renew = transactions.TxnManager.renew

    def counting(self, txn_id, lease_ms):
        renewals.append(txn_id)
        renew(self, txn_id, lease_ms)

    monkeypatch.setattr(transactions.TxnManager, "renew", counting)
    config = make_case_config(
        tmp_path, address, input_bytes=bytes(range(64)), num_parts=16
    )
    assert run_case_with_workers(config, 2, tmp_path).results == 16
    assert len(renewals) < 16


def test_a_worker_stopped_mid_part_commits_it_once(tmp_path, server, address):
    """A stop leaves a claimed task to finish: its part is committed once and
    not replayed, and the worker aborts the claim transaction it opened for
    the next task instead of leaving it open until its lease runs out."""
    logs = tmp_path / "logs"
    logs.mkdir()
    delay_s = 0.5
    config = make_case_config(
        tmp_path,
        address,
        input_bytes=b"x",
        num_parts=1,
        agent_params={"delay_ms": int(delay_s * 1000)},
    )
    reports = []
    master = threading.Thread(
        target=lambda: reports.append(Master(config).run()), daemon=True
    )
    with running_workers(address, 1, tmp_path, execlog_dir=logs) as threads:
        master.start()
        wait_for_event(logs, "file-read")
        stopping = time.monotonic()
    stopped_s = time.monotonic() - stopping
    master.join(timeout=30)
    assert not threads[0].is_alive()
    assert stopped_s < delay_s + 0.5
    assert [(r.results, r.replays) for r in reports] == [(1, 0)]
    events = load_events([str(p) for p in logs.iterdir()])
    ends = [e["event"] for e in events if e["event"] in ("commit", "task-abandoned")]
    assert ends == ["commit"]
    assert server.txns.open_count() == 0


def test_a_worker_stopped_mid_part_takes_no_next_task(tmp_path, server, address):
    """A worker stopped while a part runs publishes it without taking the
    waiting task, so its abort puts nothing back: the case sees no replay,
    and one attempt per part is enough."""
    logs = tmp_path / "logs"
    logs.mkdir()
    config = make_case_config(
        tmp_path,
        address,
        input_bytes=b"xy",
        num_parts=2,
        max_attempts=1,
        agent_params={"delay_ms": 300},
    )
    reports = []
    master = threading.Thread(
        target=lambda: reports.append(Master(config).run()), daemon=True
    )
    with running_workers(address, 1, tmp_path, execlog_dir=logs):
        master.start()
        wait_for_event(logs, "file-read")
    with running_workers(address, 1, tmp_path):
        master.join(timeout=30)
    assert [(r.results, r.replays) for r in reports] == [(2, 0)]
    assert server.txns.open_count() == 0


def test_an_idle_worker_process_exits_at_once_on_sigterm(tmp_path, server, address):
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "spacefarm", "worker",
            "--space", address, "--scratch", str(tmp_path / "scratch"),
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        wait_for_waiters(server, 1)
        proc.terminate()
        sent = time.monotonic()
        assert proc.wait(timeout=10) == 0
        exited_s = time.monotonic() - sent
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert exited_s < 0.5


def test_clean_cases_leave_no_entries(server, address, tmp_path):
    with running_workers(address, 2, tmp_path):
        for index in range(5):
            config = make_case_config(
                tmp_path, address, input_bytes=bytes(range(32)), case_id=f"clean-{index}"
            )
            assert Master(config).run().results == 4
    assert server.space.stats()["stored"] == 0


def test_exactly_once_commits_in_execution_log(tmp_path, address):
    payload = bytes(range(60))
    logs = tmp_path / "logs"
    logs.mkdir()
    config = make_case_config(tmp_path, address, input_bytes=payload, num_parts=6)
    report = run_case_with_workers(config, 3, tmp_path, execlog_dir=logs)
    assert report.replays == 0
    events = load_events([str(p) for p in logs.iterdir()])
    commits = Counter(
        e["part_index"] for e in events if e["event"] == "commit"
    )
    marks = Counter(
        e["part_index"] for e in events if e["event"] == "computed-marked"
    )
    assert commits == Counter({i: 1 for i in range(6)})
    assert marks == Counter({i: 1 for i in range(6)})


def test_short_case_is_not_blocked_behind_a_long_one(tmp_path, address):
    """Claims are oldest-first across cases, so a free worker takes the newer
    case's tasks while the older case's only task is still running."""
    finished = []

    def run(name, **overrides):
        root = tmp_path / name
        root.mkdir()
        config = make_case_config(
            root, address, case_id=name, input_bytes=bytes(range(8)), **overrides
        )
        Master(config).run()
        finished.append(name)

    cases = [
        threading.Thread(
            target=run,
            args=("long",),
            kwargs={"num_parts": 1, "agent_params": {"delay_ms": 3_000}},
        ),
        threading.Thread(target=run, args=("short",), kwargs={"num_parts": 4}),
    ]
    with running_workers(address, 2, tmp_path):
        cases[0].start()
        time.sleep(0.3)
        cases[1].start()
        for case in cases:
            case.join(timeout=60)
    assert finished == ["short", "long"]


def test_missing_input_file_fails_fast(tmp_path, address):
    config = make_case_config(tmp_path, address, input_bytes=b"x")
    os.unlink(config.input_path)
    with pytest.raises(CutFailed):
        Master(config).run()


def test_unregistered_agent_is_config_error(tmp_path, address):
    config = make_case_config(
        tmp_path, address, input_bytes=b"x", agent_id="no-such-agent"
    )
    with pytest.raises(ConfigError):
        Master(config)


# -- config parsing -------------------------------------------------------------------


def valid_config_dict(tmp_path):
    return {
        "case_id": "case-json",
        "space_address": "127.0.0.1:7420",
        "agent_id": "echo",
        "agent_version": "1",
        "agent_params": {},
        "input_path": str(tmp_path / "in.bin"),
        "output_path": str(tmp_path / "out.bin"),
        "cut_strategy": {"name": "byte_chunk", "params": {}},
        "num_parts": 2,
        "initial_workers": 1,
        "task_lease_ms": 5_000,
    }


def test_config_from_json_roundtrip(tmp_path):
    # A key this version no longer reads is ignored.
    obj = {**valid_config_dict(tmp_path), "startup_grace_ms": 60_000}
    config = CaseConfig.from_json(json.dumps(obj))
    assert config.case_id == "case-json"
    assert config.cut_name == "byte_chunk"
    assert config.max_attempts == 5  # default


@pytest.mark.parametrize("missing", ["case_id", "cut_strategy", "task_lease_ms"])
def test_config_missing_key_rejected(tmp_path, missing):
    obj = valid_config_dict(tmp_path)
    del obj[missing]
    with pytest.raises(ConfigError):
        CaseConfig.from_json(json.dumps(obj))


def test_config_rejects_non_json():
    with pytest.raises(ConfigError):
        CaseConfig.from_json("{nope")
    with pytest.raises(ConfigError):
        CaseConfig.from_json("[1, 2]")


def test_config_validates_ranges(tmp_path):
    obj = valid_config_dict(tmp_path)
    obj["num_parts"] = 0
    with pytest.raises(ConfigError):
        CaseConfig.from_json(json.dumps(obj))
    obj = valid_config_dict(tmp_path)
    obj["task_lease_ms"] = 10
    with pytest.raises(ConfigError):
        CaseConfig.from_json(json.dumps(obj))
    obj = valid_config_dict(tmp_path)
    obj["cut_strategy"] = {"name": "no_such_cut"}
    with pytest.raises(ConfigError):
        CaseConfig.from_json(json.dumps(obj))


def test_config_guards_rowblock_worker_deficit(tmp_path):
    obj = valid_config_dict(tmp_path)
    obj["cut_strategy"] = {"name": "cholesky_rowblock"}
    obj["num_parts"] = 4
    obj["initial_workers"] = 2
    with pytest.raises(ConfigError):
        CaseConfig.from_json(json.dumps(obj))


def test_config_from_file_missing_path(tmp_path):
    with pytest.raises(ConfigError):
        CaseConfig.from_file(str(tmp_path / "absent.json"))
