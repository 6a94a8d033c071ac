"""Server and client session behavior over real sockets."""

import contextlib
import queue
import socket
import sys
import threading
import time

import pytest

from spacefarm import wire
from spacefarm.client import (
    Session,
    commit_request,
    create_request,
    parse_address,
    read_request,
    take_request,
    write_request,
)
from spacefarm.entries import (
    RowEntry,
    StopEntry,
    TaskEntry,
    Template,
    encode_payload,
    entry_to_wire,
    new_entry_id,
)
from spacefarm.errors import (
    BadRequest,
    ConnectionFailed,
    FrameTooLarge,
    InvalidTemplate,
    SessionClosed,
    TxnNotOpen,
    UnknownOp,
)
from spacefarm.server import SpaceServer


def test_parse_address():
    assert parse_address("127.0.0.1:7420") == ("127.0.0.1", 7420)
    assert parse_address("host.example:1") == ("host.example", 1)
    for bad in ("no-port", ":7420", "host:", "host:abc"):
        with pytest.raises(ValueError):
            parse_address(bad)


def test_connect_failure_raises():
    with pytest.raises(ConnectionFailed):
        Session.connect("127.0.0.1:1", timeout_s=0.5)  # reserved port, nothing there


def test_write_read_take_roundtrip(session):
    entry = StopEntry(case_id="wire-case")
    seq = session.write(entry)
    assert isinstance(seq, int) and seq >= 1
    template = Template("StopEntry", {"case_id": "wire-case"})
    assert session.read(template) == entry
    assert session.take(template) == entry
    assert session.read(template) is None


def test_transactions_over_the_wire(server, session):
    template = Template("StopEntry", {"case_id": "txn-case"})
    txn = session.txn_create(5_000)
    session.write(StopEntry(case_id="txn-case"), txn=txn)
    assert session.read(template) is None
    assert session.read(template, txn=txn) is not None
    assert server.txns.status(txn).lease_ms == 5_000
    session.txn_commit(txn)
    assert session.read(template) is not None
    with pytest.raises(TxnNotOpen):
        session.txn_commit(txn)


def test_error_codes_map_to_typed_exceptions(session):
    with pytest.raises(TxnNotOpen):
        session.txn_abort("never-created")
    with pytest.raises(InvalidTemplate):
        session.call("space.take", {"template": {"kind": "Mystery", "constraints": {}}})
    with pytest.raises(UnknownOp):
        session.call("space.destroy", {})


def test_lease_renewal_over_the_wire(session):
    txn = session.txn_create(300)
    for _ in range(4):
        time.sleep(0.15)
        session.txn_renew(txn, 300)
    session.txn_renew(txn, 300)  # survived 0.6s on a 0.3s lease
    time.sleep(0.6)
    with pytest.raises(TxnNotOpen):
        session.txn_renew(txn, 300)


def test_pipelined_calls_pair_responses(session):
    template = Template("StopEntry", {"case_id": "blocked"})
    outcome = {}

    def parked():
        outcome["take"] = session.take(template, timeout_ms=1_500)

    thread = threading.Thread(target=parked, daemon=True)
    thread.start()
    time.sleep(0.1)
    # The same connection keeps answering while the take is parked.
    for i in range(20):
        case = f"pipeline-{i}"
        session.write(StopEntry(case_id=case))
        assert session.read(Template("StopEntry", {"case_id": case})) == StopEntry(
            case_id=case
        )
    assert "take" not in outcome
    session.write(StopEntry(case_id="blocked"))
    thread.join(timeout=5)
    assert outcome["take"] == StopEntry(case_id="blocked")


def test_batch_answers_in_order_with_each_error_in_its_own_slot(session):
    template = Template("StopEntry", {"case_id": "batched"})
    txn = session.txn_create(5_000)
    answers = session.batch([
        write_request(StopEntry(case_id="batched"), txn),
        commit_request("never-created"),
        read_request(template),
        commit_request(txn),
        take_request(template),
        take_request(template),
        create_request(10),  # below the minimum lease
        create_request(5_000),
    ])
    seq, unknown, before_commit, committed, taken, gone, refused, fresh = answers
    assert isinstance(seq, int)
    assert isinstance(unknown, TxnNotOpen)
    assert before_commit is None  # the write is still scoped to txn
    assert committed is None
    assert taken == StopEntry(case_id="batched")
    assert gone is None
    assert refused.code == "BAD_REQUEST"
    session.txn_abort(fresh)  # open


def test_concurrent_batches_on_one_session_get_their_own_answers(session):
    """More threads than cores share one session; every batch must get the
    answers to its own requests, in its own order."""
    mismatches = []

    def run(thread):
        for k in range(40):
            case = f"mixed-{thread}-{k}"
            template = Template("StopEntry", {"case_id": case})
            _, taken, gone = session.batch([
                write_request(StopEntry(case_id=case)),
                take_request(template),
                read_request(template),
            ])
            if taken != StopEntry(case_id=case) or gone is not None:
                mismatches.append((case, taken, gone))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=run, args=(i,), daemon=True) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


def test_batch_on_a_closed_session_raises_session_closed(address):
    session = Session.connect(address)
    session.close()
    with pytest.raises(SessionClosed):
        session.batch([create_request(5_000)])


def test_a_frame_too_large_sends_no_op_of_its_batch(session, monkeypatch):
    template = Template("StopEntry", {"case_id": "small"})
    big = StopEntry(case_id="x" * 2_000)
    with monkeypatch.context() as patch:
        patch.setattr(wire, "MAX_FRAME", 1_000)
        with pytest.raises(FrameTooLarge):
            session.batch([write_request(StopEntry(case_id="small")), write_request(big)])
        with pytest.raises(FrameTooLarge):
            session.write(big)
    assert session._pending == {}
    assert session.read(template) is None


def test_disconnect_during_blocked_take_consumes_nothing(server, address):
    victim = Session.connect(address)
    failures = []

    def parked():
        try:
            victim.take(Template("StopEntry", {"case_id": "precious"}), timeout_ms=30_000)
        except SessionClosed:
            failures.append("closed")

    thread = threading.Thread(target=parked, daemon=True)
    thread.start()
    time.sleep(0.3)  # let the take park on the server
    victim.close()
    thread.join(timeout=5)
    assert failures == ["closed"]

    other = Session.connect(address)
    try:
        other.write(StopEntry(case_id="precious"))
        time.sleep(0.3)  # a leaked parked take would consume it here
        assert other.read(Template("StopEntry", {"case_id": "precious"})) is not None
    finally:
        other.close()


def test_a_dropped_connection_aborts_the_transactions_it_opened(
    server, address, session
):
    """A transaction belongs to the connection that created it: when that
    connection drops, the server aborts it long before its lease ends.  The
    connection's parked lookups are discarded first, so none of them
    consumes what the abort restores, and another connection's transaction
    stays open."""
    template = Template("StopEntry", {"case_id": "dropped"})
    session.write(StopEntry(case_id="dropped"))
    other = session.txn_create(60_000)
    holder = Session.connect(address)
    txn = holder.txn_create(60_000)
    assert holder.take(template, txn=txn) == StopEntry(case_id="dropped")

    def parked():
        with contextlib.suppress(SessionClosed):
            holder.take(template, txn=other, timeout_ms=30_000)

    thread = threading.Thread(target=parked, daemon=True)
    thread.start()
    deadline = time.monotonic() + 5
    while server.space.stats()["waiters"] < 1:
        assert time.monotonic() < deadline, "the take did not park"
        time.sleep(0.005)
    holder.close()
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert session.take(template, timeout_ms=250) == StopEntry(case_id="dropped")
    assert not server.txns.is_open(txn)
    assert server.txns.is_open(other)
    session.txn_abort(other)


@pytest.mark.parametrize("ending", ["abort", "expiry"])
def test_parked_take_ends_with_its_transaction(address, session, ending):
    holder = Session.connect(address)
    template = Template("StopEntry", {"case_id": f"ended-by-{ending}"})
    outcome: queue.Queue = queue.Queue()

    def parked():
        try:
            outcome.put(holder.take(template, txn=txn, timeout_ms=10_000))
        except TxnNotOpen as exc:
            outcome.put(exc)

    try:
        txn = holder.txn_create(60_000 if ending == "abort" else 300)
        thread = threading.Thread(target=parked, daemon=True)
        thread.start()
        time.sleep(0.2)  # let the take park on the server
        started = time.monotonic()
        if ending == "abort":
            session.txn_abort(txn)  # from another session
        assert isinstance(outcome.get(timeout=5), TxnNotOpen)
        assert time.monotonic() - started < 1.0
        session.write(StopEntry(case_id=f"ended-by-{ending}"))
        time.sleep(0.1)  # a leaked parked take would consume it here
        assert session.read(template) is not None
    finally:
        holder.close()


def test_answered_lookups_leave_the_deadline_heap(server, session):
    """A parked read answered long before its deadline does not stay in the
    server's deadline heap until then."""
    for i in range(200):
        template = Template("StopEntry", {"case_id": f"early-{i}"})
        entry, _ = session.batch([
            read_request(template, timeout_ms=60_000),  # parks, then the write answers it
            write_request(StopEntry(case_id=f"early-{i}")),
        ])
        assert entry == StopEntry(case_id=f"early-{i}")
    assert len(server._deadlines) <= 4


def test_a_parked_read_still_expires_at_its_deadline(session):
    for i in range(10):  # answered lookups, so the heap is compacted around it
        session.batch([
            read_request(Template("StopEntry", {"case_id": f"answered-{i}"}), timeout_ms=60_000),
            write_request(StopEntry(case_id=f"answered-{i}")),
        ])
    started = time.monotonic()
    assert session.read(Template("StopEntry", {"case_id": "late"}), timeout_ms=300) is None
    assert 0.25 <= time.monotonic() - started < 5.0


def test_one_server_thread_and_a_clean_shutdown():
    def server_threads():
        names = ("space-", "txn-")
        return [
            t for t in threading.enumerate()
            if t.name.startswith(names) and t not in before and t.is_alive()
        ]

    before = set(threading.enumerate())
    server = SpaceServer(host="127.0.0.1", port=0)
    server.start()
    host, port = server.address
    address = f"{host}:{port}"
    sessions = [Session.connect(address) for _ in range(4)]
    outcomes: queue.Queue = queue.Queue()

    def parked(sess, index):
        try:
            sess.take(Template("StopEntry", {"case_id": f"never-{index}"}), timeout_ms=60_000)
            outcomes.put("answered")
        except SessionClosed:
            outcomes.put("closed")

    takers = [
        threading.Thread(target=parked, args=(sess, i), daemon=True)
        for i, sess in enumerate(sessions)
    ]
    try:
        for taker in takers:
            taker.start()
        time.sleep(0.3)  # let every take park on the server
        for i in range(50):
            for sess in sessions:  # 4 x 50 = 200 requests while the takes park
                sess.read(Template("StopEntry", {"case_id": f"plain-{i}"}))
        assert len(server_threads()) <= 1
    finally:
        server.shutdown(drain_ms=0)
    assert server_threads() == []
    with pytest.raises(ConnectionFailed):
        Session.connect(address, timeout_s=1.0)
    for taker in takers:
        taker.join(timeout=5)
    assert [outcomes.get_nowait() for _ in takers] == ["closed"] * 4
    assert server.space.stats()["waiters"] == 0
    for sess in sessions:
        sess.close()


def test_subscription_events_arrive(session):
    inbox: queue.Queue = queue.Queue()
    session.subscribe(
        Template("StopEntry", {"case_id": "sub-case"}),
        lambda seq, fields: inbox.put((seq, fields)),
    )
    seq = session.write(StopEntry(case_id="sub-case"))
    got_seq, got_fields = inbox.get(timeout=5)
    assert got_seq == seq and got_fields == {"kind": "StopEntry", "case_id": "sub-case"}


def test_a_task_event_carries_its_matchable_fields_not_its_payload(session):
    inbox: queue.Queue = queue.Queue()
    session.subscribe(
        Template("TaskEntry", {"case_id": "ev"}), lambda seq, fields: inbox.put(fields)
    )
    session.write(TaskEntry("ev", 3, 1_000, "echo", encode_payload(b"part data")))
    assert inbox.get(timeout=5) == {
        "kind": "TaskEntry", "case_id": "ev", "part_index": 3,
        "lease_ms": 1_000, "agent_id": "echo",
    }


def test_a_row_event_carries_no_values(session):
    inbox: queue.Queue = queue.Queue()
    session.subscribe(
        Template("RowEntry", {"case_id": "ev"}), lambda seq, fields: inbox.put(fields)
    )
    session.write(RowEntry("ev", "m", 2, "1 0.5"))
    assert inbox.get(timeout=5) == {
        "kind": "RowEntry", "case_id": "ev", "matrix_id": "m", "row_index": 2,
    }


@pytest.mark.parametrize("values", [["1", "0.5"], 1.5, None])
def test_a_row_entry_whose_values_are_not_text_is_refused(session, values):
    entry = {**entry_to_wire(RowEntry("codec", "m", 0, "1 0.5")), "values": values}
    with pytest.raises(BadRequest):
        session.call("space.write", {"entry": entry})
    assert session.read(Template("RowEntry", {"case_id": "codec"})) is None


def test_the_server_turns_nagle_off_on_accepted_sockets(server, session):
    """A small answer must not wait for the client's delayed ACK of the
    previous one."""
    (conn,) = server._conns
    assert conn.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def test_an_event_is_handled_before_the_response_sent_after_it(session):
    """The server sends a write's event ahead of the write's response, and
    the session handles its frames in that order: a write returns only after
    its own event has been handled."""
    handled = set()
    session.subscribe(
        Template("StopEntry", {"case_id": "ordered"}),
        lambda seq, entry: handled.add(seq),
    )
    late = []
    for _ in range(300):
        seq = session.write(StopEntry(case_id="ordered"))
        if seq not in handled:
            late.append(seq)
    assert late == []


def test_subscription_sees_commit_promotions(session):
    inbox: queue.Queue = queue.Queue()
    session.subscribe(
        Template("StopEntry", {"case_id": "promo"}), lambda seq, entry: inbox.put(seq)
    )
    txn = session.txn_create(5_000)
    session.write(StopEntry(case_id="promo"), txn=txn)
    with pytest.raises(queue.Empty):
        inbox.get(timeout=0.3)
    session.txn_commit(txn)
    assert inbox.get(timeout=5) is not None


def test_a_chosen_txn_id_is_the_id_returned(session):
    txn = new_entry_id()
    assert session.batch([create_request(5_000, txn)]) == [txn]
    session.txn_abort(txn)  # open


def test_a_chosen_txn_id_in_use_is_refused(server, session):
    opened = session.txn_create(5_000)
    before = server.txns.status(opened)
    with pytest.raises(BadRequest):
        session.call("txn.create", {"lease_ms": 60_000, "txn_id": opened})
    assert server.txns.status(opened) == before
    session.txn_abort(opened)
    finished = session.txn_create(5_000)
    session.txn_commit(finished)
    assert session.batch([create_request(60_000, finished)]) == [finished]
    assert server.txns.status(finished).lease_ms == 60_000
    session.txn_abort(finished)


@pytest.mark.parametrize("bad", [7, "", "x" * 65])
def test_a_malformed_txn_id_is_refused(session, bad):
    with pytest.raises(BadRequest):
        session.call("txn.create", {"lease_ms": 5_000, "txn_id": bad})


def test_a_batch_takes_under_the_transaction_it_creates(session):
    """The server runs a connection's ops in order, so a take may name a
    transaction whose create is in the same batch."""
    template = Template("StopEntry", {"case_id": "batched-claim"})
    session.write(StopEntry(case_id="batched-claim"))
    txn = new_entry_id()
    created, taken = session.batch(
        [create_request(5_000, txn), take_request(template, txn)]
    )
    assert created == txn and taken == StopEntry(case_id="batched-claim")
    assert session.read(template) is None
    session.txn_abort(txn)  # the take was under txn, so the abort restores it
    assert session.read(template) == StopEntry(case_id="batched-claim")


def test_admin_status_reports_counts(session):
    session.write(StopEntry(case_id="status-case"))
    txn = session.txn_create(5_000)
    status = session.admin_status()
    assert status["version"] == wire.PROTOCOL
    assert status["entries"] >= 1
    assert status["open_txns"] >= 1
    assert status["sessions"] >= 1
    by_case = session.admin_status("status-case")
    assert by_case["case"]["case_id"] == "status-case"
    assert set(by_case["case"]) == {"case_id", "tasks", "row_entries"}
    stop = Template("StopEntry", {"case_id": "status-case"})
    assert session.read(stop) == StopEntry(case_id="status-case")
    session.txn_abort(txn)


# spacefarm/1 still had entry leases and transaction-scoped subscriptions;
# spacefarm/2 had no transaction ids chosen by the client; spacefarm/3 sent a
# RowEntry's values as a list of strings; spacefarm/4 sent a
# ConfigurationEntry's num_parts; spacefarm/5 had an op and an error code for
# finished transactions and a ResultEntry's entry_id, and left a dropped
# connection's transactions open.
@pytest.mark.parametrize(
    "hello",
    [
        "otherproto/9",
        "spacefarm/1",
        "spacefarm/2",
        "spacefarm/3",
        "spacefarm/4",
        "spacefarm/5",
    ],
)
def test_wrong_hello_is_refused(server, hello):
    host, port = server.address
    sock = socket.create_connection((host, port), timeout=5)
    try:
        wire.send_frame(sock, {"hello": hello})
        reply = wire.read_frame(sock)
        assert reply["error"]["code"] == "PROTOCOL_MISMATCH"
        with pytest.raises(SessionClosed):
            wire.read_frame(sock)  # server hangs up after refusing
    finally:
        sock.close()


def test_shutdown_aborts_open_transactions():
    server = SpaceServer(host="127.0.0.1", port=0)
    server.start()
    host, port = server.address
    session = Session.connect(f"{host}:{port}")
    try:
        session.write(StopEntry(case_id="held"))
        txn = session.txn_create(60_000)
        session.take(Template("StopEntry", {"case_id": "held"}), txn=txn)
        server.shutdown(drain_ms=0)
        assert not server.txns.is_open(txn)
        restored = server.space.count(Template("StopEntry", {"case_id": "held"}))
        assert restored == (1, 0)
    finally:
        session.close()


def test_calls_after_close_raise_session_closed(address):
    session = Session.connect(address)
    session.close()
    with pytest.raises(SessionClosed):
        session.admin_status()
