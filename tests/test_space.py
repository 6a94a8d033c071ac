"""Space semantics: visibility, blocking, tie-breaks, events."""

import threading
import time

import pytest

from spacefarm.entries import ResultEntry, StopEntry, TaskEntry, Template, encode_payload
from spacefarm.errors import TxnNotOpen
from spacefarm.space import SpaceCore
from spacefarm.transactions import TxnManager


def make_pair():
    core = SpaceCore()
    return core, TxnManager(core)


def stop(case: str) -> StopEntry:
    return StopEntry(case_id=case)


def tmpl(case: str) -> Template:
    return Template("StopEntry", {"case_id": case})


def test_write_read_take_basics():
    core, _ = make_pair()
    core.write(stop("a"))
    assert core.read(tmpl("a")) == stop("a")
    assert core.read(tmpl("a")) == stop("a")  # read leaves the entry
    assert core.take(tmpl("a")) == stop("a")
    assert core.read(tmpl("a")) is None  # take removes it
    assert core.take(tmpl("a")) is None


def test_oldest_first_tie_break():
    core, _ = make_pair()
    first = ResultEntry("a", 0, encode_payload(b"1"))
    second = ResultEntry("a", 0, encode_payload(b"2"))
    core.write(first)
    core.write(second)
    template = Template("ResultEntry", {"case_id": "a"})
    assert core.read(template) == first
    assert core.take(template) == first
    assert core.take(template) == second


def test_blocking_take_wakes_on_write():
    core, _ = make_pair()
    got = []

    def taker():
        got.append(core.take(tmpl("a"), timeout_ms=5_000))

    thread = threading.Thread(target=taker, daemon=True)
    thread.start()
    time.sleep(0.05)
    core.write(stop("a"))
    thread.join(timeout=5)
    assert got == [stop("a")]


def test_blocking_take_times_out():
    core, _ = make_pair()
    started = time.monotonic()
    assert core.take(tmpl("a"), timeout_ms=120) is None
    assert time.monotonic() - started >= 0.1


def test_write_under_txn_invisible_until_commit():
    core, txns = make_pair()
    txn = txns.create(10_000)
    core.write(stop("a"), txn=txn)
    assert core.read(tmpl("a")) is None  # not yet global
    assert core.read(tmpl("a"), txn=txn) == stop("a")  # visible inside
    txns.commit(txn)
    assert core.read(tmpl("a")) == stop("a")


def test_write_under_txn_voided_by_abort():
    core, txns = make_pair()
    txn = txns.create(10_000)
    core.write(stop("a"), txn=txn)
    txns.abort(txn)
    assert core.read(tmpl("a")) is None
    assert core.stats()["stored"] == 0


def test_take_under_txn_restored_on_abort():
    core, txns = make_pair()
    core.write(stop("a"))
    txn = txns.create(10_000)
    assert core.take(tmpl("a"), txn=txn) == stop("a")
    assert core.read(tmpl("a")) is None  # hidden from others
    assert core.read(tmpl("a"), txn=txn) == stop("a")  # reads inside still see it
    txns.abort(txn)
    assert core.read(tmpl("a")) == stop("a")  # back, same entry


def test_restored_entry_keeps_its_place_in_the_order():
    """An aborted claim puts the task back ahead of newer ones: the restore
    is the replay, so it must not send the part to the end of the bag."""
    core, txns = make_pair()
    core.write(stop("older"))
    core.write(stop("newer"))
    txn = txns.create(10_000)
    assert core.take(Template("StopEntry"), txn=txn) == stop("older")
    txns.abort(txn)
    assert core.take(Template("StopEntry")) == stop("older")


def test_take_under_txn_deleted_on_commit():
    core, txns = make_pair()
    core.write(stop("a"))
    txn = txns.create(10_000)
    core.take(tmpl("a"), txn=txn)
    txns.commit(txn)
    assert core.read(tmpl("a")) is None
    assert core.stats()["stored"] == 0


def test_taking_own_uncommitted_write_deletes_outright():
    core, txns = make_pair()
    txn = txns.create(10_000)
    core.write(stop("a"), txn=txn)
    assert core.take(tmpl("a"), txn=txn) == stop("a")
    txns.abort(txn)
    assert core.read(tmpl("a")) is None  # nothing to restore
    assert core.stats()["stored"] == 0


def test_taken_entry_cannot_be_taken_again_even_by_owner():
    core, txns = make_pair()
    core.write(stop("a"))
    txn = txns.create(10_000)
    assert core.take(tmpl("a"), txn=txn) == stop("a")
    assert core.take(tmpl("a"), txn=txn) is None
    other = txns.create(10_000)
    assert core.take(tmpl("a"), txn=other) is None


def test_abort_is_snapshot_neutral():
    core, txns = make_pair()
    core.write(stop("a"))
    core.write(stop("b"))
    before = core.snapshot()
    txn = txns.create(10_000)
    core.take(tmpl("a"), txn=txn)
    core.write(stop("c"), txn=txn)
    core.write(stop("d"), txn=txn)
    core.take(tmpl("d"), txn=txn)
    assert core.snapshot() != before
    txns.abort(txn)
    assert core.snapshot() == before


def test_ops_under_closed_txn_rejected():
    core, txns = make_pair()
    txn = txns.create(10_000)
    txns.abort(txn)
    with pytest.raises(TxnNotOpen):
        core.write(stop("a"), txn=txn)
    with pytest.raises(TxnNotOpen):
        core.read(tmpl("a"), txn=txn)
    with pytest.raises(TxnNotOpen):
        core.take(tmpl("a"), txn=txn)


def test_subscription_fires_on_write_and_promotion():
    core, txns = make_pair()
    seen = []
    core.subscribe(tmpl("a"), lambda sub, seq, entry: seen.append(("w", seq, entry)))
    seq = core.write(stop("a"))
    assert seen == [("w", seq, stop("a"))]

    txn = txns.create(10_000)
    seq2 = core.write(stop("a"), txn=txn)
    assert len(seen) == 1  # scoped write is not globally visible yet
    txns.commit(txn)
    assert seen[1] == ("w", seq2, stop("a"))


def test_subscription_fires_on_restore():
    core, txns = make_pair()
    core.write(stop("a"))
    seen = []
    core.subscribe(tmpl("a"), lambda sub, seq, entry: seen.append(seq))
    txn = txns.create(10_000)
    core.take(tmpl("a"), txn=txn)
    assert seen == []
    txns.abort(txn)
    assert len(seen) == 1  # restored entry announced again


def test_a_write_under_a_txn_answers_its_waiters_and_is_heard_on_commit():
    core, txns = make_pair()
    txn = txns.create(10_000)
    heard = []
    core.subscribe(tmpl("a"), lambda sub, seq, entry: heard.append(seq))
    inside, outside = [], []
    parked_inside = threading.Thread(
        target=lambda: inside.append(core.read(tmpl("a"), txn=txn, timeout_ms=5_000)),
        daemon=True,
    )
    parked_outside = threading.Thread(
        target=lambda: outside.append(core.read(tmpl("a"), timeout_ms=5_000)),
        daemon=True,
    )
    parked_inside.start()
    parked_outside.start()
    deadline = time.monotonic() + 5
    while core.stats()["waiters"] < 2 and time.monotonic() < deadline:
        time.sleep(0.005)
    assert core.stats()["waiters"] == 2

    seqs = []
    writer = threading.Thread(
        target=lambda: seqs.append(core.write(stop("a"), txn=txn)), daemon=True
    )
    writer.start()
    writer.join(timeout=5)
    parked_inside.join(timeout=5)
    assert inside == [stop("a")]
    assert outside == [] and heard == []
    assert core.stats()["waiters"] == 1  # the global read is still parked

    txns.commit(txn)
    parked_outside.join(timeout=5)
    assert outside == [stop("a")]
    assert core.read(tmpl("a")) == stop("a")  # the reads consumed nothing
    assert heard == seqs


def test_an_in_process_subscription_gets_the_whole_entry():
    core, _ = make_pair()
    seen = []
    core.subscribe(Template("TaskEntry"), lambda sub, seq, entry: seen.append(entry))
    task = TaskEntry("a", 0, 1_000, "echo", encode_payload(b"part"))
    core.write(task)
    assert seen == [task]


def test_unsubscribe_stops_delivery():
    core, _ = make_pair()
    seen = []
    sub = core.subscribe(tmpl("a"), lambda s, seq, entry: seen.append(entry))
    core.unsubscribe(sub)
    core.write(stop("a"))
    assert seen == []


def test_count_and_visible_entries():
    core, txns = make_pair()
    core.write(stop("a"))
    core.write(stop("a"))
    txn = txns.create(10_000)
    core.write(stop("a"), txn=txn)
    assert core.count(tmpl("a")) == (2, 0)
    visible = [entry for _, vis, _, entry in core.snapshot() if vis == "global"]
    assert visible == [stop("a"), stop("a")]
    stats = core.stats()
    assert stats["entries"] == 2 and stats["stored"] == 3
    holder = txns.create(10_000)
    core.take(tmpl("a"), txn=holder)
    assert core.count(tmpl("a")) == (1, 1)  # visible, held by an open txn
