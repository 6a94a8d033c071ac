"""Transaction lifecycle and lease expiry sweeps."""

import math

import pytest

from conftest import FakeClock
from spacefarm.entries import StopEntry, Template
from spacefarm.errors import TxnNotOpen
from spacefarm.space import SpaceCore
from spacefarm.transactions import MIN_LEASE_MS, TxnManager


def make_pair(clock):
    core = SpaceCore()
    return core, TxnManager(core, clock=clock)


def test_lifecycle_and_status(fake_clock):
    core, txns = make_pair(fake_clock)
    txn = txns.create(1_000)
    rec = txns.status(txn)
    assert rec.txn_id == txn and rec.lease_ms == 1_000
    assert txns.is_open(txn)
    core.write(StopEntry(case_id="a"), txn=txn)
    txns.commit(txn)
    assert not txns.is_open(txn)
    assert core.read(Template("StopEntry", {"case_id": "a"})) == StopEntry(case_id="a")


def test_create_rejects_tiny_lease(fake_clock):
    _, txns = make_pair(fake_clock)
    with pytest.raises(ValueError):
        txns.create(MIN_LEASE_MS - 1)


def test_create_under_a_chosen_id(fake_clock):
    _, txns = make_pair(fake_clock)
    assert txns.create(1_000, "chosen") == "chosen"
    assert txns.is_open("chosen")
    longest = "x" * 64
    assert txns.create(1_000, longest) == longest


def test_a_chosen_id_that_has_a_record_is_refused_and_left_untouched(fake_clock):
    _, txns = make_pair(fake_clock)
    txns.create(1_000, "open")
    fake_clock.advance(0.5)
    before = txns.status("open")
    with pytest.raises(ValueError):
        txns.create(5_000, "open")
    assert txns.status("open") == before
    fake_clock.advance(0.6)
    assert txns.sweep() == ["open"]  # still on its own lease


def test_a_reopened_id_sees_none_of_its_old_life(fake_clock):
    core, txns = make_pair(fake_clock)
    core.write(StopEntry(case_id="taken"))
    txns.create(1_000, "x")
    core.write(StopEntry(case_id="written"), txn="x")
    assert core.take(Template("StopEntry", {"case_id": "taken"}), txn="x")
    txns.commit("x")
    assert txns.create(1_000, "x") == "x"
    assert [txn for _, _, txn, _ in core.snapshot()] == [None]
    everything = Template("StopEntry")
    assert core.take(everything, txn="x") == StopEntry(case_id="written")
    assert core.take(everything, txn="x") is None
    txns.abort("x")
    assert core.read(everything) == StopEntry(case_id="written")


@pytest.mark.parametrize("bad", [7, "", "x" * 65])
def test_a_malformed_chosen_id_is_refused(fake_clock, bad):
    _, txns = make_pair(fake_clock)
    with pytest.raises(ValueError):
        txns.create(1_000, bad)
    assert txns.open_count() == 0


def test_unknown_and_terminal_txns(fake_clock):
    _, txns = make_pair(fake_clock)
    with pytest.raises(TxnNotOpen):
        txns.commit("nope")
    with pytest.raises(TxnNotOpen):
        txns.status("nope")
    txn = txns.create(1_000)
    txns.abort(txn)
    with pytest.raises(TxnNotOpen):
        txns.commit(txn)
    with pytest.raises(TxnNotOpen):
        txns.renew(txn, 1_000)


def test_sweep_aborts_expired_and_restores_takes(fake_clock):
    core, txns = make_pair(fake_clock)
    core.write(StopEntry(case_id="a"))
    txn = txns.create(1_000)
    core.take(Template("StopEntry", {"case_id": "a"}), txn=txn)
    core.write(StopEntry(case_id="b"), txn=txn)
    assert txns.sweep() == []
    fake_clock.advance(1.1)
    assert txns.sweep() == [txn]
    assert not txns.is_open(txn)
    assert core.read(Template("StopEntry", {"case_id": "a"})) is not None
    assert core.read(Template("StopEntry", {"case_id": "b"})) is None


def test_renew_extends_deadline(fake_clock):
    _, txns = make_pair(fake_clock)
    txn = txns.create(1_000)
    fake_clock.advance(0.8)
    txns.renew(txn, 1_000)
    fake_clock.advance(0.8)  # past the original deadline, inside the renewed one
    assert txns.sweep() == []
    assert txns.is_open(txn)
    fake_clock.advance(0.3)
    assert txns.sweep() == [txn]


def test_due_is_the_earliest_open_deadline(fake_clock):
    _, txns = make_pair(fake_clock)
    start = fake_clock.now
    assert txns.due == math.inf
    short = txns.create(1_000)
    long = txns.create(3_000)
    assert txns.due == start + 1.0
    txns.renew(long, 500)  # a renew may shorten a lease
    assert txns.due == start + 0.5
    txns.commit(long)
    fake_clock.advance(0.7)  # past the committed deadline, before the open one
    assert txns.sweep() == []
    assert txns.due == start + 1.0
    fake_clock.advance(0.5)
    later = txns.create(1_000)
    assert txns.due == start + 1.0
    assert txns.sweep() == [short]  # the expired one only
    assert txns.due == start + 2.2
    txns.abort(later)
    assert txns.sweep() == []
    assert txns.due == math.inf


def test_abort_all(fake_clock):
    _, txns = make_pair(fake_clock)
    first, second = txns.create(1_000), txns.create(1_000)
    txns.commit(first)
    assert txns.abort_all() == [second]
    assert txns.open_count() == 0


def test_finished_transactions_leave_no_record(fake_clock):
    _, txns = make_pair(fake_clock)
    held = {txns.create(60_000) for _ in range(3)}
    committed = [txns.create(1_000) for _ in range(1_024)]
    for txn in committed:
        txns.commit(txn)
    aborted = [txns.create(1_000) for _ in range(1_024)]
    for txn in aborted:
        txns.abort(txn)
    expired = [txns.create(1_000) for _ in range(1_024)]
    fake_clock.advance(1.1)
    assert txns.sweep() == expired
    assert set(txns._records) == held
    assert txns.open_count() == len(held)
    for txn in committed + aborted + expired:
        for finish in (txns.commit, txns.abort, txns.status):
            with pytest.raises(TxnNotOpen):
                finish(txn)
        with pytest.raises(TxnNotOpen):
            txns.renew(txn, 1_000)
