"""Replay recorded space histories against the sequential reference model."""

import sys

import pytest

import _model
from spacefarm.entries import StopEntry, Template
from spacefarm.space import SpaceCore
from spacefarm.transactions import TxnManager


def make_recorded():
    core = SpaceCore(record_history=True)
    return core, TxnManager(core)


def test_replay_accepts_a_correct_sequential_history():
    core, txns = make_recorded()
    template = Template("StopEntry", {"case_id": "a"})
    core.write(StopEntry(case_id="a"))
    core.read(template)
    txn = txns.create(10_000)
    core.take(template, txn=txn)
    core.write(StopEntry(case_id="b"), txn=txn)
    txns.abort(txn)
    txn = txns.create(10_000)
    core.take(template, txn=txn)
    txns.commit(txn)
    core.read(template)  # records a miss
    final = _model.replay(core.history)
    assert final == {}


def test_replay_rejects_a_corrupted_history():
    core, txns = make_recorded()
    core.write(StopEntry(case_id="a"))
    core.take(Template("StopEntry", {"case_id": "a"}))
    broken = [dict(row) for row in core.history]
    broken[-1]["seq"] = None  # pretend the take missed
    with pytest.raises(_model.ModelMismatch):
        _model.replay(broken)


def test_replay_rejects_phantom_restore():
    core, txns = make_recorded()
    core.write(StopEntry(case_id="a"))
    txn = txns.create(10_000)
    core.take(Template("StopEntry", {"case_id": "a"}), txn=txn)
    txns.commit(txn)
    broken = [dict(row) for row in core.history]
    # claim the commit restored-nothing-but-deleted-nothing: divergence
    broken[-1]["deleted"] = []
    with pytest.raises(_model.ModelMismatch):
        _model.replay(broken)


def test_concurrent_stress_replays_clean():
    history = _model.run_stress(num_threads=8, ops_per_thread=150, seed=20260815)
    assert len(history) >= 1_000
    _model.replay(history)


def test_stress_is_seed_stable_per_thread():
    # Different interleavings must still replay; run twice with another seed.
    for seed in (7, 99):
        _model.replay(_model.run_stress(num_threads=4, ops_per_thread=80, seed=seed))


def test_parked_lookups_replay_clean():
    # Lookups park as waiters and are answered by other threads' writes,
    # commits and aborts, or time out; a short switch interval makes those
    # threads interleave often.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        history = _model.run_stress(
            num_threads=8, ops_per_thread=150, seed=5, wait_ms=15
        )
    finally:
        sys.setswitchinterval(interval)
    _model.replay(history)
