"""Sequential reference model of the space, checked against recorded history.

Every SpaceCore operation takes effect at one point in a total order (the
``order`` field of its history row).  Replaying the rows through this model
therefore verifies linearizability directly: each observed outcome must equal
what a sequential space would have returned at that point.
"""

from __future__ import annotations

import random
import threading

from spacefarm.entries import StopEntry, Template, entry_from_wire
from spacefarm.errors import TxnNotOpen
from spacefarm.space import SpaceCore
from spacefarm.transactions import TxnManager

GLOBAL = "global"
WRITTEN = "written"
TAKEN = "taken"


class ModelMismatch(AssertionError):
    pass


def replay(history: list[dict]) -> dict:
    """Replay history rows in linearization order; raises on any divergence.

    Returns the model's final entry table (seq -> [entry, visibility, txn]).
    """
    entries: dict[int, list] = {}
    for row in sorted(history, key=lambda r: r["order"]):
        op = row["op"]
        if op == "write":
            if row["seq"] in entries:
                raise ModelMismatch(f"seq {row['seq']} written twice")
            vis = GLOBAL if row["txn"] is None else WRITTEN
            entries[row["seq"]] = [entry_from_wire(row["entry"]), vis, row["txn"]]
        elif op in ("read", "take"):
            template = Template.from_wire(row["template"])
            scope = row["txn"]
            expected = None
            for seq in sorted(entries):
                entry, vis, txn = entries[seq]
                if op == "take":
                    eligible = vis == GLOBAL or (
                        vis == WRITTEN and scope is not None and txn == scope
                    )
                else:
                    eligible = vis == GLOBAL or (scope is not None and txn == scope)
                if eligible and template.matches(entry):
                    expected = seq
                    break
            if expected != row["seq"]:
                raise ModelMismatch(
                    f"{op} at order {row['order']}: model selects {expected}, "
                    f"space returned {row['seq']}"
                )
            if op == "take" and row["seq"] is not None:
                entry, vis, txn = entries[row["seq"]]
                if scope is None or (vis == WRITTEN and txn == scope):
                    del entries[row["seq"]]
                else:
                    entries[row["seq"]] = [entry, TAKEN, scope]
        elif op in ("commit", "abort"):
            txn = row["txn"]
            kept_key = "promoted" if op == "commit" else "restored"
            kept_vis = WRITTEN if op == "commit" else TAKEN
            model_kept = {
                seq for seq, (e, v, t) in entries.items() if t == txn and v == kept_vis
            }
            model_gone = {
                seq
                for seq, (e, v, t) in entries.items()
                if t == txn and v in (WRITTEN, TAKEN) and v != kept_vis
            }
            if model_kept != set(row[kept_key]) or model_gone != set(row["deleted"]):
                raise ModelMismatch(
                    f"{op} of {txn} at order {row['order']}: model "
                    f"{sorted(model_kept)}/{sorted(model_gone)}, space "
                    f"{sorted(row[kept_key])}/{sorted(row['deleted'])}"
                )
            for seq in model_kept:
                entries[seq][1] = GLOBAL
                entries[seq][2] = None
            for seq in model_gone:
                del entries[seq]
        else:
            raise ModelMismatch(f"unknown history op {op!r}")
    return entries


def run_stress(
    num_threads: int = 8, ops_per_thread: int = 150, seed: int = 1234, wait_ms: int = 0
) -> list[dict]:
    """Concurrent mixed workload on one space; returns the recorded history.

    With `wait_ms` every lookup may park for up to that long, so other
    threads' writes, commits and aborts answer it.
    """
    core = SpaceCore(record_history=True)
    txns = TxnManager(core)
    found: list[object] = []  # every entry a lookup returned

    def actor(tid: int) -> None:
        rng = random.Random(seed + tid)
        open_txn: str | None = None
        for _ in range(ops_per_thread):
            roll = rng.random()
            case = f"c{rng.randrange(3)}"
            template = Template("StopEntry", {"case_id": case})
            try:
                if roll < 0.35:
                    txn = open_txn if rng.random() < 0.5 else None
                    core.write(StopEntry(case_id=case), txn=txn)
                elif roll < 0.80:
                    lookup = core.read if roll < 0.55 else core.take
                    found.append(lookup(template, txn=open_txn, timeout_ms=wait_ms))
                elif open_txn is None:
                    open_txn = txns.create(60_000)
                else:
                    finish = txns.commit if rng.random() < 0.5 else txns.abort
                    finish(open_txn)
                    open_txn = None
            except TxnNotOpen:
                open_txn = None
        if open_txn is not None:
            txns.abort(open_txn)

    threads = [
        threading.Thread(target=actor, args=(tid,), daemon=True)
        for tid in range(num_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    hits = [r for r in core.history if r["op"] in ("read", "take") and r["seq"]]
    returned = [entry for entry in found if entry is not None]
    if len(hits) != len(returned):
        raise ModelMismatch(f"{len(returned)} lookups got an entry, {len(hits)} recorded")
    return core.history
