"""In-memory shared object space: write/read/take, parked lookups, event
subscriptions, and transactional visibility.

An entry has no lease of its own: it ends only when a take removes it or
with the transaction that wrote or took it.  A transaction's lease is the
only clock, and the TxnManager keeps it; the space reads no time.

All operations on one SpaceCore are serialized under a single lock, so every
operation takes effect atomically at one point in a total order (the space's
linearization order).

A read or take that finds nothing and may wait becomes a waiter: its
template, scope, kind and a callback, kept in registration order.  Whenever
an entry becomes visible (a write, a commit's promotion, an abort's restore)
it goes to the waiters that can see it, oldest first: a read waiter is
answered and the entry passes on, a take waiter consumes it.  Subscriptions
hear an entry only when it becomes globally visible, before the waiters do,
so a write under a transaction reaches only waiters until it commits.  When
a transaction ends, its waiters are answered with TxnNotOpen.  The server
parks a lookup this way and fires its deadline itself; an in-process caller
blocks on an Event that the callback sets.

Visibility of a stored entry is one of:

* global            -- visible to every scope,
* written under t   -- visible only inside transaction t until t commits,
* taken under t     -- invisible everywhere except reads inside t; restored
                       to global visibility if t aborts, deleted if t commits.

Taking an entry that the same transaction wrote removes it outright: the
write was never globally visible, so there is nothing to restore or promote.

Subscription and waiter callbacks run while the space lock is held; they
must only enqueue, never block or re-enter the space.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable

from .entries import Entry, Template, entry_to_wire, new_entry_id
from .errors import TxnNotOpen

_GLOBAL = "global"
_WRITTEN = "written"
_TAKEN = "taken"


@dataclass
class StoredEntry:
    entry: Entry
    seq: int
    vis: str = _GLOBAL
    txn: str | None = None  # owning transaction when vis != global


@dataclass
class Subscription:
    sub_id: str
    template: Template
    callback: Callable[[str, int, Entry], None]


# A waiter's callback: (entry, None), or (None, TxnNotOpen) if its txn ended.
Answer = Callable[[Entry | None, Exception | None], None]


@dataclass(eq=False)
class Waiter:
    """A parked read or take; its callback runs once, under the space lock."""

    template: Template
    scope: str | None
    for_take: bool
    callback: Answer | None
    owner: Any = None


class SpaceCore:
    """The space state machine.  Thread-safe.  A TxnManager built on it
    shares its `lock` and installs its transaction check, so checks and
    applies are atomic with entry operations."""

    def __init__(self, record_history: bool = False) -> None:
        self.lock = threading.RLock()
        self.txn_is_open: Callable[[str], bool] | None = None
        self._entries: dict[int, StoredEntry] = {}  # insertion == seq order
        self._seq = 0
        self._subs: dict[str, Subscription] = {}
        self._waiters: dict[Waiter, bool] = {}  # registration order
        self._order = 0
        self.history: list[dict[str, Any]] | None = [] if record_history else None

    # -- internal helpers (lock held) ----------------------------------------

    def _check_txn(self, txn: str | None) -> None:
        if txn is None:
            return
        if self.txn_is_open is not None and not self.txn_is_open(txn):
            raise TxnNotOpen(f"transaction not open: {txn}")

    def _record(self, row: dict[str, Any]) -> None:
        if self.history is not None:
            self._order += 1
            row["order"] = self._order
            self.history.append(row)

    def _wants(self, lookup: Waiter, st: StoredEntry) -> bool:
        if st.vis != _GLOBAL:
            if lookup.scope is None or st.txn != lookup.scope:
                return False
            # A transaction may consume its own uncommitted write, but an
            # entry it already holds taken cannot be taken twice.
            if lookup.for_take and st.vis == _TAKEN:
                return False
        return lookup.template.matches(st.entry)

    def _select(self, lookup: Waiter) -> StoredEntry | None:
        for st in self._entries.values():  # ascending seq: oldest-first
            if self._wants(lookup, st):
                return st
        return None

    def _fire(self, st: StoredEntry) -> None:
        """Deliver an entry that just became globally visible to the
        subscriptions, then offer it to the waiters."""
        for sub in self._subs.values():
            if sub.template.matches(st.entry):
                sub.callback(sub.sub_id, st.seq, st.entry)
        self._offer(st)

    def _offer(self, st: StoredEntry) -> None:
        """Answer the waiters that can see the entry, oldest first, until one
        consumes it.  A take under a transaction leaves it visible to reads
        inside that transaction, so the offer goes on after such a take."""
        for waiter in list(self._waiters):
            if st.seq not in self._entries:
                return
            if self._wants(waiter, st):
                del self._waiters[waiter]
                waiter.callback(self._hand_over(st, waiter), None)

    def _hand_over(self, st: StoredEntry, lookup: Waiter) -> Entry:
        if lookup.for_take:
            self._apply_take(st, lookup.scope)
        self._record_lookup(lookup, st.seq)
        return st.entry

    def _record_lookup(self, lookup: Waiter, seq: int | None) -> None:
        if self.history is not None:
            op = "take" if lookup.for_take else "read"
            row = {"op": op, "txn": lookup.scope, "template": lookup.template.to_wire()}
            self._record({**row, "seq": seq})

    # -- operations -----------------------------------------------------------

    def write(self, entry: Entry, txn: str | None = None) -> int:
        """Store an entry; returns its space sequence number.

        With a transaction the entry stays scoped to it until commit; without
        one it is globally visible immediately.
        """
        with self.lock:
            self._check_txn(txn)
            self._seq += 1
            vis = _GLOBAL if txn is None else _WRITTEN
            st = StoredEntry(entry, self._seq, vis, txn)
            self._entries[st.seq] = st
            if self.history is not None:
                row = {"op": "write", "seq": st.seq, "txn": txn}
                self._record({**row, "entry": entry_to_wire(entry)})
            if txn is None:
                self._fire(st)
            else:
                self._offer(st)
            return st.seq

    def read(
        self,
        template: Template,
        txn: str | None = None,
        timeout_ms: int | None = 0,
        on_answer: Answer | None = None,
        owner: Any = None,
    ) -> Entry | Waiter | None:
        return self._lookup(Waiter(template, txn, False, on_answer, owner), timeout_ms)

    def take(
        self,
        template: Template,
        txn: str | None = None,
        timeout_ms: int | None = 0,
        on_answer: Answer | None = None,
        owner: Any = None,
    ) -> Entry | Waiter | None:
        return self._lookup(Waiter(template, txn, True, on_answer, owner), timeout_ms)

    def _lookup(self, lookup: Waiter, timeout_ms: int | None) -> Entry | Waiter | None:
        """Answer at once, or park the lookup as a waiter.  With `on_answer`
        the Waiter is returned and the caller fires its deadline (`expire`);
        without it the caller blocks here for at most `timeout_ms`."""
        with self.lock:
            self._check_txn(lookup.scope)
            st = self._select(lookup)
            if st is not None:
                entry = self._hand_over(st, lookup)
                if lookup.for_take and st.seq in self._entries:
                    self._offer(st)
                return entry
            if timeout_ms == 0:
                self._record_lookup(lookup, None)
                return None
            self._waiters[lookup] = True
            if lookup.callback is not None:
                return lookup
            answered: list[tuple[Entry | None, Exception | None]] = []
            done = threading.Event()

            def answer(entry: Entry | None, error: Exception | None) -> None:
                answered.append((entry, error))
                done.set()

            lookup.callback = answer
        done.wait(None if timeout_ms is None else timeout_ms / 1000.0)
        with self.lock:
            if not answered:
                self.expire(lookup)
                return None
        entry, error = answered[0]
        if error is not None:
            raise error
        return entry

    def expire(self, waiter: Waiter) -> bool:
        """End a parked lookup whose timeout passed, as a miss.  False if it
        was answered first."""
        with self.lock:
            if not self._waiters.pop(waiter, False):
                return False
            self._record_lookup(waiter, None)
            return True

    def parked_count(self) -> int:
        return len(self._waiters)

    def is_parked(self, waiter: Waiter) -> bool:
        """False once the lookup was answered, expired or discarded."""
        return waiter in self._waiters

    def discard(self, owner: Any) -> None:
        """Drop the owner's parked lookups (its client went away); they
        consume nothing and leave no record."""
        with self.lock:
            for waiter in [w for w in self._waiters if w.owner is owner]:
                del self._waiters[waiter]

    def _apply_take(self, st: StoredEntry, txn: str | None) -> None:
        if txn is None:
            del self._entries[st.seq]
        elif st.vis == _WRITTEN and st.txn == txn:
            # Consuming our own uncommitted write: void it outright.
            del self._entries[st.seq]
        else:
            st.vis = _TAKEN
            st.txn = txn

    def subscribe(
        self, template: Template, callback: Callable[[str, int, Entry], None]
    ) -> str:
        """Register for entries that match as they become globally visible:
        a global write, a commit's promotion or an abort's restore.  A write
        under a transaction is heard only when that transaction commits.

        Delivery is at-least-once in space order; the callback runs under the
        space lock and must only enqueue.
        """
        with self.lock:
            sub_id = new_entry_id()
            self._subs[sub_id] = Subscription(sub_id, template, callback)
            return sub_id

    def unsubscribe(self, sub_id: str) -> None:
        with self.lock:
            self._subs.pop(sub_id, None)

    # -- transaction participant interface ------------------------------------

    def commit_apply(self, txn: str) -> None:
        """Promote the transaction's writes, discard its takes."""
        self._end_txn(txn, "commit", "promoted", keep=_WRITTEN)

    def abort_apply(self, txn: str) -> None:
        """Void the transaction's writes, restore its takes."""
        self._end_txn(txn, "abort", "restored", keep=_TAKEN)

    def _end_txn(self, txn: str, op: str, kept_key: str, keep: str) -> None:
        """Make the transaction's `keep` entries global, delete the rest of
        its entries, and answer its waiters with TxnNotOpen."""
        with self.lock:
            for waiter in [w for w in self._waiters if w.scope == txn]:
                del self._waiters[waiter]
                waiter.callback(None, TxnNotOpen(f"transaction not open: {txn}"))
            survivors: list[StoredEntry] = []
            deleted: list[int] = []
            for seq, st in list(self._entries.items()):
                if st.txn != txn:
                    continue
                if st.vis == keep:
                    st.vis, st.txn = _GLOBAL, None
                    survivors.append(st)
                else:
                    del self._entries[seq]
                    deleted.append(seq)
            kept = [st.seq for st in survivors]
            self._record({"op": op, "txn": txn, kept_key: kept, "deleted": deleted})
            for st in survivors:
                self._fire(st)

    # -- introspection ---------------------------------------------------------

    def count(self, template: Template) -> tuple[int, int]:
        """Matching entries as (globally visible, held taken by an open
        transaction)."""
        with self.lock:
            visible = held = 0
            for st in self._entries.values():
                if template.matches(st.entry):
                    visible += st.vis == _GLOBAL
                    held += st.vis == _TAKEN
            return visible, held

    def snapshot(self) -> list[tuple[int, str, str | None, Entry]]:
        """Full internal state (seq, visibility, txn, entry) for tests."""
        with self.lock:
            return [(s.seq, s.vis, s.txn, s.entry) for s in self._entries.values()]

    def stats(self) -> dict[str, int]:
        with self.lock:
            visible = sum(1 for st in self._entries.values() if st.vis == _GLOBAL)
            return {
                "entries": visible,
                "stored": len(self._entries),
                "subscriptions": len(self._subs),
                "waiters": len(self._waiters),
            }
