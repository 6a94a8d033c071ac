"""In-memory shared object space: write/read/take, blocking lookups, leases,
event subscriptions, and transactional visibility.

All operations on one SpaceCore are serialized under a single lock, so every
operation takes effect atomically at one point in a total order (the space's
linearization order).  Blocking reads and takes park on the shared condition
and re-evaluate after every visibility-changing operation.

Visibility of a stored entry is one of:

* global            -- visible to every scope,
* written under t   -- visible only inside transaction t until t commits,
* taken under t     -- invisible everywhere except reads inside t; restored
                       to global visibility if t aborts, deleted if t commits.

Taking an entry that the same transaction wrote removes it outright: the
write was never globally visible, so there is nothing to restore or promote.

Subscription callbacks run while the space lock is held; they must only
enqueue, never block or re-enter the space.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from .entries import Entry, Template, entry_to_wire, new_entry_id
from .errors import TxnNotOpen

FOREVER = None

# Sentinel returned by blocking ops interrupted through a cancel event
# (client disconnected); distinct from a timeout miss.
CANCELLED = object()

_GLOBAL = "global"
_WRITTEN = "written"
_TAKEN = "taken"


@dataclass
class StoredEntry:
    entry: Entry
    seq: int
    lease_deadline: float | None = FOREVER
    vis: str = _GLOBAL
    txn: str | None = None  # owning transaction when vis != global


@dataclass
class Subscription:
    sub_id: str
    template: Template
    scope: str | None
    callback: Callable[[str, int, Entry], None]


class SpaceCore:
    """The space state machine.  Thread-safe; shareable with a TxnManager
    through a common lock so transaction checks and applies are atomic with
    entry operations."""

    def __init__(
        self,
        lock: threading.RLock | None = None,
        clock: Callable[[], float] = time.monotonic,
        txn_checker: Callable[[str], bool] | None = None,
        record_history: bool = False,
    ) -> None:
        self._lock = lock if lock is not None else threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._clock = clock
        self._txn_checker = txn_checker
        self._entries: dict[int, StoredEntry] = {}  # insertion == seq order
        self._seq = 0
        self._subs: dict[str, Subscription] = {}
        self._order = 0
        self.history: list[dict[str, Any]] | None = [] if record_history else None

    # -- configuration hooks -------------------------------------------------

    @property
    def lock(self) -> threading.RLock:
        return self._lock

    def set_txn_checker(self, checker: Callable[[str], bool]) -> None:
        self._txn_checker = checker

    def poke(self) -> None:
        """Wake every parked read/take so it can notice a cancel event."""
        with self._cond:
            self._cond.notify_all()

    # -- internal helpers (lock held) ----------------------------------------

    def _check_txn(self, txn: str | None) -> None:
        if txn is None:
            return
        if self._txn_checker is not None and not self._txn_checker(txn):
            raise TxnNotOpen(f"transaction not open: {txn}")

    def _record(self, row: dict[str, Any]) -> None:
        if self.history is not None:
            self._order += 1
            row["order"] = self._order
            self.history.append(row)

    def _purge_expired(self) -> None:
        now = self._clock()
        dead = [
            seq
            for seq, st in self._entries.items()
            if st.lease_deadline is not FOREVER and st.lease_deadline <= now
        ]
        for seq in dead:
            del self._entries[seq]
            self._record({"op": "purge", "seq": seq})

    def _visible_for_read(self, st: StoredEntry, scope: str | None) -> bool:
        if st.vis == _GLOBAL:
            return True
        return scope is not None and st.txn == scope

    def _eligible_for_take(self, st: StoredEntry, scope: str | None) -> bool:
        if st.vis == _GLOBAL:
            return True
        # A transaction may consume its own uncommitted write, but an entry
        # it already holds taken cannot be taken twice.
        return st.vis == _WRITTEN and scope is not None and st.txn == scope

    def _select(
        self, template: Template, scope: str | None, for_take: bool
    ) -> StoredEntry | None:
        for st in self._entries.values():  # ascending seq: oldest-first
            if for_take:
                if not self._eligible_for_take(st, scope):
                    continue
            elif not self._visible_for_read(st, scope):
                continue
            if template.matches(st.entry):
                return st
        return None

    def _fire(self, st: StoredEntry, scope: str | None) -> None:
        """Deliver an entry that just became visible to `scope` (None=global)."""
        for sub in self._subs.values():
            if scope is not None and sub.scope != scope:
                continue
            if sub.template.matches(st.entry):
                sub.callback(sub.sub_id, st.seq, st.entry)

    # -- operations -----------------------------------------------------------

    def write(
        self,
        entry: Entry,
        txn: str | None = None,
        lease_ms: int | None = None,
    ) -> int:
        """Store an entry; returns its space sequence number.

        With a transaction the entry stays scoped to it until commit; without
        one it is globally visible immediately.
        """
        with self._cond:
            self._check_txn(txn)
            self._purge_expired()
            self._seq += 1
            deadline = (
                FOREVER if lease_ms is None else self._clock() + lease_ms / 1000.0
            )
            st = StoredEntry(
                entry=entry,
                seq=self._seq,
                lease_deadline=deadline,
                vis=_GLOBAL if txn is None else _WRITTEN,
                txn=txn,
            )
            self._entries[st.seq] = st
            self._record(
                {
                    "op": "write",
                    "seq": st.seq,
                    "txn": txn,
                    "entry": entry_to_wire(entry),
                }
            )
            self._fire(st, scope=txn)
            self._cond.notify_all()
            return st.seq

    def read(
        self,
        template: Template,
        txn: str | None = None,
        timeout_ms: int | None = 0,
        cancel: threading.Event | None = None,
    ) -> Entry | None:
        return self._lookup(template, txn, timeout_ms, cancel, for_take=False)

    def take(
        self,
        template: Template,
        txn: str | None = None,
        timeout_ms: int | None = 0,
        cancel: threading.Event | None = None,
    ) -> Entry | None:
        return self._lookup(template, txn, timeout_ms, cancel, for_take=True)

    def _lookup(
        self,
        template: Template,
        txn: str | None,
        timeout_ms: int | None,
        cancel: threading.Event | None,
        for_take: bool,
    ) -> Entry | None:
        op = "take" if for_take else "read"
        deadline = (
            None if timeout_ms is None else self._clock() + timeout_ms / 1000.0
        )
        with self._cond:
            while True:
                self._check_txn(txn)
                self._purge_expired()
                st = self._select(template, txn, for_take)
                if st is not None:
                    if for_take:
                        self._apply_take(st, txn)
                    self._record(
                        {
                            "op": op,
                            "txn": txn,
                            "template": template.to_wire(),
                            "seq": st.seq,
                        }
                    )
                    if for_take:
                        self._cond.notify_all()
                    return st.entry
                if cancel is not None and cancel.is_set():
                    return CANCELLED  # type: ignore[return-value]
                remaining = None if deadline is None else deadline - self._clock()
                if remaining is not None and remaining <= 0:
                    self._record(
                        {
                            "op": op,
                            "txn": txn,
                            "template": template.to_wire(),
                            "seq": None,
                        }
                    )
                    return None
                # Bounded wait so cancel events are noticed promptly even if
                # nobody pokes the condition.
                wait_for = 0.25 if cancel is not None else remaining
                if remaining is not None and (wait_for is None or remaining < wait_for):
                    wait_for = remaining
                self._cond.wait(wait_for)

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
        self,
        template: Template,
        callback: Callable[[str, int, Entry], None],
        txn: str | None = None,
    ) -> str:
        """Register for entries that become visible to the scope and match.

        Delivery is at-least-once in space order; the callback runs under the
        space lock and must only enqueue.
        """
        with self._cond:
            sub_id = new_entry_id()
            self._subs[sub_id] = Subscription(sub_id, template, txn, callback)
            return sub_id

    def unsubscribe(self, sub_id: str) -> None:
        with self._cond:
            self._subs.pop(sub_id, None)

    # -- transaction participant interface ------------------------------------

    def commit_apply(self, txn: str) -> None:
        """Promote the transaction's writes, discard its takes."""
        with self._cond:
            promoted: list[StoredEntry] = []
            deleted: list[int] = []
            for seq in list(self._entries):
                st = self._entries[seq]
                if st.txn != txn:
                    continue
                if st.vis == _WRITTEN:
                    st.vis = _GLOBAL
                    st.txn = None
                    promoted.append(st)
                elif st.vis == _TAKEN:
                    del self._entries[seq]
                    deleted.append(seq)
            self._record(
                {
                    "op": "commit",
                    "txn": txn,
                    "promoted": [st.seq for st in promoted],
                    "deleted": deleted,
                }
            )
            for st in promoted:
                self._fire(st, scope=None)
            self._cond.notify_all()

    def abort_apply(self, txn: str) -> None:
        """Void the transaction's writes, restore its takes."""
        with self._cond:
            restored: list[StoredEntry] = []
            deleted: list[int] = []
            for seq in list(self._entries):
                st = self._entries[seq]
                if st.txn != txn:
                    continue
                if st.vis == _WRITTEN:
                    del self._entries[seq]
                    deleted.append(seq)
                elif st.vis == _TAKEN:
                    st.vis = _GLOBAL
                    st.txn = None
                    restored.append(st)
            self._record(
                {
                    "op": "abort",
                    "txn": txn,
                    "restored": [st.seq for st in restored],
                    "deleted": deleted,
                }
            )
            for st in restored:
                self._fire(st, scope=None)
            self._cond.notify_all()

    # -- introspection ---------------------------------------------------------

    def count(self, template: Template) -> tuple[int, int]:
        """Matching entries as (globally visible, held taken by an open
        transaction)."""
        with self._cond:
            self._purge_expired()
            visible = held = 0
            for st in self._entries.values():
                if template.matches(st.entry):
                    visible += st.vis == _GLOBAL
                    held += st.vis == _TAKEN
            return visible, held

    def visible_entries(self, template: Template | None = None) -> list[Entry]:
        """Globally visible entries, oldest first."""
        with self._cond:
            self._purge_expired()
            return [
                st.entry
                for st in self._entries.values()
                if st.vis == _GLOBAL
                and (template is None or template.matches(st.entry))
            ]

    def snapshot(self) -> list[tuple[int, str, str | None, Entry]]:
        """Full internal state (seq, visibility, txn, entry) for tests."""
        with self._cond:
            return [
                (st.seq, st.vis, st.txn, st.entry)
                for st in self._entries.values()
            ]

    def stats(self) -> dict[str, int]:
        with self._cond:
            self._purge_expired()
            visible = sum(1 for st in self._entries.values() if st.vis == _GLOBAL)
            return {
                "entries": visible,
                "stored": len(self._entries),
                "subscriptions": len(self._subs),
            }
