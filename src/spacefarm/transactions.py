"""Lease-based transaction manager.

Every transaction is a leased visibility scope over the space: commit promotes
its writes and finalizes its takes, abort (explicit or by lease expiry) undoes
both.  Expiry is the failure detector of the whole architecture: a worker that
stops renewing its task transaction is presumed dead, and the abort puts the
task it took back in the bag, which is the replay.  `due` is never later
than the earliest deadline of any open transaction, so the server's loop
sweeps when a lease is due and sleeps while none is open.

The manager takes the space's lock and installs its own `is_open` as the
space's transaction check, so a check and the operation it guards are a
single atomic step.  Its leases are the only clock: the space reads no time.
The only participant is the in-process space, so commit applies in one step:
there is no prepare phase and no participant that can be unreachable.

A finished transaction keeps its record only while it is among the newest
TERMINAL_RECORDS finished ones, so a server that runs for days holds a
bounded number of records.  A recent id still answers TXN_NOT_OPEN; an older
one answers UNKNOWN_TXN, which callers treat the same way.  A caller may
choose a transaction's id; an id that still has a record is refused.
"""

from __future__ import annotations

import collections
import math
import time
from dataclasses import dataclass, replace
from typing import Callable

from .entries import new_entry_id
from .errors import TxnNotOpen, UnknownTxn
from .space import SpaceCore

OPEN = "OPEN"
COMMITTED = "COMMITTED"
ABORTED = "ABORTED"

MIN_LEASE_MS = 100
TERMINAL_RECORDS = 1024


@dataclass
class TxnRecord:
    txn_id: str
    state: str
    lease_ms: int
    deadline: float


class TxnManager:
    def __init__(
        self, space: SpaceCore, clock: Callable[[], float] = time.monotonic
    ) -> None:
        self._space = space
        self._lock = space.lock
        space.txn_is_open = self.is_open
        self._clock = clock
        self._records: dict[str, TxnRecord] = {}
        self._finished: collections.deque[str] = collections.deque()  # oldest first
        # Commit and abort leave `due` early: that costs at most one sweep
        # that aborts nothing.
        self.due = math.inf

    # -- lifecycle -------------------------------------------------------------

    def create(self, lease_ms: int, txn_id: str | None = None) -> str:
        if lease_ms < MIN_LEASE_MS:
            raise ValueError(f"lease_ms must be >= {MIN_LEASE_MS}, got {lease_ms}")
        if txn_id is not None and not (isinstance(txn_id, str) and 0 < len(txn_id) <= 64):
            raise ValueError("txn_id must be a string of 1 to 64 characters")
        with self._lock:
            txn_id = txn_id or new_entry_id()
            if txn_id in self._records:
                raise ValueError(f"transaction {txn_id} already exists")
            deadline = self._clock() + lease_ms / 1000.0
            self._records[txn_id] = TxnRecord(
                txn_id=txn_id, state=OPEN, lease_ms=lease_ms, deadline=deadline
            )
            self.due = min(self.due, deadline)
            return txn_id

    def renew(self, txn_id: str, lease_ms: int) -> None:
        if lease_ms < MIN_LEASE_MS:
            raise ValueError(f"lease_ms must be >= {MIN_LEASE_MS}, got {lease_ms}")
        with self._lock:
            rec = self._open_record(txn_id)
            rec.lease_ms = lease_ms
            rec.deadline = self._clock() + lease_ms / 1000.0
            self.due = min(self.due, rec.deadline)

    def commit(self, txn_id: str) -> None:
        with self._lock:
            rec = self._open_record(txn_id)
            self._space.commit_apply(txn_id)
            self._finish(rec, COMMITTED)

    def abort(self, txn_id: str) -> None:
        with self._lock:
            rec = self._open_record(txn_id)
            self._finish_abort(rec)

    def _finish_abort(self, rec: TxnRecord) -> None:
        self._finish(rec, ABORTED)
        self._space.abort_apply(rec.txn_id)

    def _finish(self, rec: TxnRecord, state: str) -> None:
        rec.state = state
        self._finished.append(rec.txn_id)
        if len(self._finished) > TERMINAL_RECORDS:
            del self._records[self._finished.popleft()]

    def _open_record(self, txn_id: str) -> TxnRecord:
        rec = self._records.get(txn_id)
        if rec is None:
            raise UnknownTxn(f"unknown transaction: {txn_id}")
        if rec.state != OPEN:
            raise TxnNotOpen(f"transaction {txn_id} is {rec.state}")
        return rec

    # -- queries ---------------------------------------------------------------

    def status(self, txn_id: str) -> TxnRecord:
        with self._lock:
            rec = self._records.get(txn_id)
            if rec is None:
                raise UnknownTxn(f"unknown transaction: {txn_id}")
            return replace(rec)

    def is_open(self, txn_id: str) -> bool:
        with self._lock:
            rec = self._records.get(txn_id)
            return rec is not None and rec.state == OPEN

    def open_count(self) -> int:
        with self._lock:
            return sum(1 for r in self._records.values() if r.state == OPEN)

    # -- expiry and shutdown -----------------------------------------------------

    def sweep(self) -> list[str]:
        """Abort every open transaction whose lease has expired, and set
        `due` to the earliest deadline still ahead."""
        with self._lock:
            now = self._clock()
            live = [rec for rec in self._records.values() if rec.state == OPEN]
            expired = [rec for rec in live if rec.deadline <= now]
            self.due = min(
                (rec.deadline for rec in live if rec.deadline > now), default=math.inf
            )
            for rec in expired:
                self._finish_abort(rec)
            return [rec.txn_id for rec in expired]

    def abort_all(self) -> list[str]:
        with self._lock:
            live = [rec for rec in self._records.values() if rec.state == OPEN]
            for rec in live:
                self._finish_abort(rec)
            return [rec.txn_id for rec in live]
