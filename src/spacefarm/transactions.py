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

The manager holds a record only while its transaction is open: commit, abort
and expiry delete it, so a server that runs for days holds O(open) records,
and any id that is not open answers TXN_NOT_OPEN.  A transaction belongs to
the session that created it: the server names that session as the record's
`owner`, and `abort_owned` aborts what a dropped connection left open.  A
caller may choose a transaction's id; an id that is open is refused, and a
finished one may be opened again, with none of its old life.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Any, Callable

from .entries import new_entry_id
from .errors import TxnNotOpen
from .space import SpaceCore

MIN_LEASE_MS = 100


@dataclass
class TxnRecord:
    txn_id: str
    lease_ms: int
    deadline: float
    owner: Any = None  # the server connection that created it


class TxnManager:
    def __init__(
        self, space: SpaceCore, clock: Callable[[], float] = time.monotonic
    ) -> None:
        self._space = space
        self._lock = space.lock
        space.txn_is_open = self.is_open
        self._clock = clock
        self._records: dict[str, TxnRecord] = {}  # open transactions only
        # Commit and abort leave `due` early: that costs at most one sweep
        # that aborts nothing.
        self.due = math.inf

    # -- lifecycle -------------------------------------------------------------

    def create(
        self, lease_ms: int, txn_id: str | None = None, owner: Any = None
    ) -> str:
        if lease_ms < MIN_LEASE_MS:
            raise ValueError(f"lease_ms must be >= {MIN_LEASE_MS}, got {lease_ms}")
        if txn_id is not None and not (isinstance(txn_id, str) and 0 < len(txn_id) <= 64):
            raise ValueError("txn_id must be a string of 1 to 64 characters")
        with self._lock:
            txn_id = txn_id or new_entry_id()
            if txn_id in self._records:
                raise ValueError(f"transaction {txn_id} is already open")
            deadline = self._clock() + lease_ms / 1000.0
            self._records[txn_id] = TxnRecord(txn_id, lease_ms, deadline, owner)
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
            self._open_record(txn_id)
            self._space.commit_apply(txn_id)
            del self._records[txn_id]

    def abort(self, txn_id: str) -> None:
        with self._lock:
            self._abort_each([self._open_record(txn_id)])

    def _abort_each(self, recs: list[TxnRecord]) -> list[str]:
        # The record goes first, so the abort's restores see the
        # transaction as ended.
        for rec in recs:
            del self._records[rec.txn_id]
            self._space.abort_apply(rec.txn_id)
        return [rec.txn_id for rec in recs]

    def _open_record(self, txn_id: str) -> TxnRecord:
        rec = self._records.get(txn_id)
        if rec is None:
            raise TxnNotOpen(f"transaction not open: {txn_id}")
        return rec

    # -- queries ---------------------------------------------------------------

    def status(self, txn_id: str) -> TxnRecord:
        """A copy of the open transaction's record."""
        with self._lock:
            return replace(self._open_record(txn_id))

    def is_open(self, txn_id: str) -> bool:
        return txn_id in self._records

    def open_count(self) -> int:
        return len(self._records)

    # -- expiry, dropped connections and shutdown ----------------------------------

    def sweep(self) -> list[str]:
        """Abort every open transaction whose lease has expired, and set
        `due` to the earliest deadline still ahead."""
        with self._lock:
            now = self._clock()
            live = list(self._records.values())
            self.due = min(
                (rec.deadline for rec in live if rec.deadline > now), default=math.inf
            )
            return self._abort_each([rec for rec in live if rec.deadline <= now])

    def abort_owned(self, owner: Any) -> list[str]:
        """Abort the open transactions that `owner` created."""
        with self._lock:
            recs = self._records.values()
            return self._abort_each([rec for rec in recs if rec.owner is owner])

    def abort_all(self) -> list[str]:
        with self._lock:
            return self._abort_each(list(self._records.values()))
