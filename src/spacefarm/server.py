"""TCP server hosting the space and transaction manager behind one port.

Concurrency layout: one event-loop thread serves everything.  Its `selectors`
loop accepts connections, reads frames without blocking, runs each request
to completion in arrival order per connection, and buffers each connection's
responses and subscription events until its socket takes them; Nagle is off
on every connection.  A subscription event carries the entry's kind and
matchable fields, not its bulk data.  A lookup that finds nothing parks in
the space as a waiter, answered later by the write, commit or abort that
makes a match visible, by its transaction's end, or by its deadline, kept in
a heap here; the deadlines of lookups answered early are dropped once they
outnumber the parked ones.  The loop sleeps until the next lookup deadline
or the next lease due, so it aborts a lease when it is due and an idle
server does not wake.  A transaction belongs to the connection that
created it.  A dropped connection's waiters are discarded and consume
nothing, and then the transactions it left open are aborted, so a crashed
worker's task is back in the bag at once instead of when its lease runs out.
The lease stays the detector for a client that hangs.  Other threads never
touch a connection: an in-process space call queues its messages, and
`shutdown` hands over its abort and drain, both waking the loop through a
socket pair.
"""

from __future__ import annotations

import collections
import contextlib
import heapq
import logging
import math
import selectors
import socket
import threading
import time
from typing import Any

from . import wire
from .entries import Template, entry_from_wire, entry_to_wire, event_fields
from .errors import BadRequest, SpacefarmError, UnknownOp, error_code
from .space import SpaceCore, Waiter
from .transactions import TxnManager

log = logging.getLogger(__name__)

_READ = selectors.EVENT_READ
_WRITE = selectors.EVENT_WRITE
_RECV_BYTES = 256 * 1024
_PARKED = object()  # a lookup answered later, through its waiter
_LOOKUPS = {"space.read": False, "space.take": True}  # op -> for_take


class _Conn:
    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.inbuf = bytearray()
        self.out = bytearray()
        self.events = _READ
        self.greeted = False
        self.subs: list[str] = []


class SpaceServer:
    def __init__(
        self,
        host: str = "0.0.0.0",
        port: int = wire.DEFAULT_PORT,
        record_history: bool = False,
    ) -> None:
        self.space = SpaceCore(record_history=record_history)
        self.txns = TxnManager(self.space)
        self._bind = (host, port)
        self._listener: socket.socket | None = None
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._conns: set[_Conn] = set()
        self._outbox: collections.deque = collections.deque()  # (conn, message)
        self._deadlines: list[tuple[float, int, Waiter, _Conn, Any]] = []
        self._drain_s: float | None = None  # set by shutdown
        self._thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        assert self._listener is not None
        return self._listener.getsockname()[:2]

    def start(self) -> None:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(self._bind)
        listener.listen(64)
        self._listener = listener
        for sock in (listener, self._wake_r, self._wake_w):
            sock.setblocking(False)
        self._selector.register(listener, _READ)
        self._selector.register(self._wake_r, _READ)
        self._thread = threading.Thread(
            target=self._loop, name="space-loop", daemon=True
        )
        self._thread.start()
        log.info("listening on %s:%d", *self.address)

    def shutdown(self, drain_ms: int = 1500) -> None:
        """Abort every open transaction, then keep serving for a short drain
        window so clients hear what the aborts answered, then close."""
        if self._thread is None:
            self.txns.abort_all()
            return
        if self._drain_s is None:
            self._drain_s = max(drain_ms, 0) / 1000.0
            self._wake()
        self._thread.join()

    def _wake(self) -> None:
        with contextlib.suppress(OSError):  # the loop is awake already, or gone
            self._wake_w.send(b"\0")

    # -- event loop --------------------------------------------------------------------

    def _loop(self) -> None:
        stop_at = math.inf
        while True:
            if stop_at == math.inf and self._drain_s is not None:
                aborted = self.txns.abort_all()
                if aborted:
                    log.info("shutdown aborted %d open transactions", len(aborted))
                stop_at = time.monotonic() + self._drain_s
            now = time.monotonic()
            if now >= stop_at:
                break
            wake_at = min(stop_at, self.txns.due)
            if self._deadlines:
                wake_at = min(wake_at, self._deadlines[0][0])
            timeout = None if wake_at == math.inf else max(wake_at - now, 0.0)
            for key, mask in self._selector.select(timeout):
                conn = key.data
                if key.fileobj is self._listener:
                    self._accept()
                elif conn is None:
                    with contextlib.suppress(OSError):
                        self._wake_r.recv(4096)
                elif mask & _WRITE:
                    self._send(conn)
                if conn is not None and mask & _READ and conn in self._conns:
                    self._receive(conn)
            now = time.monotonic()
            while self._deadlines and self._deadlines[0][0] <= now:
                _, _, waiter, conn, req_id = heapq.heappop(self._deadlines)
                if self.space.expire(waiter):
                    self._push(conn, wire.ok_response(req_id, {"entry": None}))
            if now >= self.txns.due:
                self.txns.sweep()
            self._flush()
        self._flush()  # the answers to the shutdown aborts
        for conn in list(self._conns):
            self._drop(conn)
        for sock in (self._listener, self._wake_r, self._wake_w):
            sock.close()
        self._selector.close()

    def _accept(self) -> None:
        try:
            sock, _ = self._listener.accept()
        except OSError:
            return
        sock.setblocking(False)
        # Small answers and events must not wait for the client's delayed ACK.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _Conn(sock)
        self._conns.add(conn)
        self._selector.register(sock, _READ, conn)

    def _receive(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(_RECV_BYTES)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            self._drop(conn)
            return
        conn.inbuf += data
        try:
            for msg in wire.split_frames(conn.inbuf):
                if conn.greeted:
                    self._handle_request(conn, msg)
                elif not self._greet(conn, msg):
                    return
        except Exception:  # an oversized or malformed frame ends the connection
            log.exception("dropping a connection after a bad frame")
            self._drop(conn)

    def _greet(self, conn: _Conn, hello: dict[str, Any]) -> bool:
        if hello.get("hello") == wire.PROTOCOL:
            conn.greeted = True
            self._push(conn, wire.hello_frame())
            return True
        message = f"server speaks {wire.PROTOCOL}"
        refusal = {"error": {"code": "PROTOCOL_MISMATCH", "message": message}}
        with contextlib.suppress(OSError):
            conn.sock.send(wire.encode_frame(refusal))
        self._drop(conn)
        return False

    def _push(self, conn: _Conn, message: dict[str, Any]) -> None:
        """Queue a message for a connection; safe from any thread."""
        self._outbox.append((conn, message))
        if threading.current_thread() is not self._thread:
            self._wake()

    def _flush(self) -> None:
        ready: dict[_Conn, None] = {}
        while self._outbox:
            conn, message = self._outbox.popleft()
            if conn not in self._conns:
                continue
            try:
                conn.out += wire.encode_frame(message)
            except SpacefarmError:  # a frame too large to send
                self._drop(conn)
                continue
            ready[conn] = None
        for conn in ready:
            self._send(conn)

    def _send(self, conn: _Conn) -> None:
        if conn not in self._conns:
            return
        try:
            sent = conn.sock.send(conn.out)
        except BlockingIOError:
            sent = 0
        except OSError:
            self._drop(conn)
            return
        del conn.out[:sent]
        events = _READ | _WRITE if conn.out else _READ
        if events != conn.events:
            conn.events = events
            self._selector.modify(conn.sock, events, conn)

    def _drop(self, conn: _Conn) -> None:
        if conn not in self._conns:
            return
        self._conns.discard(conn)
        # The waiters go first, so no take of this connection consumes what
        # the aborts restore.
        self.space.discard(conn)
        self.txns.abort_owned(conn)
        for sub_id in conn.subs:
            self.space.unsubscribe(sub_id)
        self._selector.unregister(conn.sock)
        conn.sock.close()

    # -- request dispatch --------------------------------------------------------------

    def _handle_request(self, conn: _Conn, msg: dict[str, Any]) -> None:
        req_id = msg.get("req_id")
        try:
            if req_id is None or "op" not in msg:
                raise BadRequest("request needs req_id and op")
            op = msg["op"]
            params = msg.get("params") or {}
            if op in _LOOKUPS:
                result = self._lookup(conn, req_id, params, _LOOKUPS[op])
            else:
                handler = self._OPS.get(op)
                if handler is None:
                    raise UnknownOp(f"unknown op: {op}")
                result = handler(self, conn, params)
            if result is not _PARKED:
                self._push(conn, wire.ok_response(req_id, result))
        except SpacefarmError as exc:
            self._push(conn, wire.error_response(req_id, error_code(exc), str(exc)))
        except (ValueError, KeyError, TypeError) as exc:
            self._push(conn, wire.error_response(req_id, "BAD_REQUEST", str(exc)))
        except Exception as exc:  # pragma: no cover - defensive
            log.exception("handler failure for %s", msg.get("op"))
            self._push(conn, wire.error_response(req_id, "INTERNAL", str(exc)))

    # -- op implementations ---------------------------------------------------------------

    def _op_space_write(self, conn: _Conn, params: dict[str, Any]) -> Any:
        entry = entry_from_wire(params["entry"])
        return {"seq": self.space.write(entry, txn=params.get("txn"))}

    def _lookup(
        self, conn: _Conn, req_id: Any, params: dict[str, Any], for_take: bool
    ) -> Any:
        template = Template.from_wire(params["template"])
        timeout_ms = params.get("timeout_ms", 0)
        deadline = None if timeout_ms is None else time.monotonic() + timeout_ms / 1e3

        def answer(entry, error) -> None:
            if error is not None:
                response = wire.error_response(req_id, error_code(error), str(error))
            else:
                response = wire.ok_response(req_id, {"entry": entry_to_wire(entry)})
            self._push(conn, response)

        fn = self.space.take if for_take else self.space.read
        result = fn(
            template,
            txn=params.get("txn"),
            timeout_ms=timeout_ms,
            on_answer=answer,
            owner=conn,
        )
        if isinstance(result, Waiter):
            if deadline is not None:
                item = (deadline, id(result), result, conn, req_id)
                heapq.heappush(self._deadlines, item)
                self._compact_deadlines()
            return _PARKED
        return {"entry": None if result is None else entry_to_wire(result)}

    def _compact_deadlines(self) -> None:
        """Drop the deadlines of lookups answered early once they outnumber
        the parked ones.  Each compaction removes more than half the heap,
        and an entry is removed once, so the cost per lookup is amortised
        O(1)."""
        if len(self._deadlines) > 2 * self.space.parked_count():
            is_parked = self.space.is_parked
            self._deadlines = [d for d in self._deadlines if is_parked(d[2])]
            heapq.heapify(self._deadlines)

    def _op_space_subscribe(self, conn: _Conn, params: dict[str, Any]) -> Any:
        template = Template.from_wire(params["template"])

        def deliver(sub_id: str, seq: int, entry) -> None:
            event = {"seq": seq, "fields": event_fields(entry)}
            self._push(conn, wire.event(sub_id, event))

        sub_id = self.space.subscribe(template, deliver)
        conn.subs.append(sub_id)
        return {"subscription_id": sub_id}

    def _op_txn_create(self, conn: _Conn, params: dict[str, Any]) -> Any:
        txn_id = self.txns.create(
            int(params["lease_ms"]), params.get("txn_id"), owner=conn
        )
        return {"txn_id": txn_id}

    def _op_txn_renew(self, conn: _Conn, params: dict[str, Any]) -> Any:
        self.txns.renew(params["txn_id"], int(params["lease_ms"]))
        return {}

    def _op_txn_commit(self, conn: _Conn, params: dict[str, Any]) -> Any:
        self.txns.commit(params["txn_id"])
        return {}

    def _op_txn_abort(self, conn: _Conn, params: dict[str, Any]) -> Any:
        self.txns.abort(params["txn_id"])
        return {}

    def _op_admin_status(self, conn: _Conn, params: dict[str, Any]) -> Any:
        stats = self.space.stats()
        status: dict[str, Any] = {
            "version": wire.PROTOCOL,
            "entries": stats["entries"],
            "open_txns": self.txns.open_count(),
            "sessions": len(self._conns),
        }
        case_id = params.get("case_id")
        if case_id:
            status["case"] = self._case_counts(case_id)
        return status

    def _case_counts(self, case_id: str) -> dict[str, Any]:
        """Task entries waiting (visible) and on (held by a worker's open
        transaction); computed are the results the master has not collected;
        row_entries counts published Cholesky blocks, one per block of rows."""
        kinds = ("TaskEntry", "ResultEntry", "RowEntry")
        counts = {
            kind: self.space.count(Template(kind, {"case_id": case_id}))
            for kind in kinds
        }
        wait, on = counts["TaskEntry"]
        return {
            "case_id": case_id,
            "tasks": {"wait": wait, "on": on, "computed": counts["ResultEntry"][0]},
            "row_entries": counts["RowEntry"][0],
        }

    _OPS = {
        "space.write": _op_space_write,
        "space.subscribe": _op_space_subscribe,
        "txn.create": _op_txn_create,
        "txn.renew": _op_txn_renew,
        "txn.commit": _op_txn_commit,
        "txn.abort": _op_txn_abort,
        "admin.status": _op_admin_status,
    }
