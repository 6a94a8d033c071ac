"""TCP server hosting the space and transaction manager behind one port.

Concurrency layout: one accept thread, one reader thread per connection, one
handler thread per in-flight request (blocking space lookups park there), and
one writer thread per connection draining an outbound queue so event pushes
never interleave with responses.  A connection that drops mid-request cancels
its parked lookups without consuming anything.
"""

from __future__ import annotations

import logging
import queue
import socket
import threading
import time
from typing import Any

from . import wire
from .entries import Template, entry_from_wire, entry_to_wire
from .errors import BadRequest, SpacefarmError, UnknownOp, error_code
from .space import CANCELLED, SpaceCore
from .transactions import SweepLoop, TxnManager

log = logging.getLogger(__name__)


class _Conn:
    def __init__(self, sock: socket.socket, peer: str) -> None:
        self.sock = sock
        self.peer = peer
        self.outq: queue.SimpleQueue = queue.SimpleQueue()
        self.cancel = threading.Event()
        self.subs: list[str] = []

    def push(self, message: dict[str, Any]) -> None:
        self.outq.put(message)


class SpaceServer:
    def __init__(
        self,
        host: str = "0.0.0.0",
        port: int = wire.DEFAULT_PORT,
        txn_sweep_ms: int = 100,
        record_history: bool = False,
        clock=time.monotonic,
    ) -> None:
        lock = threading.RLock()
        self.space = SpaceCore(lock=lock, clock=clock, record_history=record_history)
        self.txns = TxnManager(self.space, lock=lock, clock=clock)
        self.space.set_txn_checker(self.txns.is_open)
        self._sweeper = SweepLoop(self.txns, period_ms=txn_sweep_ms)
        self._host = host
        self._port = port
        self._listener: socket.socket | None = None
        self._conns: set[_Conn] = set()
        self._conns_lock = threading.Lock()
        self._stopping = threading.Event()
        self._accept_thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        assert self._listener is not None
        return self._listener.getsockname()[:2]

    def start(self) -> None:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen(64)
        self._listener = listener
        self._sweeper.start()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="space-accept", daemon=True
        )
        self._accept_thread.start()
        log.info("listening on %s:%d", *self.address)

    def shutdown(self, drain_ms: int = 1500) -> None:
        """Abort every open transaction, then keep serving for a short drain
        window so clients can observe the terminal states, then close."""
        aborted = self.txns.abort_all()
        if aborted:
            log.info("shutdown aborted %d open transactions", len(aborted))
        if drain_ms > 0:
            time.sleep(drain_ms / 1000.0)
        self._stopping.set()
        self._sweeper.stop()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            self._drop(conn)

    # -- connection handling --------------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping.is_set():
            try:
                sock, addr = self._listener.accept()
            except OSError:
                return
            conn = _Conn(sock, f"{addr[0]}:{addr[1]}")
            with self._conns_lock:
                self._conns.add(conn)
            threading.Thread(
                target=self._serve_conn, args=(conn,), name="space-conn", daemon=True
            ).start()

    def _serve_conn(self, conn: _Conn) -> None:
        try:
            hello = wire.read_frame(conn.sock)
            if hello.get("hello") != wire.PROTOCOL:
                wire.send_frame(
                    conn.sock,
                    {
                        "error": {
                            "code": "PROTOCOL_MISMATCH",
                            "message": f"server speaks {wire.PROTOCOL}",
                        }
                    },
                )
                self._drop(conn)
                return
            wire.send_frame(conn.sock, wire.hello_frame())
        except Exception:
            self._drop(conn)
            return

        writer = threading.Thread(
            target=self._write_loop, args=(conn,), name="space-writer", daemon=True
        )
        writer.start()
        try:
            while not self._stopping.is_set():
                msg = wire.read_frame(conn.sock)
                threading.Thread(
                    target=self._handle_request,
                    args=(conn, msg),
                    name="space-handler",
                    daemon=True,
                ).start()
        except Exception:
            pass
        finally:
            self._drop(conn)

    def _write_loop(self, conn: _Conn) -> None:
        while True:
            msg = conn.outq.get()
            if msg is None:
                return
            try:
                wire.send_frame(conn.sock, msg)
            except Exception:
                self._drop(conn)
                return

    def _drop(self, conn: _Conn) -> None:
        with self._conns_lock:
            if conn not in self._conns:
                return
            self._conns.discard(conn)
        conn.cancel.set()
        self.space.poke()  # wake parked lookups so they notice the cancel
        for sub_id in conn.subs:
            self.space.unsubscribe(sub_id)
        conn.outq.put(None)
        try:
            conn.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            conn.sock.close()
        except OSError:
            pass

    # -- request dispatch --------------------------------------------------------------

    def _handle_request(self, conn: _Conn, msg: dict[str, Any]) -> None:
        req_id = msg.get("req_id")
        try:
            if req_id is None or "op" not in msg:
                raise BadRequest("request needs req_id and op")
            op = msg["op"]
            params = msg.get("params") or {}
            handler = self._OPS.get(op)
            if handler is None:
                raise UnknownOp(f"unknown op: {op}")
            result = handler(self, conn, params)
            if result is CANCELLED:
                return  # connection gone; nothing to answer
            conn.push(wire.ok_response(req_id, result))
        except SpacefarmError as exc:
            conn.push(wire.error_response(req_id, error_code(exc), str(exc)))
        except (ValueError, KeyError, TypeError) as exc:
            conn.push(wire.error_response(req_id, "BAD_REQUEST", str(exc)))
        except Exception as exc:  # pragma: no cover - defensive
            log.exception("handler failure for %s", msg.get("op"))
            conn.push(wire.error_response(req_id, "INTERNAL", str(exc)))

    # -- op implementations ---------------------------------------------------------------

    def _op_space_write(self, conn: _Conn, params: dict[str, Any]) -> Any:
        entry = entry_from_wire(params["entry"])
        seq = self.space.write(
            entry, txn=params.get("txn"), lease_ms=params.get("lease_ms")
        )
        return {"seq": seq}

    def _lookup(self, conn: _Conn, params: dict[str, Any], for_take: bool) -> Any:
        template = Template.from_wire(params["template"])
        timeout_ms = params.get("timeout_ms", 0)
        fn = self.space.take if for_take else self.space.read
        entry = fn(
            template,
            txn=params.get("txn"),
            timeout_ms=timeout_ms,
            cancel=conn.cancel,
        )
        if entry is CANCELLED:
            return CANCELLED
        return {"entry": None if entry is None else entry_to_wire(entry)}

    def _op_space_read(self, conn: _Conn, params: dict[str, Any]) -> Any:
        return self._lookup(conn, params, for_take=False)

    def _op_space_take(self, conn: _Conn, params: dict[str, Any]) -> Any:
        return self._lookup(conn, params, for_take=True)

    def _op_space_subscribe(self, conn: _Conn, params: dict[str, Any]) -> Any:
        template = Template.from_wire(params["template"])

        def deliver(sub_id: str, seq: int, entry) -> None:
            conn.push(wire.event(sub_id, {"seq": seq, "entry": entry_to_wire(entry)}))

        sub_id = self.space.subscribe(template, deliver, txn=params.get("txn"))
        conn.subs.append(sub_id)
        return {"subscription_id": sub_id}

    def _op_txn_create(self, conn: _Conn, params: dict[str, Any]) -> Any:
        txn_id = self.txns.create(int(params["lease_ms"]))
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

    def _op_txn_status(self, conn: _Conn, params: dict[str, Any]) -> Any:
        rec = self.txns.status(params["txn_id"])
        return {
            "txn_id": rec.txn_id,
            "state": rec.state,
            "lease_ms": rec.lease_ms,
        }

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
        transaction); computed are the results the master has not collected."""
        kinds = ("TaskEntry", "FileEntry", "ResultEntry", "RowEntry", "StopEntry")
        counts = {
            kind: self.space.count(Template(kind, {"case_id": case_id}))
            for kind in kinds
        }
        wait, on = counts["TaskEntry"]
        results = counts["ResultEntry"][0]
        return {
            "case_id": case_id,
            "tasks": {"wait": wait, "on": on, "computed": results},
            "file_entries": counts["FileEntry"][0],
            "result_entries": results,
            "row_entries": counts["RowEntry"][0],
            "stop": counts["StopEntry"][0] > 0,
        }

    _OPS = {
        "space.write": _op_space_write,
        "space.read": _op_space_read,
        "space.take": _op_space_take,
        "space.subscribe": _op_space_subscribe,
        "txn.create": _op_txn_create,
        "txn.renew": _op_txn_renew,
        "txn.commit": _op_txn_commit,
        "txn.abort": _op_txn_abort,
        "txn.status": _op_txn_status,
        "admin.status": _op_admin_status,
    }
