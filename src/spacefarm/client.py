"""Client session for the space/transaction server.

A Session is safe to share between threads: calls are matched to responses by
req_id, and subscription events are delivered on a dedicated dispatcher thread
(callbacks must not issue blocking calls on the same session).
"""

from __future__ import annotations

import contextlib
import itertools
import logging
import queue
import socket
import threading
from typing import Any, Callable

from . import wire
from .entries import Entry, Template, entry_from_wire, entry_to_wire
from .errors import (
    ConnectionFailed,
    ProtocolMismatch,
    SessionClosed,
    from_code,
)
from .transactions import TxnRecord

log = logging.getLogger(__name__)


def parse_address(address: str) -> tuple[str, int]:
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"address must be host:port, got {address!r}")
    return host, int(port)


class _Pending:
    __slots__ = ("event", "response")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.response: dict[str, Any] | None = None


class Session:
    """One connection to the server; closes cleanly on server loss."""

    def __init__(self, sock: socket.socket, peer: str) -> None:
        self._sock = sock
        self._peer = peer
        self._send_lock = threading.Lock()
        self._req_ids = itertools.count(1)
        self._pending: dict[int, _Pending] = {}
        self._pending_lock = threading.Lock()
        self._callbacks: dict[str, Callable[[dict[str, Any]], None]] = {}
        self._orphan_events: dict[str, list[dict[str, Any]]] = {}
        self._cb_lock = threading.Lock()
        self._events: queue.SimpleQueue = queue.SimpleQueue()
        self._closed = threading.Event()
        for loop, name in (
            (self._read_loop, "session-reader"),
            (self._dispatch_loop, "session-events"),
        ):
            threading.Thread(target=loop, name=name, daemon=True).start()

    # -- connection -----------------------------------------------------------

    @classmethod
    def connect(cls, address: str, timeout_s: float = 5.0) -> "Session":
        host, port = parse_address(address)
        try:
            sock = socket.create_connection((host, port), timeout=timeout_s)
        except OSError as exc:
            raise ConnectionFailed(f"cannot connect to {address}: {exc}") from exc
        try:
            sock.settimeout(timeout_s)
            wire.send_frame(sock, wire.hello_frame())
            reply = wire.read_frame(sock)
            if "error" in reply:
                raise ProtocolMismatch(reply["error"].get("message", "handshake refused"))
            wire.check_hello(reply)
            sock.settimeout(None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except ProtocolMismatch:
            sock.close()
            raise
        except Exception as exc:
            sock.close()
            raise ConnectionFailed(f"handshake with {address} failed: {exc}") from exc
        return cls(sock, address)

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):
            self._sock.close()
        self._events.put(None)
        with self._pending_lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for p in pending:
            p.event.set()

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    # -- core call ---------------------------------------------------------------

    def call(self, op: str, params: dict[str, Any] | None = None) -> dict[str, Any]:
        if self._closed.is_set():
            raise SessionClosed(f"session to {self._peer} is closed")
        req_id = next(self._req_ids)
        pending = _Pending()
        with self._pending_lock:
            self._pending[req_id] = pending
        try:
            with self._send_lock:
                wire.send_frame(self._sock, wire.request(req_id, op, params or {}))
        except OSError as exc:
            with self._pending_lock:
                self._pending.pop(req_id, None)
            self.close()
            raise SessionClosed(f"send failed: {exc}") from exc
        pending.event.wait()
        if pending.response is None:
            raise SessionClosed(f"session to {self._peer} closed mid-call")
        resp = pending.response
        if resp.get("ok"):
            return resp.get("result") or {}
        err = resp.get("error") or {}
        raise from_code(err.get("code", "INTERNAL"), err.get("message", ""))

    # -- background loops -----------------------------------------------------------

    def _read_loop(self) -> None:
        try:
            while True:
                msg = wire.read_frame(self._sock)
                if "req_id" in msg:
                    with self._pending_lock:
                        pending = self._pending.pop(msg["req_id"], None)
                    if pending is not None:
                        pending.response = msg
                        pending.event.set()
                elif "subscription_id" in msg:
                    self._events.put(msg)
        except Exception:
            self.close()

    def _dispatch_loop(self) -> None:
        while True:
            msg = self._events.get()
            if msg is None:
                return
            sub_id = msg["subscription_id"]
            with self._cb_lock:
                callback = self._callbacks.get(sub_id)
                if callback is None:
                    # Event raced ahead of the subscribe response; hold it.
                    self._orphan_events.setdefault(sub_id, []).append(msg)
                    continue
            try:
                callback(msg["payload"])
            except Exception:
                log.exception("subscription callback failed")

    def _register_callback(
        self, sub_id: str, callback: Callable[[dict[str, Any]], None]
    ) -> None:
        with self._cb_lock:
            self._callbacks[sub_id] = callback
            held = self._orphan_events.pop(sub_id, [])
        for msg in held:
            self._events.put(msg)

    # -- typed helpers ------------------------------------------------------------------

    def write(
        self, entry: Entry, txn: str | None = None, lease_ms: int | None = None
    ) -> int:
        params: dict[str, Any] = {"entry": entry_to_wire(entry)}
        if txn is not None:
            params["txn"] = txn
        if lease_ms is not None:
            params["lease_ms"] = lease_ms
        return self.call("space.write", params)["seq"]

    def read(
        self, template: Template, txn: str | None = None, timeout_ms: int | None = 0
    ) -> Entry | None:
        return self._lookup("space.read", template, txn, timeout_ms)

    def take(
        self, template: Template, txn: str | None = None, timeout_ms: int | None = 0
    ) -> Entry | None:
        return self._lookup("space.take", template, txn, timeout_ms)

    def _lookup(
        self, op: str, template: Template, txn: str | None, timeout_ms: int | None
    ) -> Entry | None:
        params = {"template": template.to_wire(), "txn": txn, "timeout_ms": timeout_ms}
        raw = self.call(op, params).get("entry")
        return None if raw is None else entry_from_wire(raw)

    def subscribe(
        self,
        template: Template,
        callback: Callable[[int, Entry], None],
        txn: str | None = None,
    ) -> str:
        def on_event(payload: dict[str, Any]) -> None:
            callback(payload["seq"], entry_from_wire(payload["entry"]))

        result = self.call(
            "space.subscribe", {"template": template.to_wire(), "txn": txn}
        )
        sub_id = result["subscription_id"]
        self._register_callback(sub_id, on_event)
        return sub_id

    def txn_create(self, lease_ms: int) -> str:
        return self.call("txn.create", {"lease_ms": lease_ms})["txn_id"]

    def txn_renew(self, txn_id: str, lease_ms: int) -> None:
        self.call("txn.renew", {"txn_id": txn_id, "lease_ms": lease_ms})

    def txn_commit(self, txn_id: str) -> None:
        self.call("txn.commit", {"txn_id": txn_id})

    def txn_abort(self, txn_id: str) -> None:
        self.call("txn.abort", {"txn_id": txn_id})

    def txn_status(self, txn_id: str) -> TxnRecord:
        result = self.call("txn.status", {"txn_id": txn_id})
        return TxnRecord(**result, deadline=0.0)

    def admin_status(self, case_id: str | None = None) -> dict[str, Any]:
        params = {"case_id": case_id} if case_id else {}
        return self.call("admin.status", params)


class WireSpaceHandle:
    """Space access handed to agents; lazily opens its own session so agent
    reads never block the worker's control connection."""

    def __init__(self, address: str) -> None:
        self._address = address
        self._session: Session | None = None
        self._lock = threading.Lock()

    def _get(self) -> Session:
        with self._lock:
            if self._session is None or self._session.closed:
                self._session = Session.connect(self._address)
            return self._session

    def write(self, entry: Entry) -> int:
        return self._get().write(entry)

    def read(self, template: Template, timeout_ms: int | None = 0) -> Entry | None:
        return self._get().read(template, timeout_ms=timeout_ms)

    def close(self) -> None:
        with self._lock:
            if self._session is not None:
                self._session.close()
                self._session = None


class LocalSpaceHandle:
    """In-process equivalent of WireSpaceHandle for embedded/test use."""

    def __init__(self, core) -> None:
        self._core = core

    def write(self, entry: Entry) -> int:
        return self._core.write(entry)

    def read(self, template: Template, timeout_ms: int | None = 0) -> Entry | None:
        return self._core.read(template, timeout_ms=timeout_ms)
