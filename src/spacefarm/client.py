"""Client session for the space/transaction server.

A Session is one connection, safe to share between threads: calls are
matched to responses by req_id. Its one reader thread handles every frame in
stream order and runs a subscription's callback as its event arrives, so a
call returns only after the events that the server sent ahead of its answer
have been handled. Callbacks run on that thread, so, as in SpaceCore, they
only enqueue: they never block and never call the session. An event names
the entry, it does not carry it: the callback gets the entry's sequence
number and its kind and matchable fields, as in a JavaSpaces `notify`, and
a bulk field such as `payload` or `values` never crosses the wire twice.

`Session.batch` pipelines: it sends several requests in one write and then
waits for each answer in order, so a batch costs one round trip.  The server
runs one connection's requests in arrival order, so each op sees the effects
of the ops before it, and each gets its own result or its own error.  `call`
is a batch of one.
"""

from __future__ import annotations

import contextlib
import itertools
import logging
import socket
import threading
from typing import Any, Callable, NamedTuple

from . import wire
from .entries import Entry, Template, entry_from_wire, entry_to_wire
from .errors import (
    ConnectionFailed,
    ProtocolMismatch,
    SessionClosed,
    SpacefarmError,
    from_code,
)

log = logging.getLogger(__name__)


def parse_address(address: str) -> tuple[str, int]:
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"address must be host:port, got {address!r}")
    return host, int(port)


def _entry_or_none(result: dict[str, Any]) -> Entry | None:
    raw = result.get("entry")
    return None if raw is None else entry_from_wire(raw)


def unwrap(answers: list[Any]) -> list[Any]:
    """A batch's answers, raising the first error among them."""
    for answer in answers:
        if isinstance(answer, SpacefarmError):
            raise answer
    return answers


class Request(NamedTuple):
    """One op of a batch, with how its result is decoded."""

    op: str
    params: dict[str, Any]
    decode: Callable[[dict[str, Any]], Any]


def write_request(entry: Entry, txn: str | None = None) -> Request:
    params: dict[str, Any] = {"entry": entry_to_wire(entry)}
    if txn is not None:
        params["txn"] = txn
    return Request("space.write", params, lambda result: result["seq"])


def read_request(
    template: Template, txn: str | None = None, timeout_ms: int | None = 0
) -> Request:
    params = {"template": template.to_wire(), "txn": txn, "timeout_ms": timeout_ms}
    return Request("space.read", params, _entry_or_none)


def take_request(
    template: Template, txn: str | None = None, timeout_ms: int | None = 0
) -> Request:
    params = {"template": template.to_wire(), "txn": txn, "timeout_ms": timeout_ms}
    return Request("space.take", params, _entry_or_none)


def create_request(lease_ms: int, txn_id: str | None = None) -> Request:
    params = {"lease_ms": lease_ms, "txn_id": txn_id}
    return Request("txn.create", params, lambda result: result["txn_id"])


def commit_request(txn_id: str) -> Request:
    return Request("txn.commit", {"txn_id": txn_id}, lambda result: None)


class _Pending:
    __slots__ = ("event", "response", "on_event")

    def __init__(self, on_event: Callable[[dict[str, Any]], None] | None) -> None:
        self.event = threading.Event()
        self.response: dict[str, Any] | None = None
        self.on_event = on_event  # a subscribe's callback


class Session:
    """One connection to the server; closes cleanly on server loss."""

    def __init__(self, sock: socket.socket, peer: str) -> None:
        self._sock = sock
        self._peer = peer
        self._send_lock = threading.Lock()
        self._req_ids = itertools.count(1)
        self._pending: dict[int, _Pending] = {}
        self._pending_lock = threading.Lock()
        # Read and written by the reader thread only.
        self._callbacks: dict[str, Callable[[dict[str, Any]], None]] = {}
        self._closed = threading.Event()
        threading.Thread(
            target=self._read_loop, name="session-reader", daemon=True
        ).start()

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
        with self._pending_lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for p in pending:
            p.event.set()

    # -- core call ---------------------------------------------------------------

    def call(self, op: str, params: dict[str, Any] | None = None) -> dict[str, Any]:
        (answer,) = self._exchange([(op, params)])
        if isinstance(answer, SpacefarmError):
            raise answer
        return answer

    def batch(self, requests: list[Request]) -> list[Any]:
        """Send the requests in one write and wait for every answer, in order.

        Each slot holds its request's decoded result or its own
        SpacefarmError; a failed op does not stop the ops after it, because
        the server runs them all in arrival order.
        """
        answers = self._exchange([(r.op, r.params) for r in requests])
        return [
            answer if isinstance(answer, SpacefarmError) else request.decode(answer)
            for request, answer in zip(requests, answers)
        ]

    def _exchange(
        self,
        ops: list[tuple[str, dict[str, Any] | None]],
        on_event: Callable[[dict[str, Any]], None] | None = None,
    ) -> list[dict[str, Any] | SpacefarmError]:
        """With `on_event`, `ops` is one subscribe and `on_event` the
        callback of the subscription it opens."""
        if self._closed.is_set():
            raise SessionClosed(f"session to {self._peer} is closed")
        # Every frame is encoded before any is registered or sent, so a frame
        # too large to send leaves nothing behind and never sends the ops
        # around it, such as a commit without its write.
        waits: dict[int, _Pending] = {}
        frames = []
        for op, params in ops:
            req_id = next(self._req_ids)
            frames.append(wire.encode_frame(wire.request(req_id, op, params or {})))
            waits[req_id] = _Pending(on_event)
        with self._pending_lock:
            self._pending.update(waits)
        try:
            with self._send_lock:
                self._sock.sendall(b"".join(frames))
        except OSError as exc:
            with self._pending_lock:
                for req_id in waits:
                    self._pending.pop(req_id, None)
            self.close()
            raise SessionClosed(f"send failed: {exc}") from exc
        answers: list[dict[str, Any] | SpacefarmError] = []
        for pending in waits.values():
            pending.event.wait()
            resp = pending.response
            if resp is None:
                raise SessionClosed(f"session to {self._peer} closed mid-call")
            if resp.get("ok"):
                answers.append(resp.get("result") or {})
            else:
                err = resp.get("error") or {}
                code, message = err.get("code", "INTERNAL"), err.get("message", "")
                answers.append(from_code(code, message))
        return answers

    # -- reader ----------------------------------------------------------------------

    def _read_loop(self) -> None:
        try:
            while True:
                msg = wire.read_frame(self._sock)
                if "req_id" in msg:
                    with self._pending_lock:
                        pending = self._pending.pop(msg["req_id"], None)
                    if pending is None:
                        continue
                    if pending.on_event is not None and msg.get("ok"):
                        # The server sends no event of a subscription before
                        # the subscribe's answer; the callback is in place
                        # before the next frame is read.
                        sub_id = msg["result"]["subscription_id"]
                        self._callbacks[sub_id] = pending.on_event
                    pending.response = msg
                    pending.event.set()
                elif "subscription_id" in msg:
                    callback = self._callbacks.get(msg["subscription_id"])
                    if callback is None:
                        continue
                    try:
                        callback(msg["payload"])
                    except Exception:
                        log.exception("subscription callback failed")
        except Exception:
            self.close()

    # -- typed helpers ------------------------------------------------------------------

    def _one(self, request: Request) -> Any:
        return request.decode(self.call(request.op, request.params))

    def write(self, entry: Entry, txn: str | None = None) -> int:
        return self._one(write_request(entry, txn))

    def read(
        self, template: Template, txn: str | None = None, timeout_ms: int | None = 0
    ) -> Entry | None:
        return self._one(read_request(template, txn, timeout_ms))

    def take(
        self, template: Template, txn: str | None = None, timeout_ms: int | None = 0
    ) -> Entry | None:
        return self._one(take_request(template, txn, timeout_ms))

    def subscribe(
        self, template: Template, callback: Callable[[int, dict[str, Any]], None]
    ) -> str:
        """Call `callback(seq, fields)` for each entry that becomes globally
        visible and matches; `fields` holds the entry's kind and matchable
        fields."""

        def on_event(payload: dict[str, Any]) -> None:
            callback(payload["seq"], payload["fields"])

        params = {"template": template.to_wire()}
        (result,) = unwrap(self._exchange([("space.subscribe", params)], on_event))
        return result["subscription_id"]

    def txn_create(self, lease_ms: int) -> str:
        return self._one(create_request(lease_ms))

    def txn_renew(self, txn_id: str, lease_ms: int) -> None:
        self.call("txn.renew", {"txn_id": txn_id, "lease_ms": lease_ms})

    def txn_commit(self, txn_id: str) -> None:
        self._one(commit_request(txn_id))

    def txn_abort(self, txn_id: str) -> None:
        self.call("txn.abort", {"txn_id": txn_id})

    def admin_status(self, case_id: str | None = None) -> dict[str, Any]:
        params = {"case_id": case_id} if case_id else {}
        return self.call("admin.status", params)


class WireSpaceHandle:
    """Space access handed to agents, over the worker's own session. An
    agent's blocking read parks in the server as a waiter, so the session's
    other calls, such as the heartbeat's renewals, still go through."""

    def __init__(self, session: Session) -> None:
        self._session = session

    def write(self, entry: Entry) -> int:
        return self._session.write(entry)

    def read(self, template: Template, timeout_ms: int | None = 0) -> Entry | None:
        return self._session.read(template, timeout_ms=timeout_ms)
