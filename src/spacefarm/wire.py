"""Frame and message layer of the client/server protocol.

Each frame is a 4-byte big-endian length followed by that many bytes of UTF-8
JSON, one message per frame, capped at 64 MiB.  The first frame each way is
the hello {"hello": "spacefarm/6"}.  Requests carry a client-chosen req_id;
every request gets exactly one response with the same req_id.  Events are
unsolicited and carry a subscription_id instead.  An entry travels as one
flat JSON object whose bulk field is a single string: a task's or result's
Base64 payload, or a row block's space-separated values.  A transaction
belongs to the connection whose `txn.create` opened it: when that connection
closes, the server aborts it.  Any transaction id that is not open answers
TXN_NOT_OPEN.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any

from .errors import FrameTooLarge, ProtocolMismatch, SessionClosed

PROTOCOL = "spacefarm/6"
DEFAULT_PORT = 7420
MAX_FRAME = 64 * 1024 * 1024

_LEN = struct.Struct(">I")


def encode_frame(message: dict[str, Any]) -> bytes:
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise FrameTooLarge(f"frame body {len(body)} bytes exceeds {MAX_FRAME}")
    return _LEN.pack(len(body)) + body


def decode_frame(data: bytes) -> dict[str, Any]:
    """Decode one complete frame (length prefix included); for tests."""
    if len(data) < 4:
        raise ValueError("short frame")
    (length,) = _LEN.unpack(data[:4])
    if length > MAX_FRAME:
        raise FrameTooLarge(f"frame length {length} exceeds {MAX_FRAME}")
    if len(data) != 4 + length:
        raise ValueError("frame length mismatch")
    return json.loads(data[4:].decode("utf-8"))


def split_frames(buf: bytearray) -> list[dict[str, Any]]:
    """Remove every complete frame from the front of `buf` and decode it; a
    partial frame stays for the next read."""
    frames = []
    start = 0
    while len(buf) - start >= 4:
        (length,) = _LEN.unpack_from(buf, start)
        if length > MAX_FRAME:
            raise FrameTooLarge(f"frame length {length} exceeds {MAX_FRAME}")
        end = start + 4 + length
        if len(buf) < end:
            break
        frames.append(json.loads(buf[start + 4 : end].decode("utf-8")))
        start = end
    del buf[:start]
    return frames


def recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n > 0:
        chunk = sock.recv(min(n, 65536))
        if not chunk:
            raise SessionClosed("connection closed")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> dict[str, Any]:
    header = recv_exact(sock, 4)
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME:
        raise FrameTooLarge(f"frame length {length} exceeds {MAX_FRAME}")
    body = recv_exact(sock, length) if length else b""
    return json.loads(body.decode("utf-8"))


def send_frame(sock: socket.socket, message: dict[str, Any]) -> None:
    sock.sendall(encode_frame(message))


def hello_frame() -> dict[str, Any]:
    return {"hello": PROTOCOL}


def check_hello(message: dict[str, Any]) -> None:
    if message.get("hello") != PROTOCOL:
        raise ProtocolMismatch(
            f"expected hello {PROTOCOL!r}, got {message.get('hello')!r}"
        )


def request(req_id: int, op: str, params: dict[str, Any]) -> dict[str, Any]:
    return {"req_id": req_id, "op": op, "params": params}


def ok_response(req_id: int, result: Any) -> dict[str, Any]:
    return {"req_id": req_id, "ok": True, "result": result}


def error_response(req_id: int, code: str, message: str) -> dict[str, Any]:
    return {"req_id": req_id, "ok": False, "error": {"code": code, "message": message}}


def event(subscription_id: str, payload: dict[str, Any]) -> dict[str, Any]:
    return {"subscription_id": subscription_id, "payload": payload}
