"""In-memory spans around the calls into each spacefarm module.

A span is one call through a wrapped boundary: ``(span_id, parent_id, name,
start, end, extra)``. Times come from ``time.monotonic()``, which on Linux is
one clock for every process on the machine, so spans from the server, the
workers and the driver can be cut to the same measurement window. The parent
is the innermost wrapped call still running on the same thread, which is what
self time is computed from. Nothing is written until :meth:`Recorder.dump`.

Wrappers are installed by replacing attributes on the program's classes and
modules, so the program's own files stay untouched. ``install`` picks the
boundaries by process role:

* ``server``: space ops (with whether they parked), transaction ops, entry
  codec, frames, and thread starts;
* ``worker``: client calls, entry codec, frames, agent execution, and the
  agents' blocking row reads;
* ``master``: client calls, entry codec and frames of the driver's masters.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import threading
import time
from typing import Any, Callable

# Ops that may park on the server when called with a non-zero timeout.
PARKABLE_OPS = ("space.read", "space.take")


class Recorder:
    def __init__(self, role: str) -> None:
        self.role = role
        self.spans: list[tuple] = []
        self.stats_hook: Callable[[], dict[str, Any]] = dict
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        describe: Callable[[tuple, dict, Any], Any] | None = None,
    ) -> Callable:
        """Return ``fn`` wrapped so every call records one span.

        ``describe(args, kwargs, result)`` supplies the span's extra field; it
        runs after the end time is taken, so its cost is outside the span.
        """
        stack_of = self._stack
        ids = self._ids
        spans = self.spans

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else 0
            span_id = next(ids)
            stack.append(span_id)
            result = None
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                stack.pop()
                extra = describe(args, kwargs, result) if describe else None
                spans.append((span_id, parent, name, start, end, extra))

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"role": self.role, "spans": self.spans, "stats": self.stats_hook()},
                fh,
            )


def _wire_size(obj: Any) -> int:
    return len(json.dumps(obj, separators=(",", ":")))


def _codec_extra(obj: dict) -> list:
    """[kind, wire size]; the size only for a SchedulerEntry, else 0."""
    kind = obj.get("kind", "")
    return [kind, _wire_size(obj) if kind == "SchedulerEntry" else 0]


def _install_codec(rec: Recorder, module) -> None:
    module.entry_to_wire = rec.wrap(
        "entries.to_wire", module.entry_to_wire,
        lambda args, kwargs, result: _codec_extra(result or {}),
    )
    module.entry_from_wire = rec.wrap(
        "entries.from_wire", module.entry_from_wire,
        lambda args, kwargs, result: _codec_extra(args[0]),
    )


def _install_wire(rec: Recorder) -> None:
    from spacefarm import wire

    wire.encode_frame = rec.wrap(
        "wire.encode_frame", wire.encode_frame, lambda a, k, r: len(r) if r else 0
    )
    wire.read_frame = rec.wrap("wire.read_frame", wire.read_frame)


def _call_extra(args, kwargs, result):
    """[op, parkable, template kind, constrained by case_id]."""
    op = args[1]
    params = (args[2] if len(args) > 2 else kwargs.get("params")) or {}
    parkable = op in PARKABLE_OPS and params.get("timeout_ms", 0) != 0
    template = params.get("template") or {}
    return [
        op,
        parkable,
        template.get("kind", ""),
        "case_id" in (template.get("constraints") or {}),
    ]


def _install_client(rec: Recorder) -> None:
    from spacefarm import client

    client.Session.call = rec.wrap("client.call", client.Session.call, _call_extra)
    _install_codec(rec, client)
    _install_wire(rec)


def _install_server(rec: Recorder) -> None:
    from spacefarm import server, space, transactions

    local = threading.local()
    cond_wait = threading.Condition.wait

    def marking_wait(self, timeout=None):
        local.parked = True
        return cond_wait(self, timeout)

    threading.Condition.wait = marking_wait

    def lookup(name: str, fn: Callable) -> Callable:
        def describe(args, kwargs, result):
            return [bool(getattr(local, "parked", False)), result is not None]

        traced = rec.wrap(name, fn, describe)

        def lookup_op(*args, **kwargs):
            local.parked = False
            return traced(*args, **kwargs)

        return lookup_op

    core = space.SpaceCore
    core.read = lookup("space.read", core.read)
    core.take = lookup("space.take", core.take)
    for op in ("write", "subscribe", "commit_apply", "abort_apply"):
        setattr(core, op, rec.wrap(f"space.{op}", getattr(core, op)))
    manager = transactions.TxnManager
    for op in ("create", "renew", "commit", "abort", "status", "sweep"):
        setattr(manager, op, rec.wrap(f"transactions.{op}", getattr(manager, op)))
    threading.Thread.start = rec.wrap("server.thread_start", threading.Thread.start)

    servers = []
    init = server.SpaceServer.__init__

    def capturing_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        servers.append(self)

    server.SpaceServer.__init__ = capturing_init
    rec.stats_hook = lambda: _server_stats(servers)
    _install_codec(rec, server)
    _install_wire(rec)


def _server_stats(servers: list) -> dict[str, Any]:
    if not servers:
        return {}
    srv = servers[0]
    kinds: dict[str, int] = {}
    for _seq, _vis, _txn, entry in srv.space.snapshot():
        kinds[entry.kind] = kinds.get(entry.kind, 0) + 1
    records = getattr(srv.txns, "_records", None)
    return {
        "stored_entries": srv.space.stats()["stored"],
        "stored_by_kind": kinds,
        "txn_records": None if records is None else len(records),
    }


def _install_agents(rec: Recorder) -> None:
    from spacefarm import agents, client

    for agent_id in agents.registered_ids():
        descriptor = agents.resolve(agent_id, "1")
        agents.register(
            dataclasses.replace(
                descriptor,
                execute=rec.wrap(f"agents.execute.{agent_id}", descriptor.execute),
            )
        )
    client.WireSpaceHandle.read = rec.wrap(
        "agents.space_read",
        client.WireSpaceHandle.read,
        lambda a, k, r: a[1].kind,
    )


def install(role: str) -> Recorder:
    rec = Recorder(role)
    if role == "server":
        _install_server(rec)
    else:
        _install_client(rec)
        if role == "worker":
            _install_agents(rec)
    return rec
