"""Worker runtime: claim a task, run the agent, publish the result.

The worker owns each task transaction T. It claims with one blocking take of
the oldest TaskEntry under T, with no case in the template, so the take is
the mutual exclusion, the wake-up and a fair queue across cases at once. It
then takes the part's FileEntry under T, runs the agent, writes the
ResultEntry under T and commits: the task and the file are consumed and the
result published in one step. T is renewed at the task's lease as soon as
the task is claimed, then by a heartbeat every third of the lease, so a dead
worker is detected by expiry. Any abort, by expiry, by the worker itself or
by an injected fault, restores the task and the file, and the next free
worker claims them again.

An idle worker keeps one claim transaction across empty claims and renews it
after each, so waiting for work opens no transactions.

Fault injection for the test harness is compiled in but dormant: the
SPACEFARM_FAULT environment variable arms hooks at fixed phases of
execution (after-claim, after-file-read, before-result-write,
before-computed-mark) with an action of kill, pause:<ms>, or abort-txn.
Each armed fault fires once per process.
"""

from __future__ import annotations

import logging
import os
import shutil
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from .agents import CASE_ID_PARAM, AgentDescriptor, resolve
from .client import Session, WireSpaceHandle
from .entries import (
    ConfigurationEntry,
    ResultEntry,
    TaskEntry,
    Template,
    decode_payload,
    encode_payload,
    new_entry_id,
)
from .errors import (
    AgentNotFound,
    ConfigError,
    ConnectionFailed,
    SessionClosed,
    SpacefarmError,
    TxnNotOpen,
    UnknownTxn,
    VersionMismatch,
)
from .execlog import ExecLog

log = logging.getLogger(__name__)

FAULT_ENV_VAR = "SPACEFARM_FAULT"
FAULT_PHASES = (
    "after-claim",
    "after-file-read",
    "before-result-write",
    "before-computed-mark",  # just before the commit
)
FAULT_ACTIONS = ("kill", "pause", "abort-txn")
KILL_EXIT_CODE = 17

CLAIM_WAIT_MS = 800
# Outlasts one claim wait with room to spare, so the claim transaction is
# still open when the worker renews it at the task's lease.
CLAIM_LEASE_MS = 2 * CLAIM_WAIT_MS


@dataclass
class _Fault:
    phase: str
    action: str
    pause_ms: int = 0
    fired: bool = False


class FaultInjector:
    def __init__(self, faults: list[_Fault] | None = None) -> None:
        self._faults = faults or []

    @classmethod
    def from_env(cls) -> "FaultInjector":
        spec = os.environ.get(FAULT_ENV_VAR, "")
        faults = [cls._parse(tok) for tok in spec.split(";") if tok.strip()]
        return cls(faults)

    @staticmethod
    def _parse(token: str) -> _Fault:
        fields = token.strip().split(":")
        if len(fields) < 2:
            raise ConfigError(f"fault must be phase:action[:ms], got {token!r}")
        phase, action = fields[0], fields[1]
        if phase not in FAULT_PHASES:
            raise ConfigError(f"unknown fault phase {phase!r}")
        if action not in FAULT_ACTIONS:
            raise ConfigError(f"unknown fault action {action!r}")
        pause_ms = 0
        if action == "pause":
            if len(fields) != 3:
                raise ConfigError(f"pause fault needs a duration: {token!r}")
            pause_ms = int(fields[2])
        return _Fault(phase=phase, action=action, pause_ms=pause_ms)

    def fire(
        self,
        phase: str,
        execlog: ExecLog,
        session: Session | None = None,
        txn: str | None = None,
        **context,
    ) -> None:
        for fault in self._faults:
            if fault.fired or fault.phase != phase:
                continue
            fault.fired = True
            execlog.emit("fault", phase=phase, action=fault.action, **context)
            if fault.action == "kill":
                os._exit(KILL_EXIT_CODE)  # simulated crash: no cleanup at all
            elif fault.action == "pause":
                time.sleep(fault.pause_ms / 1000.0)
            elif fault.action == "abort-txn" and session is not None and txn:
                try:
                    session.txn_abort(txn)
                except SpacefarmError:
                    pass


class Worker:
    def __init__(
        self,
        space_address: str,
        scratch_dir: str,
        allowed_agents: list[str] | None = None,
        worker_id: str | None = None,
        injector: FaultInjector | None = None,
        execlog: ExecLog | None = None,
    ) -> None:
        self.space_address = space_address
        self.scratch_root = Path(scratch_dir)
        self.allowed_agents = set(allowed_agents) if allowed_agents else None
        self.worker_id = worker_id or new_entry_id()
        self.faults = injector if injector is not None else FaultInjector.from_env()
        self.execlog = execlog if execlog is not None else ExecLog.from_env()
        self._agent_cache: dict[str, AgentDescriptor] = {}
        self._handle: WireSpaceHandle | None = None

    # -- lifecycle ---------------------------------------------------------------

    def run(self, stop: threading.Event | None = None) -> None:
        stop = stop if stop is not None else threading.Event()
        self._reset_scratch()
        backoff = 0.5
        while not stop.is_set():
            try:
                session = Session.connect(self.space_address)
            except ConnectionFailed:
                stop.wait(backoff)
                backoff = min(backoff * 2, 8.0)
                continue
            backoff = 0.5
            try:
                self._serve(session, stop)
            except (SessionClosed, ConnectionFailed):
                continue  # server went away; reconnect and resubscribe
            finally:
                session.close()
        if self._handle is not None:
            self._handle.close()

    def _reset_scratch(self) -> None:
        # The worker writes nothing here; the reset only sweeps what an
        # earlier run under this worker id left behind.
        mine = self.scratch_root / self.worker_id
        shutil.rmtree(mine, ignore_errors=True)
        mine.mkdir(parents=True, exist_ok=True)

    def _serve(self, session: Session, stop: threading.Event) -> None:
        session.subscribe(Template("StopEntry"), self._on_stop_event)
        self.execlog.emit("worker-started", worker_id=self.worker_id)
        txn: str | None = None
        while not stop.is_set():
            try:
                if txn is None:
                    txn = session.txn_create(CLAIM_LEASE_MS)
                else:
                    session.txn_renew(txn, CLAIM_LEASE_MS)
                task = session.take(
                    Template("TaskEntry"), txn=txn, timeout_ms=CLAIM_WAIT_MS
                )
            except (TxnNotOpen, UnknownTxn):
                txn = None  # the claim transaction expired; open another
                continue
            if task is not None:
                self._execute(session, task, txn)
                txn = None

    def _on_stop_event(self, seq: int, entry) -> None:
        self._agent_cache.pop(entry.case_id, None)
        self.execlog.emit(
            "case-stopped", worker_id=self.worker_id, case_id=entry.case_id
        )

    # -- execution -----------------------------------------------------------------

    def _execute(self, session: Session, task: TaskEntry, txn: str) -> None:
        self._emit("claimed", task, txn)
        try:
            # T was opened with the short claim lease; from the claim on it
            # carries the task's lease.
            session.txn_renew(txn, task.lease_ms)
        except (TxnNotOpen, UnknownTxn):
            return self._abandon(session, task, txn, "lease-lost")
        stop_hb = threading.Event()
        lease_lost = threading.Event()
        heartbeat = threading.Thread(
            target=self._heartbeat,
            args=(session, txn, task.lease_ms, stop_hb, lease_lost),
            name="task-heartbeat",
            daemon=True,
        )
        heartbeat.start()
        try:
            self.faults.fire(
                "after-claim", self.execlog, session, txn,
                worker_id=self.worker_id, part_index=task.part_index,
            )
            config = session.read(
                Template("ConfigurationEntry", {"case_id": task.case_id})
            )
            if config is None:
                # The case is over: committing drops the orphan task instead
                # of putting it back.
                return self._abandon(
                    session, task, txn, "configuration-missing", commit=True
                )
            if (
                self.allowed_agents is not None
                and config.agent_id not in self.allowed_agents
            ):
                return self._abandon(session, task, txn, "agent-not-allowed")
            try:
                descriptor = self._agent_for(config)
            except (AgentNotFound, VersionMismatch) as exc:
                return self._abandon(session, task, txn, f"agent-unavailable: {exc}")
            try:
                file_entry = session.take(
                    Template(
                        "FileEntry",
                        {"case_id": task.case_id, "part_index": task.part_index},
                    ),
                    txn=txn,
                )
            except (TxnNotOpen, UnknownTxn):
                return self._abandon(session, task, txn, "lease-lost")
            if file_entry is None:
                return self._abandon(session, task, txn, "file-entry-missing")
            self.faults.fire(
                "after-file-read", self.execlog, session, txn,
                worker_id=self.worker_id, part_index=task.part_index,
            )
            data = decode_payload(file_entry.payload)
            self._emit("file-read", task, txn)
            params = dict(config.agent_params)
            params[CASE_ID_PARAM] = task.case_id
            try:
                output = descriptor.execute(data, params, self._space_handle())
            except SpacefarmError as exc:
                return self._abandon(session, task, txn, f"agent-failure: {exc}")
            except Exception as exc:  # agent bug: replayable, not fatal
                return self._abandon(session, task, txn, f"agent-failure: {exc!r}")
            if lease_lost.is_set():
                return self._abandon(session, task, txn, "lease-lost")
            self.faults.fire(
                "before-result-write", self.execlog, session, txn,
                worker_id=self.worker_id, part_index=task.part_index,
            )
            try:
                session.write(
                    ResultEntry(
                        case_id=task.case_id,
                        part_index=task.part_index,
                        entry_id=new_entry_id(),
                        payload=encode_payload(output),
                    ),
                    txn=txn,
                )
            except (TxnNotOpen, UnknownTxn):
                return self._abandon(session, task, txn, "lease-lost")
            self._emit("result-written", task, txn)
            self.faults.fire(
                "before-computed-mark", self.execlog, session, txn,
                worker_id=self.worker_id, part_index=task.part_index,
            )
            # The commit is the mark now; the event keeps its name because
            # exec-log readers pair it with result-written and commit.
            self._emit("computed-marked", task, txn)
            try:
                session.txn_commit(txn)
            except (TxnNotOpen, UnknownTxn):
                return self._abandon(session, task, txn, "lease-lost")
            self._emit("commit", task, txn)
        finally:
            stop_hb.set()

    def _emit(self, event: str, task: TaskEntry, txn: str, **fields) -> None:
        self.execlog.emit(
            event,
            worker_id=self.worker_id,
            case_id=task.case_id,
            part_index=task.part_index,
            txn=txn,
            **fields,
        )

    def _agent_for(self, config: ConfigurationEntry) -> AgentDescriptor:
        cached = self._agent_cache.get(config.case_id)
        if cached is not None:
            return cached
        descriptor = resolve(config.agent_id, config.agent_version)
        self._agent_cache[config.case_id] = descriptor
        return descriptor

    def _space_handle(self) -> WireSpaceHandle:
        # Agents may block on reads mid-execution; give them their own
        # connection so the control session stays responsive.
        if self._handle is None:
            self._handle = WireSpaceHandle(self.space_address)
        return self._handle

    def _heartbeat(
        self,
        session: Session,
        txn: str,
        lease_ms: int,
        stop: threading.Event,
        lease_lost: threading.Event,
    ) -> None:
        period = max(lease_ms / 3.0 / 1000.0, 0.05)
        while not stop.wait(period):
            try:
                session.txn_renew(txn, lease_ms)
            except SpacefarmError:
                lease_lost.set()
                return

    def _abandon(
        self,
        session: Session,
        task: TaskEntry,
        txn: str,
        reason: str,
        commit: bool = False,
    ) -> None:
        """End the attempt: an abort puts the task back, a commit drops it."""
        try:
            if commit:
                session.txn_commit(txn)
            else:
                session.txn_abort(txn)
        except SpacefarmError:
            pass
        self._emit("task-abandoned", task, txn, reason=reason)
