"""Worker runtime: claim a task, run the agent, publish the result.

The worker owns each task transaction T and handles a part in one round
trip on its session, one pipelined batch: write the ResultEntry under T,
commit T, open the next claim's transaction C under an id the worker
chose, and take the oldest TaskEntry under C with timeout 0. The commit
consumes the task and publishes the result in one step, and ends T before
C opens. The take can name C because the server runs a connection's ops in
order. A task it returns runs under C at once; a miss falls back to a take
under C with no deadline, which is also the first claim. No case is named,
so the take is the mutual exclusion, the wake-up and a fair queue across
cases at once. A worker with an allow list constrains the take to its
agents, so it never claims a task it would refuse. The task carries the
part's data.

Every frame of a batch is encoded before any is sent, so a commit never
leaves without its write. A result too large to send abandons the attempt.

Each case's configuration and agent descriptor are cached per case until
the case's StopEntry event arrives. On a miss the worker reads the
configuration before it runs the agent, one more round trip per case, and
a task whose case has none is committed, which drops it.

A worker has one session. Its agents read and write the space through it
too: an agent's blocking read parks in the server as a waiter, so the
heartbeat's renewals on the same session still go through.

One heartbeat thread per session is the only renewer of T: at
CLAIM_LEASE_MS while the take waits, then at the task's lease, every third
of the lease T last got, so a worker that hangs is detected by expiry. T
belongs to the session: a worker that dies drops it, and the server aborts
T at once. Any abort, by expiry, by a dropped session, by the worker itself
or by an injected fault, restores the task, and the next free worker claims
it again. A worker whose renewal of T
failed abandons the task before the agent starts or after it ends. A task
whose payload does not decode fails like an agent: the worker aborts T, and
the master counts the restore toward max_attempts. A stop
aborts a waiting claim's T, which answers the take at once; a worker that
holds a task finishes or abandons it first, and its publish batch then
takes no next task.

Fault injection for the test harness is compiled in but dormant: the
SPACEFARM_FAULT environment variable arms hooks at two fixed phases of
execution, after-claim and before-result-write, with an action of kill,
pause:<ms>, or abort-txn. Each armed fault fires once per process.
before-result-write fires just before the publish batch, so an abort there
voids the result write.
"""

from __future__ import annotations

import contextlib
import logging
import os
import queue
import shutil
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from .agents import CASE_ID_PARAM, AgentDescriptor, resolve
from .client import (
    Session,
    WireSpaceHandle,
    commit_request,
    create_request,
    take_request,
    unwrap,
    write_request,
)
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
    FrameTooLarge,
    MalformedPayload,
    SessionClosed,
    SpacefarmError,
    TxnNotOpen,
    VersionMismatch,
)
from .execlog import ExecLog

log = logging.getLogger(__name__)

FAULT_ENV_VAR = "SPACEFARM_FAULT"
FAULT_PHASES = ("after-claim", "before-result-write")
FAULT_ACTIONS = ("kill", "pause", "abort-txn")
KILL_EXIT_CODE = 17

# A claimed task lives on this lease until the heartbeat's first renewal.
CLAIM_LEASE_MS = 1600


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


class _Heartbeat:
    """One thread per worker session: renews the transaction the worker
    holds every third of the lease it last got, and notes a renewal that
    failed."""

    def __init__(self, session: Session) -> None:
        self._session = session
        self._changed = threading.Condition()
        self._held: tuple[str, int] | None = None
        self._due = 0.0
        self._lost: str | None = None
        self._closed = False
        threading.Thread(target=self._run, name="task-heartbeat", daemon=True).start()

    def hold(self, txn: str, lease_ms: int) -> None:
        """A new transaction was just opened at `lease_ms`; the same one at a
        new lease keeps the time of its next renewal."""
        with self._changed:
            if self._held is None or self._held[0] != txn:
                self._due = time.monotonic() + lease_ms / 3000.0
                self._changed.notify()
            self._held = (txn, lease_ms)

    def lost(self, txn: str) -> bool:
        return self._lost == txn

    def close(self) -> None:
        with self._changed:
            self._closed = True
            self._changed.notify()

    def _run(self) -> None:
        # Renewing under the lock, a hold() waits out at most one round trip.
        with self._changed:
            while not self._closed:
                wait = None if self._held is None else self._due - time.monotonic()
                if wait is None or wait > 0:
                    self._changed.wait(wait)
                    continue
                txn, lease_ms = self._held
                self._due = time.monotonic() + lease_ms / 3000.0
                try:
                    self._session.txn_renew(txn, lease_ms)
                except SpacefarmError:
                    self._lost, self._held = txn, None


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
        self._claim = Template(
            "TaskEntry", {"agent_id": sorted(allowed_agents)} if allowed_agents else {}
        )
        self.worker_id = worker_id or new_entry_id()
        self.faults = injector if injector is not None else FaultInjector.from_env()
        self.execlog = execlog if execlog is not None else ExecLog.from_env()
        # Owned by the claiming thread; the stop-event callback only queues
        # the case, so a configuration read just before a case's stop event
        # cannot be cached after the event was handled.
        self._cases: dict[str, tuple[ConfigurationEntry, AgentDescriptor]] = {}
        self._stopped: queue.SimpleQueue[str] = queue.SimpleQueue()
        # The session and T of the waiting claim, which a stop aborts.
        self._parked: tuple[Session, str] | None = None

    # -- lifecycle ---------------------------------------------------------------

    def run(self, stop: threading.Event | None = None) -> None:
        stop = stop if stop is not None else threading.Event()
        self._reset_scratch()
        threading.Thread(
            target=self._abort_claim_on, args=(stop,), name="worker-stop", daemon=True
        ).start()
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

    def _reset_scratch(self) -> None:
        # The worker writes nothing here; the reset only sweeps what an
        # earlier run under this worker id left behind.
        mine = self.scratch_root / self.worker_id
        shutil.rmtree(mine, ignore_errors=True)
        mine.mkdir(parents=True, exist_ok=True)

    def _serve(self, session: Session, stop: threading.Event) -> None:
        session.subscribe(Template("StopEntry"), self._on_stop_event)
        self.execlog.emit("worker-started", worker_id=self.worker_id)
        heartbeat = _Heartbeat(session)
        try:
            txn: str | None = None
            task: TaskEntry | None = None  # taken under txn by the publish batch
            while not stop.is_set():
                if txn is None:
                    txn = session.txn_create(CLAIM_LEASE_MS)
                heartbeat.hold(txn, CLAIM_LEASE_MS)
                if task is None:
                    self._parked = (session, txn)
                    try:
                        if stop.is_set():
                            break  # set before the claim was parked
                        task = session.take(self._claim, txn, timeout_ms=None)
                    except TxnNotOpen:
                        txn = None  # expired, or aborted by a stop
                        continue
                    finally:
                        self._parked = None
                if stop.is_set():
                    break  # a stop may be aborting T already
                txn, task = self._execute(session, heartbeat, stop, task, txn) or (None, None)
            if txn is not None:
                # Abort an unused claim, or put back a task claimed as the stop came.
                with contextlib.suppress(SpacefarmError):
                    session.txn_abort(txn)
        finally:
            heartbeat.close()

    def _abort_claim_on(self, stop: threading.Event) -> None:
        stop.wait()
        parked = self._parked
        if parked is not None:
            with contextlib.suppress(SpacefarmError):
                parked[0].txn_abort(parked[1])

    def _on_stop_event(self, seq: int, fields: dict) -> None:
        self._stopped.put(fields["case_id"])
        self.execlog.emit(
            "case-stopped", worker_id=self.worker_id, case_id=fields["case_id"]
        )

    # -- execution -----------------------------------------------------------------

    def _execute(
        self, session: Session, heartbeat: _Heartbeat, stop: threading.Event,
        task: TaskEntry, txn: str,
    ) -> tuple[str, TaskEntry | None] | None:
        """Run a claimed task under T, with the heartbeat holding T; returns
        the transaction the publish batch opened for the next claim and the
        task it took under it, or None if the attempt ended before it."""
        self._emit("claimed", task, txn)
        self.faults.fire(
            "after-claim", self.execlog, session, txn,
            worker_id=self.worker_id, part_index=task.part_index,
        )
        # The heartbeat's next renewal extends T to the task's lease.
        heartbeat.hold(txn, task.lease_ms)
        while not self._stopped.empty():
            self._cases.pop(self._stopped.get(), None)
        case = self._cases.get(task.case_id)
        if case is None:
            config_template = Template("ConfigurationEntry", {"case_id": task.case_id})
            config = session.read(config_template)
            if config is None:
                # The case is over: committing drops the orphan task instead
                # of putting it back.
                return self._abandon(
                    session, task, txn, "configuration-missing", commit=True
                )
            try:
                case = (config, resolve(config.agent_id, config.agent_version))
            except (AgentNotFound, VersionMismatch) as exc:
                return self._abandon(session, task, txn, f"agent-unavailable: {exc}")
            self._cases[task.case_id] = case
        config, descriptor = case
        if heartbeat.lost(txn):
            return self._abandon(session, task, txn, "lease-lost")
        try:
            data = decode_payload(task.payload)
        except MalformedPayload as exc:
            return self._abandon(session, task, txn, f"malformed-payload: {exc}")
        self._emit("file-read", task, txn)
        params = dict(config.agent_params)
        params[CASE_ID_PARAM] = task.case_id
        try:
            output = descriptor.execute(data, params, WireSpaceHandle(session))
        except SpacefarmError as exc:
            return self._abandon(session, task, txn, f"agent-failure: {exc}")
        except Exception as exc:  # agent bug: replayable, not fatal
            return self._abandon(session, task, txn, f"agent-failure: {exc!r}")
        if heartbeat.lost(txn):
            return self._abandon(session, task, txn, "lease-lost")
        self.faults.fire(
            "before-result-write", self.execlog, session, txn,
            worker_id=self.worker_id, part_index=task.part_index,
        )
        result = ResultEntry(
            case_id=task.case_id,
            part_index=task.part_index,
            payload=encode_payload(output),
        )
        next_txn = new_entry_id()
        # A stopped worker takes no task that its abort would only put back.
        take = [] if stop.is_set() else [take_request(self._claim, next_txn)]
        try:
            written, committed, created, *taken = session.batch([
                write_request(result, txn),
                commit_request(txn),
                create_request(CLAIM_LEASE_MS, next_txn),
                *take,
            ])
        except FrameTooLarge:
            return self._abandon(session, task, txn, "result-too-large")
        try:
            unwrap([written, committed])
        except TxnNotOpen:
            self._abandon(session, task, txn, "lease-lost")
        else:
            # The commit is the mark now; the events keep their names
            # because exec-log readers pair them.
            for event in ("result-written", "computed-marked", "commit"):
                self._emit(event, task, txn)
        unwrap([created])
        # A take that missed, failed or was left out leaves the claim to a blocking take.
        next_task = taken[0] if taken else None
        return next_txn, None if isinstance(next_task, SpacefarmError) else next_task

    def _emit(self, event: str, task: TaskEntry, txn: str, **fields) -> None:
        self.execlog.emit(
            event,
            worker_id=self.worker_id,
            case_id=task.case_id,
            part_index=task.part_index,
            txn=txn,
            **fields,
        )

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
