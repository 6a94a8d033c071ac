"""Case master: cuts the input, feeds tasks through the space, collects
results, counts replays, and assembles the output.

The master writes each part's TaskEntry once, outside any transaction, with
the part's data in it. A worker claims a task by taking it under its own
transaction, writes the ResultEntry under the same transaction, and commits:
one step consumes the task and publishes the result. A part has one task
entry and only one commit can consume it, so each part is committed exactly
once. A crash, a lease expiry or an explicit abort restores the task with its
original sequence number; that restore is the replay, and the master has
nothing to re-feed.

The master cuts the input and feeds every part in one pipelined batch: the
case's ConfigurationEntry, then every TaskEntry, go out in one send and cost
one round trip. The server runs a connection's ops in order, so no task is
visible before its configuration. The master then takes each ResultEntry of
the case as a commit publishes it, keeping the result in memory, and follows
a subscription to the case's TaskEntry on the same session. An event
carries the task's part_index but not its data. The first TaskEntry event
for a part is the master's own feed; every later one is a restore, so it
counts as one replay and one failed attempt toward max_attempts. Every
restore of a part comes before the commit that publishes its result, the
server sends both on the master's one connection in that order, and the
session handles the event before the take returns the result; so once the
last result is taken, every replay has been counted.

A case ends, finished or failed, the same way. One batch takes the
configuration back, writes the case's StopEntry and takes it again: workers
cache each case's configuration and drop it on the StopEntry's write event,
and nothing reads the entry, so it lives for one batch. A task of a failed
case claimed afterwards finds no configuration and is dropped. The master
then asks the server how many entries the case still has and takes exactly
those, in one more batch.
"""

from __future__ import annotations

import contextlib
import json
import queue
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .agents import AgentDescriptor, resolve
from .client import Session, take_request, unwrap, write_request
from .cuts import STRATEGIES, cut
from .entries import (
    ConfigurationEntry,
    StopEntry,
    TaskEntry,
    Template,
    decode_payload,
    encode_payload,
)
from .errors import (
    AgentNotFound,
    ConfigError,
    ConnectionFailed,
    CutFailed,
    MaxAttemptsExceeded,
    SpacefarmError,
    SpaceUnreachable,
    VersionMismatch,
)
from .execlog import ExecLog
from .transactions import MIN_LEASE_MS

# How long one take for a result waits before the master looks at the restore
# events that came in meanwhile.
RESULT_WAIT_MS = 500

_REQUIRED_KEYS = (
    "case_id",
    "space_address",
    "agent_id",
    "agent_version",
    "agent_params",
    "input_path",
    "output_path",
    "cut_strategy",
    "num_parts",
    "initial_workers",
    "task_lease_ms",
)


@dataclass
class CaseConfig:
    case_id: str
    space_address: str
    agent_id: str
    agent_version: str
    agent_params: dict
    input_path: str
    output_path: str
    cut_name: str
    cut_params: dict
    num_parts: int
    initial_workers: int
    task_lease_ms: int
    max_attempts: int = 5
    tmp_dir: str | None = None  # unused: parts travel only through the space

    @classmethod
    def from_json(cls, text: str) -> "CaseConfig":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
        for key in _REQUIRED_KEYS:
            if key not in obj:
                raise ConfigError(f"missing config key: {key}")
        cut_strategy = obj["cut_strategy"]
        if not isinstance(cut_strategy, dict) or "name" not in cut_strategy:
            raise ConfigError("cut_strategy must be an object with a name")
        config = cls(
            case_id=str(obj["case_id"]),
            space_address=str(obj["space_address"]),
            agent_id=str(obj["agent_id"]),
            agent_version=str(obj["agent_version"]),
            agent_params=dict(obj["agent_params"] or {}),
            input_path=str(obj["input_path"]),
            output_path=str(obj["output_path"]),
            cut_name=str(cut_strategy["name"]),
            cut_params=dict(cut_strategy.get("params") or {}),
            num_parts=int(obj["num_parts"]),
            initial_workers=int(obj["initial_workers"]),
            task_lease_ms=int(obj["task_lease_ms"]),
            max_attempts=int(obj.get("max_attempts", 5)),
            tmp_dir=obj.get("tmp_dir"),
        )
        config.validate()
        return config

    @classmethod
    def from_file(cls, path: str) -> "CaseConfig":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_json(text)

    def validate(self) -> None:
        if not self.case_id:
            raise ConfigError("case_id must not be empty")
        if self.num_parts < 1:
            raise ConfigError(f"num_parts must be >= 1, got {self.num_parts}")
        if self.initial_workers < 1:
            raise ConfigError(
                f"initial_workers must be >= 1, got {self.initial_workers}"
            )
        if self.task_lease_ms < MIN_LEASE_MS:
            raise ConfigError(
                f"task_lease_ms must be >= {MIN_LEASE_MS}, got {self.task_lease_ms}"
            )
        if self.max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.cut_name not in STRATEGIES:
            raise ConfigError(f"unknown cut strategy {self.cut_name!r}")
        if self.cut_name == "cholesky_rowblock" and self.initial_workers < self.num_parts:
            raise ConfigError(
                "row-partitioned factorization deadlocks unless initial_workers "
                f">= num_parts ({self.initial_workers} < {self.num_parts})"
            )


@dataclass
class CaseReport:
    case_id: str
    parts: int
    results: int
    replays: int
    elapsed_ms: int
    output_path: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "case_id": self.case_id,
                "parts": self.parts,
                "results": self.results,
                "replays": self.replays,
                "elapsed_ms": self.elapsed_ms,
                "output_path": self.output_path,
            },
            sort_keys=True,
        )


class Master:
    def __init__(self, config: CaseConfig, execlog: ExecLog | None = None) -> None:
        config.validate()
        self.config = config
        self.execlog = execlog if execlog is not None else ExecLog.from_env()
        try:
            self.descriptor: AgentDescriptor = resolve(
                config.agent_id, config.agent_version
            )
        except (AgentNotFound, VersionMismatch) as exc:
            raise ConfigError(str(exc)) from exc
        self._session: Session | None = None
        # Part indexes of the case's TaskEntry events: each part's feed, then
        # its restores.
        self._task_events: queue.SimpleQueue = queue.SimpleQueue()
        self._events_per_part: Counter[int] = Counter()
        self._results: dict[int, bytes] = {}
        self._replays = 0

    # -- setup --------------------------------------------------------------------

    def run(self) -> CaseReport:
        cfg = self.config
        started = time.monotonic()
        try:
            data = Path(cfg.input_path).read_bytes()
        except OSError as exc:
            raise CutFailed(f"cannot read input {cfg.input_path}: {exc}") from exc
        try:
            parts = cut(cfg.cut_name, data, cfg.num_parts, cfg.cut_params)
        except SpacefarmError:
            raise
        except Exception as exc:  # a strategy bug fails the case like bad input
            raise CutFailed(str(exc)) from exc
        self._session = self._connect()
        with contextlib.closing(self._session):
            self._announce_case()
            try:
                self._feed(parts)
            except SpacefarmError as exc:
                self._fail_case(exc)
            self._event_loop()
            elapsed_ms = int((time.monotonic() - started) * 1000)
            report = CaseReport(
                case_id=cfg.case_id,
                parts=cfg.num_parts,
                results=len(self._results),
                replays=self._replays,
                elapsed_ms=elapsed_ms,
                output_path=cfg.output_path,
            )
            self.execlog.emit(
                "case-finished",
                case_id=cfg.case_id,
                results=report.results,
                replays=report.replays,
            )
            return report

    def _connect(self) -> Session:
        try:
            return Session.connect(self.config.space_address)
        except ConnectionFailed as exc:
            raise SpaceUnreachable(str(exc)) from exc

    def _announce_case(self) -> None:
        self._session.subscribe(
            Template("TaskEntry", {"case_id": self.config.case_id}),
            lambda seq, fields: self._task_events.put(fields["part_index"]),
        )

    # -- feeding ---------------------------------------------------------------------

    def _feed(self, parts: list[bytes]) -> None:
        cfg = self.config
        # First in the batch, so a worker that claims a task of this case
        # finds the configuration without waiting.
        configuration = ConfigurationEntry(
            case_id=cfg.case_id,
            agent_id=cfg.agent_id,
            agent_version=cfg.agent_version,
            agent_params=dict(cfg.agent_params),
        )
        requests = [write_request(configuration)]
        for index, blob in enumerate(parts):
            task = TaskEntry(
                case_id=cfg.case_id,
                part_index=index,
                lease_ms=cfg.task_lease_ms,
                agent_id=cfg.agent_id,
                payload=encode_payload(blob),
            )
            requests.append(write_request(task))
            # Emitted before the batch goes out, so a part's latency is
            # timed from no later than its write.
            self.execlog.emit("feed", case_id=cfg.case_id, part_index=index, txn=None)
        unwrap(self._session.batch(requests))

    # -- event loop --------------------------------------------------------------------

    def _event_loop(self) -> None:
        cfg = self.config
        # A take, not a subscription: an event would carry the result's
        # payload once more before the take that removes it.
        results = Template("ResultEntry", {"case_id": cfg.case_id})
        while len(self._results) < cfg.num_parts:
            result = self._session.take(results, timeout_ms=RESULT_WAIT_MS)
            if result is not None:
                self._results[result.part_index] = decode_payload(result.payload)
            while not self._task_events.empty():
                self._on_task_event(self._task_events.get())
        self._finish_case()

    # -- restore handling --------------------------------------------------------------

    def _on_task_event(self, index: int) -> None:
        cfg = self.config
        self._events_per_part[index] += 1
        failed = self._events_per_part[index] - 1
        if failed == 0:
            return  # the feed itself
        self._replays += 1
        self.execlog.emit(
            "abort-observed", case_id=cfg.case_id, part_index=index, attempts=failed
        )
        if failed >= cfg.max_attempts:
            self._fail_case(
                MaxAttemptsExceeded(
                    f"part {index} failed {failed} times (limit {cfg.max_attempts})"
                )
            )

    # -- termination -------------------------------------------------------------------

    def _finish_case(self) -> None:
        cfg = self.config
        self._end_case(0)
        output = Path(cfg.output_path)
        output.parent.mkdir(parents=True, exist_ok=True)
        results = [self._results[index] for index in range(cfg.num_parts)]
        output.write_bytes(self.descriptor.assemble(results))

    def _fail_case(self, error: SpacefarmError) -> None:
        # Attempts already running end on their own within one lease.
        with contextlib.suppress(SpacefarmError):
            self._end_case(self.config.task_lease_ms / 1000.0)
        self.execlog.emit("case-failed", case_id=self.config.case_id, error=str(error))
        raise error

    def _end_case(self, wait_s: float) -> None:
        """Stop the case and take every entry it left in the space.

        Without its configuration no worker runs the case's tasks again: the
        stop event makes workers drop their cached copy, and a worker that
        then claims one of its tasks commits, which drops it. While a task is
        held, its attempt may still restore it or publish its result; the
        count and the takes repeat every 50 ms, for at most `wait_s`.  A
        take that misses lost its task to a claim, so it counts as held.
        """
        case = {"case_id": self.config.case_id}
        unwrap(self._session.batch([
            take_request(Template("ConfigurationEntry", case)),
            write_request(StopEntry(**case)),
            take_request(Template("StopEntry", case)),
        ]))
        deadline = time.monotonic() + wait_s
        while True:
            counts = self._session.admin_status(case["case_id"])["case"]
            tasks = counts["tasks"]
            left = (
                ("TaskEntry", tasks["wait"]),
                ("ResultEntry", tasks["computed"]),
                ("RowEntry", counts["row_entries"]),
            )
            takes = [
                take_request(Template(kind, case))
                for kind, count in left
                for _ in range(count)
            ]
            answers = unwrap(self._session.batch(takes)) if takes else []
            settled = not tasks["on"] and None not in answers
            if settled or time.monotonic() >= deadline:
                return
            time.sleep(0.05)
