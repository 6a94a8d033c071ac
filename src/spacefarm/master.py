"""Case master: cuts the input, feeds tasks through the space, collects
results, replays aborted work, and assembles the output.

Two activities share one part-record table behind a lock: the feeder (cuts
the input, writes each part file into the temporary directory and feeds it
straight away) and the main event loop (computed marks, aborts, timed
replays).

Each attempt at a part is one task transaction T. Feeding writes the part's
FileEntry under T and a waiting TaskEntry naming T outside any transaction,
so a worker claims it with one plain take. The worker's ResultEntry lands
under T, and the master's final take of result, file and computed task entry
runs under T, so a crash or expiry anywhere voids the whole attempt and the
part is simply fed again. The abort handler takes whatever task entries the
dead attempt left behind; a waiting entry is never taken under a
transaction, so no abort can put a stale task back in the bag.
"""

from __future__ import annotations

import heapq
import json
import logging
import queue
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from .agents import AgentDescriptor, resolve
from .client import Session
from .cuts import STRATEGIES, cut
from .entries import (
    ConfigurationEntry,
    FileEntry,
    StopEntry,
    TaskEntry,
    TaskState,
    Template,
    decode_payload,
    encode_payload,
    new_entry_id,
)
from .errors import (
    AgentNotFound,
    ConfigError,
    ConnectionFailed,
    CutFailed,
    MaxAttemptsExceeded,
    SpacefarmError,
    SpaceUnreachable,
    TxnNotOpen,
    UnknownTxn,
    VersionMismatch,
)
from .execlog import ExecLog
from .transactions import MIN_LEASE_MS

log = logging.getLogger(__name__)

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
    backoff_base_ms: int = 1_000
    tmp_dir: str | None = None
    startup_grace_ms: int = 10_000

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
            backoff_base_ms=int(obj.get("backoff_base_ms", 1_000)),
            tmp_dir=obj.get("tmp_dir"),
            startup_grace_ms=int(obj.get("startup_grace_ms", 10_000)),
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
class PartRecord:
    part_index: int
    local_path: Path
    txn_id: str | None = None
    attempts: int = 0
    completed: bool = False


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


@dataclass
class _CaseFailure:
    error: SpacefarmError


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
        self._lock = threading.Lock()
        self._records: dict[int, PartRecord] = {}
        self._by_txn: dict[str, int] = {}
        self._events: queue.Queue = queue.Queue()
        self._over = threading.Event()
        self._completed = 0
        self._replays = 0
        self._parts_dir: Path | None = None
        self._results_dir: Path | None = None

    # -- setup --------------------------------------------------------------------

    def run(self) -> CaseReport:
        cfg = self.config
        started = time.monotonic()
        try:
            data = Path(cfg.input_path).read_bytes()
        except OSError as exc:
            raise CutFailed(f"cannot read input {cfg.input_path}: {exc}") from exc
        try:
            self._session = Session.connect(cfg.space_address)
        except ConnectionFailed as exc:
            raise SpaceUnreachable(str(exc)) from exc
        try:
            self._prepare_directories()
            self._announce_case()
            threading.Thread(
                target=self._cut_and_feed,
                args=(data,),
                name="master-feeder",
                daemon=True,
            ).start()
            try:
                self._event_loop(started)
            finally:
                self._over.set()
            elapsed_ms = int((time.monotonic() - started) * 1000)
            report = CaseReport(
                case_id=cfg.case_id,
                parts=cfg.num_parts,
                results=self._completed,
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
        finally:
            self._over.set()
            self._session.close()

    def _prepare_directories(self) -> None:
        cfg = self.config
        tmp_root = Path(cfg.tmp_dir) if cfg.tmp_dir else Path(tempfile.gettempdir())
        self._parts_dir = tmp_root / cfg.case_id
        self._parts_dir.mkdir(parents=True, exist_ok=True)
        self._results_dir = Path(cfg.output_path).parent / cfg.case_id
        self._results_dir.mkdir(parents=True, exist_ok=True)
        # Stale files from an earlier run of the same case id must not be
        # fed or counted as fresh results.
        for stale in self._parts_dir.glob("part-*.bin"):
            stale.unlink()
        for stale in self._results_dir.glob("result-*.bin"):
            stale.unlink()

    def _announce_case(self) -> None:
        cfg = self.config
        session = self._session
        session.subscribe(
            Template(
                "TaskEntry", {"case_id": cfg.case_id, "state": TaskState.COMPUTED}
            ),
            lambda seq, entry: self._events.put(("computed", entry)),
        )
        session.subscribe_aborts(
            lambda txn_id, tag: self._events.put(("abort", txn_id)),
            tag=cfg.case_id,
        )
        session.write(
            ConfigurationEntry(
                case_id=cfg.case_id,
                agent_id=cfg.agent_id,
                agent_version=cfg.agent_version,
                agent_params=dict(cfg.agent_params),
                num_parts=cfg.num_parts,
            )
        )

    # -- feeder ----------------------------------------------------------------------

    def _cut_and_feed(self, data: bytes) -> None:
        cfg = self.config
        try:
            parts = cut(cfg.cut_name, data, cfg.num_parts, cfg.cut_params)
        except Exception as exc:
            self._events.put(("cut-error", exc))
            return
        for index, blob in enumerate(parts):
            if self._over.is_set():
                return
            # Refeeds read the part back from disk.
            (self._parts_dir / f"part-{index}.bin").write_bytes(blob)
            try:
                self._feed_part(index)
            except SpacefarmError as exc:
                self._events.put(("feed-error", exc))
                return

    def _feed_part(self, index: int) -> None:
        cfg = self.config
        session = self._session
        path = self._parts_dir / f"part-{index}.bin"
        blob = path.read_bytes()
        txn = session.txn_create(cfg.task_lease_ms, tag=cfg.case_id)
        with self._lock:
            rec = self._records.setdefault(index, PartRecord(index, path))
            if rec.txn_id is not None:
                self._by_txn.pop(rec.txn_id, None)
            rec.txn_id = txn
            rec.attempts += 1
            self._by_txn[txn] = index
            attempts = rec.attempts
        session.write(
            FileEntry(
                case_id=cfg.case_id,
                part_index=index,
                entry_id=new_entry_id(),
                payload=encode_payload(blob),
            ),
            txn=txn,
        )
        session.write(
            TaskEntry(
                case_id=cfg.case_id,
                part_index=index,
                txn_id=txn,
                enqueued_at=int(time.time() * 1000),
            )
        )
        self.execlog.emit(
            "feed", case_id=cfg.case_id, part_index=index, txn=txn, attempts=attempts
        )

    # -- event loop --------------------------------------------------------------------

    def _event_loop(self, started: float) -> None:
        cfg = self.config
        refeeds: list[tuple[float, int]] = []
        grace_deadline = started + cfg.startup_grace_ms / 1000.0
        grace_checked = False
        failure: SpacefarmError | None = None

        while True:
            now = time.monotonic()
            while refeeds and refeeds[0][0] <= now:
                _, index = heapq.heappop(refeeds)
                with self._lock:
                    rec = self._records.get(index)
                    skip = rec is None or rec.completed
                if not skip:
                    try:
                        self._feed_part(index)
                    except SpacefarmError as exc:
                        failure = exc
            if failure is not None:
                self._fail_case(failure)
            with self._lock:
                done = self._completed >= cfg.num_parts
            if done:
                self._finish_case()
                return
            if not grace_checked and now >= grace_deadline:
                grace_checked = True
                self._check_worker_count()
            try:
                kind, payload = self._events.get(timeout=0.1)
            except queue.Empty:
                continue
            if kind == "computed":
                self._on_result(payload)
            elif kind == "abort":
                due = self._on_abort(payload)
                if due is not None:
                    if isinstance(due, _CaseFailure):
                        failure = due.error
                    else:
                        heapq.heappush(refeeds, due)
            elif kind == "cut-error":
                self._fail_case(
                    payload
                    if isinstance(payload, SpacefarmError)
                    else CutFailed(str(payload))
                )
            elif kind == "feed-error":
                self._fail_case(payload)

    def _check_worker_count(self) -> None:
        cfg = self.config
        try:
            status = self._session.admin_status()
        except SpacefarmError:
            return
        peers = max(0, int(status.get("sessions", 0)) - 1)  # minus this master
        if peers < cfg.initial_workers:
            log.warning(
                "case %s: %d peer connections observed, config expects %d workers",
                cfg.case_id,
                peers,
                cfg.initial_workers,
            )

    # -- result and abort handling ----------------------------------------------------

    def _on_result(self, task: TaskEntry) -> None:
        cfg = self.config
        session = self._session
        txn = task.txn_id
        index = task.part_index
        marked = Template(
            "TaskEntry",
            {"case_id": cfg.case_id, "txn_id": txn, "state": TaskState.COMPUTED},
        )
        with self._lock:
            rec = self._records.get(index)
            current = rec is not None and not rec.completed and rec.txn_id == txn
        if not current:
            # Marked after its attempt was aborted: the part has moved on.
            self._sweep(marked)
            return
        try:
            result = session.take(
                Template(
                    "ResultEntry", {"case_id": cfg.case_id, "part_index": index}
                ),
                txn=txn,
                timeout_ms=2_000,
            )
            if result is None:
                return
            session.take(
                Template("FileEntry", {"case_id": cfg.case_id, "part_index": index}),
                txn=txn,
                timeout_ms=2_000,
            )
            session.take(marked, txn=txn, timeout_ms=0)
            blob = decode_payload(result.payload)
            (self._results_dir / f"result-{index}.bin").write_bytes(blob)
            session.txn_commit(txn)
        except (TxnNotOpen, UnknownTxn):
            return  # lease expired under us; the abort event replays the part
        with self._lock:
            rec.completed = True
            self._by_txn.pop(txn, None)
            self._completed += 1
        self.execlog.emit("commit", case_id=cfg.case_id, part_index=index, txn=txn)

    def _on_abort(self, txn_id: str):
        cfg = self.config
        # The abort already restored whatever the attempt took under its
        # transaction; drop every task entry it left so none is claimed again.
        self._sweep(Template("TaskEntry", {"case_id": cfg.case_id, "txn_id": txn_id}))
        with self._lock:
            index = self._by_txn.get(txn_id)
            if index is None:
                return None
            rec = self._records[index]
            if rec.completed or rec.txn_id != txn_id:
                return None
            self._by_txn.pop(txn_id, None)
            rec.txn_id = None
            attempts = rec.attempts
            self._replays += 1
        self.execlog.emit(
            "abort-observed", case_id=cfg.case_id, part_index=index, txn=txn_id
        )
        if attempts >= cfg.max_attempts:
            return _CaseFailure(
                MaxAttemptsExceeded(
                    f"part {index} failed {attempts} times (limit {cfg.max_attempts})"
                )
            )
        delay_s = cfg.backoff_base_ms * (2 ** (attempts - 1)) / 1000.0
        self.execlog.emit(
            "refeed-scheduled", case_id=cfg.case_id, part_index=index, delay_s=delay_s
        )
        return (time.monotonic() + delay_s, index)

    # -- termination -------------------------------------------------------------------

    def _finish_case(self) -> None:
        cfg = self.config
        session = self._session
        session.write(StopEntry(case_id=cfg.case_id))
        self._sweep_case()
        results = [
            (self._results_dir / f"result-{index}.bin").read_bytes()
            for index in range(cfg.num_parts)
        ]
        Path(cfg.output_path).write_bytes(self.descriptor.assemble(results))

    def _sweep_case(self) -> None:
        for kind in ("TaskEntry", "RowEntry"):
            self._sweep(Template(kind, {"case_id": self.config.case_id}))

    def _sweep(self, template: Template) -> None:
        """Take every visible entry matching the template, without waiting."""
        while True:
            try:
                if self._session.take(template, timeout_ms=0) is None:
                    return
            except SpacefarmError:
                return

    def _fail_case(self, error: SpacefarmError) -> None:
        cfg = self.config
        self._over.set()
        session = self._session
        with self._lock:
            open_txns = [r.txn_id for r in self._records.values() if r.txn_id]
        for txn in open_txns:
            try:
                session.txn_abort(txn)
            except SpacefarmError:
                pass
        self._sweep_case()
        self.execlog.emit("case-failed", case_id=cfg.case_id, error=str(error))
        raise error


def run_case(config: CaseConfig) -> CaseReport:
    return Master(config).run()
