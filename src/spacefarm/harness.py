"""Multi-process scenario runner for fault and adaptability experiments.

A scenario boots a real server, N worker processes (optionally staggered, and
optionally armed with phase-precise faults via SPACEFARM_FAULT), and a master
process, then judges the run purely from externally observable state: the
CaseReport, the merged execution logs, the result files, and a space snapshot.
Every process writes into one artifacts directory so a failed run can be
audited afterwards.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .client import Session
from .errors import ConnectionFailed, SpacefarmError
from .execlog import ENV_VAR as EXEC_LOG_ENV
from .execlog import load_events
from .master import CaseConfig
from .worker import FAULT_ACTIONS, FAULT_ENV_VAR, FAULT_PHASES

SERVER_READY_TIMEOUT_S = 10.0
DEFAULT_SCENARIO_TIMEOUT_S = 120.0

# Runs the CLI in a child that, on Linux, gets SIGTERM (PR_SET_PDEATHSIG is
# 1) when the process that started it dies, so a killed test run leaves no
# farm behind; elsewhere prctl does not exist and the child just runs.
# The child's command line keeps "-m spacefarm <command>" for ps and pgrep.
_DIE_WITH_PARENT = (
    "import ctypes, os, signal, sys\n"
    "if sys.platform == 'linux':\n"
    "    prctl = ctypes.CDLL(None).prctl\n"
    "    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]\n"
    "    prctl(1, signal.SIGTERM)\n"
    "    if os.getppid() != {parent}:\n"
    "        sys.exit(1)  # the parent died before prctl took effect\n"
    "from spacefarm.cli import main\n"
    "sys.exit(main(sys.argv[3:]))\n"
)

ASSERTION_NAMES = (
    "case_completes",
    "exactly_once",
    "no_replays",
    "replays_at_least_one",
    "output_matches_baseline",
    "late_join_executes",
    "recovery_within_2x_lease",
)


class InfrastructureError(SpacefarmError):
    code = "INFRASTRUCTURE"


class AssertionFailed(SpacefarmError):
    code = "ASSERTION_FAILED"

    def __init__(self, failures: list[dict[str, Any]]) -> None:
        names = ", ".join(f["name"] for f in failures)
        super().__init__(f"scenario assertions failed: {names}")
        self.failures = failures


@dataclass
class Fault:
    target: int
    trigger: str
    action: str
    pause_ms: int = 0

    def to_env(self) -> str:
        if self.action == "pause":
            return f"{self.trigger}:pause:{self.pause_ms}"
        return f"{self.trigger}:{self.action}"


@dataclass
class Scenario:
    name: str
    workers: int
    case: dict[str, Any]
    start_offsets: list[float] = field(default_factory=list)
    faults: list[Fault] = field(default_factory=list)
    assertions: list[str] = field(default_factory=list)
    timeout_s: float = DEFAULT_SCENARIO_TIMEOUT_S

    @classmethod
    def from_dict(cls, obj: dict[str, Any]) -> "Scenario":
        for key in ("name", "topology", "case"):
            if key not in obj:
                raise ValueError(f"scenario missing key: {key}")
        topology = obj["topology"]
        workers = int(topology["workers"])
        if workers < 1:
            raise ValueError("topology.workers must be >= 1")
        offsets = [float(x) for x in topology.get("start_offsets", [])]
        if offsets and len(offsets) != workers:
            raise ValueError("start_offsets length must equal worker count")
        if not offsets:
            offsets = [0.0] * workers
        faults = []
        for raw in obj.get("faults", []):
            trigger = raw.get("trigger")
            action = raw.get("action")
            if trigger not in FAULT_PHASES:
                raise ValueError(f"unknown fault trigger {trigger!r}")
            if action not in FAULT_ACTIONS:
                raise ValueError(f"unknown fault action {action!r}")
            target = int(raw.get("target", -1))
            if not 0 <= target < workers:
                raise ValueError(f"fault target {target} out of range")
            faults.append(
                Fault(
                    target=target,
                    trigger=trigger,
                    action=action,
                    pause_ms=int(raw.get("pause_ms", 0)),
                )
            )
        assertions = list(obj.get("assertions", []))
        for name in assertions:
            if name not in ASSERTION_NAMES:
                raise ValueError(f"unknown assertion {name!r}")
        return cls(
            name=str(obj["name"]),
            workers=workers,
            case=dict(obj["case"]),
            start_offsets=offsets,
            faults=faults,
            assertions=assertions,
            timeout_s=float(obj.get("timeout_s", DEFAULT_SCENARIO_TIMEOUT_S)),
        )


@dataclass
class ScenarioReport:
    name: str
    passed: bool
    assertions: list[dict[str, Any]]
    case_report: dict[str, Any] | None
    artifacts_dir: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "passed": self.passed,
                "assertions": self.assertions,
                "case_report": self.case_report,
                "artifacts_dir": self.artifacts_dir,
            },
            sort_keys=True,
        )


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def check_exactly_once(events: list[dict[str, Any]], num_parts: int) -> bool:
    """True iff every part has exactly one committed result."""
    counts: dict[int, int] = {}
    for event in events:
        if event.get("event") == "commit":
            index = int(event["part_index"])
            counts[index] = counts.get(index, 0) + 1
    return counts == {index: 1 for index in range(num_parts)}


class _Run:
    """One scenario execution: processes, logs, and assertion evaluation."""

    def __init__(self, scenario: Scenario, artifacts_dir: Path) -> None:
        self.scenario = scenario
        self.artifacts = artifacts_dir
        self.artifacts.mkdir(parents=True, exist_ok=True)
        self.port = free_port()
        self.address = f"127.0.0.1:{self.port}"
        self.procs: list[subprocess.Popen] = []
        self._logs: list = []
        self.server: subprocess.Popen | None = None
        self.master_stdout = ""
        self.master_code: int | None = None
        self.case_report: dict[str, Any] | None = None
        self.config: CaseConfig | None = None

    def _spawn(self, args: list[str], name: str, env: dict[str, str]) -> subprocess.Popen:
        log_path = self.artifacts / f"{name}.stderr.log"
        log_file = open(log_path, "w", encoding="utf-8")
        self._logs.append(log_file)
        proc = subprocess.Popen(
            [
                sys.executable, "-c", _DIE_WITH_PARENT.format(parent=os.getpid()),
                "-m", "spacefarm", *args,
            ],
            stdout=subprocess.PIPE if name == "master" else subprocess.DEVNULL,
            stderr=log_file,
            env=env,
            text=True,
        )
        self.procs.append(proc)
        return proc

    def _base_env(self) -> dict[str, str]:
        env = dict(os.environ)
        env.pop(FAULT_ENV_VAR, None)
        env.pop(EXEC_LOG_ENV, None)
        return env

    def _start_server(self) -> None:
        env = self._base_env()
        self.server = self._spawn(
            ["serve", "--bind", self.address], "server", env
        )
        deadline = time.monotonic() + SERVER_READY_TIMEOUT_S
        while True:
            try:
                Session.connect(self.address, timeout_s=1.0).close()
                return
            except ConnectionFailed:
                if self.server.poll() is not None:
                    raise InfrastructureError(
                        f"server exited with {self.server.returncode} before ready"
                    )
                if time.monotonic() > deadline:
                    raise InfrastructureError("server did not become reachable")
                time.sleep(0.05)

    def _worker_env(self, index: int) -> dict[str, str]:
        env = self._base_env()
        env[EXEC_LOG_ENV] = str(self.artifacts / f"worker-{index}.jsonl")
        faults = [f.to_env() for f in self.scenario.faults if f.target == index]
        if faults:
            env[FAULT_ENV_VAR] = ";".join(faults)
        return env

    def execute(self) -> None:
        scenario = self.scenario
        case_obj = dict(scenario.case)
        case_obj["space_address"] = self.address
        case_obj.setdefault("tmp_dir", str(self.artifacts / "parts"))
        self.config = CaseConfig.from_json(json.dumps(case_obj))
        config_path = self.artifacts / "case-config.json"
        config_path.write_text(json.dumps(case_obj, indent=2), encoding="utf-8")

        self._start_server()
        try:
            started = time.monotonic()
            master_env = self._base_env()
            master_env[EXEC_LOG_ENV] = str(self.artifacts / "master.jsonl")
            master = self._spawn(
                ["master", "--config", str(config_path)], "master", master_env
            )
            pending = sorted(
                range(scenario.workers), key=lambda i: scenario.start_offsets[i]
            )
            for index in pending:
                delay = scenario.start_offsets[index] - (time.monotonic() - started)
                if delay > 0:
                    time.sleep(delay)
                self._spawn(
                    [
                        "worker",
                        "--space",
                        self.address,
                        "--scratch",
                        str(self.artifacts / f"scratch-{index}"),
                        "--worker-id",
                        f"w{index}",
                    ],
                    f"worker-{index}",
                    self._worker_env(index),
                )
            budget = scenario.timeout_s - (time.monotonic() - started)
            try:
                self.master_stdout, _ = master.communicate(timeout=max(budget, 1.0))
            except subprocess.TimeoutExpired:
                self.master_code = None
                return
            self.master_code = master.returncode
            if self.master_code == 0:
                for line in self.master_stdout.splitlines():
                    line = line.strip()
                    if line.startswith("{"):
                        self.case_report = json.loads(line)
            self._snapshot_space()
        finally:
            self._teardown()

    def _snapshot_space(self) -> None:
        try:
            session = Session.connect(self.address, timeout_s=2.0)
        except ConnectionFailed:
            return
        try:
            snapshot = session.admin_status(self.config.case_id)
            (self.artifacts / "space-snapshot.json").write_text(
                json.dumps(snapshot, indent=2, sort_keys=True), encoding="utf-8"
            )
        except SpacefarmError:
            pass
        finally:
            session.close()

    def _teardown(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        deadline = time.monotonic() + 5.0
        for proc in self.procs:
            remaining = deadline - time.monotonic()
            try:
                proc.wait(timeout=max(remaining, 0.1))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for log_file in self._logs:
            log_file.close()

    # -- assertion evaluation ------------------------------------------------------

    def events(self) -> list[dict[str, Any]]:
        paths = [str(self.artifacts / "master.jsonl")] + [
            str(self.artifacts / f"worker-{i}.jsonl")
            for i in range(self.scenario.workers)
        ]
        return load_events(paths)

    def evaluate(self, baseline_output: bytes | None) -> list[dict[str, Any]]:
        results = []
        for name in self.scenario.assertions:
            checker = getattr(self, "_assert_" + name)
            try:
                passed, detail = checker(baseline_output)
            except Exception as exc:  # an unevaluable assertion is a failure
                passed, detail = False, f"assertion error: {exc!r}"
            results.append({"name": name, "passed": passed, "detail": detail})
        return results

    def _assert_case_completes(self, baseline: bytes | None):
        if self.master_code is None:
            return False, "master did not finish within the scenario timeout"
        if self.master_code != 0:
            return False, f"master exited with {self.master_code}"
        report = self.case_report or {}
        if report.get("results") != report.get("parts"):
            return False, f"incomplete results: {report}"
        return True, f"results={report.get('results')}"

    def _assert_exactly_once(self, baseline: bytes | None):
        ok = check_exactly_once(self.events(), self.config.num_parts)
        return ok, "one committed result per part" if ok else "duplicate or missing commits"

    def _assert_no_replays(self, baseline: bytes | None):
        replays = (self.case_report or {}).get("replays")
        return replays == 0, f"replays={replays}"

    def _assert_replays_at_least_one(self, baseline: bytes | None):
        replays = (self.case_report or {}).get("replays")
        return isinstance(replays, int) and replays >= 1, f"replays={replays}"

    def _assert_output_matches_baseline(self, baseline: bytes | None):
        if baseline is None:
            return False, "no baseline output captured"
        produced = Path(self.config.output_path)
        if not produced.exists():
            return False, "output file missing"
        same = produced.read_bytes() == baseline
        return same, "byte-identical to zero-fault run" if same else "output differs"

    def _assert_late_join_executes(self, baseline: bytes | None):
        offsets = self.scenario.start_offsets
        late = max(range(len(offsets)), key=lambda i: offsets[i])
        count = sum(
            1
            for e in self.events()
            if e.get("event") == "computed-marked" and e.get("worker_id") == f"w{late}"
        )
        return count >= 1, f"late worker w{late} completed {count} tasks"

    def _assert_recovery_within_2x_lease(self, baseline: bytes | None):
        """From each kill to the next claim of the killed worker's part."""
        events = self.events()
        kills = [
            e for e in events if e.get("event") == "fault" and e.get("action") == "kill"
        ]
        if not kills:
            return False, "no kill fault fired"
        limit_s = 2 * self.config.task_lease_ms / 1000.0
        worst = 0.0
        for kill in kills:
            part = kill.get("part_index")
            claims = [
                e
                for e in events
                if e.get("event") == "claimed"
                and e.get("part_index") == part
                and e.get("ts", 0) > kill["ts"]
            ]
            if not claims:
                return False, f"part {part} never claimed again after kill"
            worst = max(worst, claims[0]["ts"] - kill["ts"])
        ok = worst <= limit_s
        return ok, f"worst recovery {worst:.2f}s vs limit {limit_s:.2f}s"


def run_scenario(
    scenario: Scenario,
    artifacts_dir: str,
    raise_on_failure: bool = True,
) -> ScenarioReport:
    artifacts = Path(artifacts_dir)
    baseline_output: bytes | None = None
    if "output_matches_baseline" in scenario.assertions:
        baseline_output = _run_baseline(scenario, artifacts / "baseline")

    run = _Run(scenario, artifacts)
    run.execute()
    assertions = run.evaluate(baseline_output)
    passed = all(a["passed"] for a in assertions)
    report = ScenarioReport(
        name=scenario.name,
        passed=passed,
        assertions=assertions,
        case_report=run.case_report,
        artifacts_dir=str(artifacts),
    )
    (artifacts / "scenario-report.json").write_text(report.to_json(), encoding="utf-8")
    if raise_on_failure and not passed:
        raise AssertionFailed([a for a in assertions if not a["passed"]])
    return report


def _run_baseline(scenario: Scenario, artifacts: Path) -> bytes | None:
    """Zero-fault twin of the scenario, used for byte-identity assertions."""
    case = dict(scenario.case)
    output_path = artifacts / "baseline-output.bin"
    artifacts.mkdir(parents=True, exist_ok=True)
    case["output_path"] = str(output_path)
    baseline = Scenario(
        name=scenario.name + "-baseline",
        workers=scenario.workers,
        case=case,
        start_offsets=[0.0] * scenario.workers,
        faults=[],
        assertions=[],
        timeout_s=scenario.timeout_s,
    )
    run = _Run(baseline, artifacts)
    run.execute()
    if run.master_code != 0:
        raise InfrastructureError("baseline run failed")
    return output_path.read_bytes()
