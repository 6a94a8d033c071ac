"""End-to-end benchmark of a spacefarm farm.

    python3 farmbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is used from ``src``.
One server and two workers run as their own processes (started through
``launcher.py``); this process generates the workload's inputs from the seed
and runs the masters in a closed loop until ``S`` seconds of cases have been
measured. Every output is checked against an independent reference outside
the timed region. All files live in one temporary directory under
``.farmbench_runs/``, removed at exit.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` measures the same
loop untraced and then traced, and prints the per-layer metrics: spans kept
in memory by the launcher in every process, protocol phases from the
``SPACEFARM_EXEC_LOG`` lines, in-process probes, and ``trace.overhead``.

Human-readable lines come first; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 only when every case finished in time with the right output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
RUNS_DIR = ROOT / ".farmbench_runs"

WORKERS = 2
SETUPS = 5  # farm start-ups per untraced run; setup_s is their median
CASE_TIMEOUT_S = 60.0
RUN_BUDGET_S = 160.0  # no round starts if it could end after this
START_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 10.0
TASK_LEASE_MS = 30_000

E2E_UNITS = {
    "case_s": "s",
    "tasks_per_s": "1/s",
    "cpu_ms_per_task": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Printed with the end-to-end metrics but not in the JSON result: on these
# fault-free workloads they are 0, and failures are carried by "failed".
E2E_PRINTED_ONLY = {"failed_frac": "1", "replays_per_task": "1"}


class BenchError(Exception):
    """The farm could not be set up or a case could not be run."""


# -- the farm ---------------------------------------------------------------------


def _proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


class Farm:
    """One server and WORKERS workers, each its own process."""

    def __init__(self, rundir: Path, label: str, trace: bool) -> None:
        self.dir = rundir / label
        self.dir.mkdir(parents=True)
        self.trace = trace
        self.exec_log = str(self.dir / "exec.jsonl") if trace else None
        self.address = ""
        self.server: subprocess.Popen | None = None
        self.workers: list[subprocess.Popen] = []
        self.trace_files: list[Path] = []

    def _spawn(self, name: str, args: list[str]) -> subprocess.Popen:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env.pop("SPACEFARM_FAULT", None)
        env.pop("SPACEFARM_EXEC_LOG", None)
        if self.exec_log:
            env["SPACEFARM_EXEC_LOG"] = self.exec_log
        launcher = [sys.executable, str(HERE / "launcher.py"), "--parent", str(os.getpid())]
        if self.trace:
            trace_file = self.dir / f"{name}.trace.json"
            self.trace_files.append(trace_file)
            launcher += ["--trace-out", str(trace_file)]
        with open(self.dir / f"{name}.log", "wb") as log:
            return subprocess.Popen(
                launcher + args, cwd=self.dir, env=env,
                stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
            )

    def start(self) -> float:
        """Start server and workers; seconds until every worker is connected."""
        from spacefarm.client import Session

        t0 = time.perf_counter()
        self.server = self._spawn("server", ["serve", "--bind", "127.0.0.1:0"])
        self.address = self._wait_listening(self.dir / "server.log")
        for i in range(WORKERS):
            self.workers.append(self._spawn(f"worker{i}", [
                "worker", "--space", self.address,
                "--scratch", str(self.dir / "scratch"), "--worker-id", f"w{i}",
            ]))
        session = Session.connect(self.address)
        try:
            deadline = time.monotonic() + START_TIMEOUT_S
            while session.admin_status().get("sessions", 0) < WORKERS + 1:
                self._check_alive()
                if time.monotonic() > deadline:
                    raise BenchError("workers did not connect in time")
                time.sleep(0.002)
        finally:
            session.close()
        return time.perf_counter() - t0

    def _wait_listening(self, log: Path) -> str:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            for line in log.read_text(errors="replace").splitlines():
                if line.startswith("listening on "):
                    return line.split()[-1]
            self._check_alive()
            time.sleep(0.002)
        raise BenchError("server did not start listening in time")

    def _check_alive(self) -> None:
        for proc in [self.server] + self.workers:
            if proc is not None and proc.poll() is not None:
                raise BenchError(f"farm process exited early with {proc.returncode}; "
                                 f"see {self.dir}")

    def cpu_s(self) -> float:
        return sum(_proc_cpu_s(p.pid) for p in [self.server] + self.workers)

    def server_peak_rss_mb(self) -> float:
        return _proc_peak_rss_mb(self.server.pid)

    def stop(self, graceful: bool = True) -> None:
        """Terminate and reap every process: workers first, then the server."""
        for group in (self.workers, [self.server]):
            live = [p for p in group if p is not None and p.poll() is None]
            for proc in live:
                proc.send_signal(signal.SIGTERM if graceful else signal.SIGKILL)
            for proc in live:
                try:
                    proc.wait(STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()

    def load_traces(self) -> list[dict]:
        return [json.loads(f.read_text()) for f in self.trace_files if f.exists()]


# -- cases and rounds -----------------------------------------------------------------


@dataclass
class CaseResult:
    case: object  # workloads.Case
    seconds: float
    parts: int
    replays: int
    error: str | None


def _run_master(config, execlog, results: dict, key: str) -> None:
    from spacefarm.master import Master

    try:
        master = Master(config, execlog=execlog)
        t0 = time.perf_counter()
        report = master.run()
        results[key] = (time.perf_counter() - t0, report, None)
    except Exception as exc:  # reported as a failed case, never raised
        results[key] = (0.0, None, f"{type(exc).__name__}: {exc}")


def run_round(farm: Farm, cases: list, rundir: Path, timeout_s: float) -> tuple[list[CaseResult], float]:
    """Run one round; returns the results and its wall seconds."""
    from spacefarm.execlog import ExecLog
    from spacefarm.master import CaseConfig

    configs = []
    for case in cases:
        input_path = rundir / "inputs" / case.name
        input_path.parent.mkdir(exist_ok=True)
        input_path.write_bytes(case.input)
        configs.append(CaseConfig(
            case_id=case.name, space_address=farm.address, agent_id=case.agent_id,
            agent_version="1", agent_params=dict(case.agent_params),
            input_path=str(input_path), output_path=str(rundir / "outputs" / f"{case.name}.out"),
            cut_name=case.cut, cut_params={}, num_parts=case.num_parts,
            initial_workers=WORKERS, task_lease_ms=TASK_LEASE_MS,
            tmp_dir=str(rundir / "parts"),
        ))
    (rundir / "outputs").mkdir(exist_ok=True)
    execlog = ExecLog(farm.exec_log)
    results: dict[str, tuple] = {}
    threads = [
        threading.Thread(target=_run_master, args=(cfg, execlog, results, case.name),
                         name=f"master-{case.name}", daemon=True)
        for case, cfg in zip(cases, configs)
    ]
    t0 = time.perf_counter()
    for case, thread in zip(cases, threads):
        delay = t0 + case.offset_s - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        thread.start()
    deadline = t0 + timeout_s
    for thread in threads:
        thread.join(max(0.0, deadline - time.perf_counter()))
    wall = time.perf_counter() - t0

    out = []
    for case, cfg in zip(cases, configs):
        seconds, report, error = results.get(case.name, (wall, None, "timed out"))
        if error is None:
            error = _check_output(case, report, Path(cfg.output_path))
        out.append(CaseResult(case, seconds, report.results if report else 0,
                              report.replays if report else 0, error))
    return out, wall


def _check_output(case, report, output: Path) -> str | None:
    if report.results != case.num_parts:
        return f"{report.results} of {case.num_parts} parts committed"
    try:
        produced = output.read_bytes()
    except OSError as exc:
        return f"no output: {exc}"
    if produced != case.expected:
        return f"output differs from the reference ({len(produced)} vs {len(case.expected)} bytes)"
    return None


@dataclass
class Loop:
    """What one closed loop of rounds measured."""

    results: list[CaseResult]
    warmup: list[CaseResult]
    window: tuple[float, float]  # monotonic start and end of the measured rounds
    cpu_s: float
    parts: int

    @property
    def case_s(self) -> list[float]:
        return [r.seconds for r in self.results if r.case.measured and not r.error]

    @property
    def measured_parts(self) -> int:
        return sum(r.parts for r in self.results if r.case.measured and not r.error)

    @property
    def failures(self) -> list[CaseResult]:
        return [r for r in self.warmup + self.results if r.error]


def closed_loop(farm: Farm, workload, rundir: Path, seconds: float, run_deadline: float) -> Loop:
    warm, _ = run_round(farm, workload.warmup(), rundir, CASE_TIMEOUT_S)
    results: list[CaseResult] = []
    parts = 0
    measured = 0.0
    # CPU is read once around the whole loop: /proc counts in clock ticks, so
    # one pair of readings keeps the rounding error to a tick per process.
    cpu0 = farm.cpu_s() + time.process_time()
    start = time.monotonic()
    index = 0
    while not any(r.error for r in warm + results):
        remaining = run_deadline - time.monotonic()
        if results and (measured >= seconds or remaining < CASE_TIMEOUT_S):
            break
        round_results, wall = run_round(
            farm, workload.round(index), rundir, min(CASE_TIMEOUT_S, remaining))
        results += round_results
        measured += wall
        parts += sum(r.parts for r in round_results)
        index += 1
    end = time.monotonic()
    cpu = farm.cpu_s() + time.process_time() - cpu0
    return Loop(results, warm, (start, end), cpu, parts)


# -- reporting ------------------------------------------------------------------------


def stamp(workload: str, seed: int, trace: int, seconds: int) -> dict:
    import probes
    from spacefarm.agents import bbp

    digest = hashlib.sha256()
    for path in sorted((SRC / "spacefarm").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "bbp_backend": bbp.BACKEND,
        "host_loop_ms": probes.host_loop_ms(),
        "workers": WORKERS,
        "seed": seed,
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
    }


def e2e_metrics(loop: Loop, farm: Farm, setups: list[float]) -> dict[str, float]:
    attempted = len(loop.results) + len(loop.warmup)
    return {
        "case_s": metrics.median(loop.case_s),
        "tasks_per_s": loop.measured_parts / max(sum(loop.case_s), 1e-9),
        "cpu_ms_per_task": loop.cpu_s * 1e3 / max(loop.parts, 1),
        "peak_rss_mb": farm.server_peak_rss_mb(),
        "setup_s": metrics.median(setups),
        "failed_frac": len(loop.failures) / max(attempted, 1),
        "replays_per_task": sum(r.replays for r in loop.results) / max(loop.parts, 1),
    }


def print_e2e(loop: Loop, values: dict[str, float], setups: list[float]) -> None:
    samples = loop.case_s
    tail = metrics.tail_percentile(len(samples))
    tail_text = (f"p{tail:g}={metrics.percentile(samples, tail):.4f} s" if tail
                 else "no tail percentile (needs >= 20 cases)")
    print(f"case_s samples={len(samples)} median={values['case_s']:.4f} s; {tail_text}; "
          f"all={[round(s, 3) for s in samples]}")
    print(f"setup_s samples={len(setups)} all={[round(s, 4) for s in setups]}")
    units = {**E2E_UNITS, **E2E_PRINTED_ONLY}
    for name, unit in units.items():
        print(f"metric {name} = {values[name]:.6g} {unit}")


def trace_run(workload, rundir: Path, seconds: float, run_deadline: float, report) -> tuple[dict, list]:
    """Untraced loop, then traced loop and probes; returns per-layer metrics."""
    import probes
    import tracing
    from spacefarm.agents import bbp
    from spacefarm.execlog import load_events

    plain = Farm(rundir, "plain", trace=False)
    try:
        plain.start()
        base = closed_loop(plain, workload, rundir, seconds, run_deadline)
    finally:
        plain.stop()
    report(base)
    if base.failures:
        return {}, base.failures

    recorder = tracing.install("master")
    farm = Farm(rundir, "traced", trace=True)
    try:
        farm.start()
        traced = closed_loop(farm, workload, rundir, seconds, run_deadline)
    finally:
        farm.stop()
    report(traced)
    if traced.failures:
        return {}, traced.failures

    w0, w1 = traced.window
    dumps = farm.load_traces() + [
        {"role": "master", "spans": [list(s) for s in recorder.spans], "stats": {}}
    ]
    if len(dumps) != WORKERS + 2:
        raise BenchError(f"expected {WORKERS + 2} trace dumps, got {len(dumps)}")
    for dump in dumps:
        dump["spans"] = metrics.in_window(dump["spans"], w0, w1)
    names = {r.case.name for r in traced.results}
    events = [e for e in load_events([farm.exec_log]) if e.get("case_id") in names]
    values, counts = metrics.layer_metrics(dumps, events, traced.parts)
    values["master.replays_per_task"] = (
        sum(r.replays for r in traced.results) / max(traced.parts, 1))
    values["trace.overhead"] = metrics.median(traced.case_s) / metrics.median(base.case_s)

    kernels = probes.bbp_eval16()
    for label, best in kernels[bbp.BACKEND].items():
        values[f"agents.bbp.eval16_s.{label}"] = best
    values["space.take_us.resident_10k"] = probes.take_us_resident()
    values["transactions.sweep_ms.records_10k"] = probes.sweep_ms_records()

    print(f"trace window {w1 - w0:.2f} s, tasks={traced.parts}, "
          f"untraced case_s={[round(s, 3) for s in base.case_s]}, "
          f"traced case_s={[round(s, 3) for s in traced.case_s]}")
    for backend, by_pos in kernels.items():
        print(f"probe agents.bbp.eval16_s backend={backend} "
              + " ".join(f"{k}={v:.6f}" for k, v in by_pos.items()))
    for dump in dumps:
        if dump["stats"]:
            print(f"server state at exit {json.dumps(dump['stats'], sort_keys=True)}")
    phase_sum = sum(values[f"{n}.p50"] for n in (
        "worker.claim_wait_ms", "worker.fetch_ms", "worker.run_ms",
        "worker.mark_ms", "master.commit_ms"))
    print(f"phase medians sum {phase_sum:.3f} ms vs master.part_latency_ms.p50 "
          f"{values['master.part_latency_ms.p50']:.3f} ms")
    for dump in dumps:
        # A frame read blocks until the peer sends, so its time is idle time.
        busy = [s for s in dump["spans"] if s[metrics.NAME] != "wire.read_frame"]
        layers = metrics.self_time_by_layer(busy)
        print(f"self ms per task in {dump['role']}: " + " ".join(
            f"{layer}={t * 1e3 / max(traced.parts, 1):.3f}"
            for layer, t in sorted(layers.items())))
    for name in sorted(values):
        n = counts.get(name)
        rule = ""
        if n is not None and ".p" in name:
            q = float(name.rsplit(".p", 1)[1])
            rule = "" if metrics.supported(n, q) else " (fewer than 10 samples beyond)"
        print(f"layer {name} = {values[name]:.6g}" + (f" n={n}{rule}" if n is not None else ""))
    return values, []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spacefarm" / "__init__.py").is_file():
        print(f"error: no spacefarm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOAD_NAMES, Workload

    if args.workload not in WORKLOAD_NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOAD_NAMES)}", file=sys.stderr)
        return 2

    def on_term(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)
    started = time.monotonic()
    run_deadline = started + RUN_BUDGET_S
    RUNS_DIR.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS_DIR))
    try:
        print("stamp " + json.dumps(stamp(args.workload, args.seed, args.trace, args.seconds)))
        workload = Workload(args.workload, args.seed)
        loops: list[Loop] = []
        if args.trace:
            metrics_out, failures = trace_run(workload, rundir, args.seconds,
                                              run_deadline, loops.append)
        else:
            setups = []
            farm = None
            try:
                for i in range(SETUPS):
                    if farm is not None:
                        farm.stop(graceful=False)
                    farm = Farm(rundir, f"farm{i}", trace=False)
                    setups.append(farm.start())
                loop = closed_loop(farm, workload, rundir, args.seconds, run_deadline)
                loops.append(loop)
                values = e2e_metrics(loop, farm, setups)
            finally:
                if farm is not None:
                    farm.stop()
            print_e2e(loop, values, setups)
            failures = loop.failures
            metrics_out = {name: values[name] for name in E2E_UNITS}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    for failure in failures:
        print(f"FAILED case {failure.case.name}: {failure.error}")
    attempted = sum(len(loop.results) + len(loop.warmup) for loop in loops)
    units = metrics.LAYER_UNITS if args.trace else E2E_UNITS
    if not failures and set(metrics_out) != set(units):
        print(f"error: metrics {sorted(set(units) ^ set(metrics_out))} do not match "
              "the metric list", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics_out.items()} if not failures else {},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
