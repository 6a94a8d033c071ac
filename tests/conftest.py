"""Shared fixtures and oracles: in-process server, cluster runner, reference
implementations for pi digits and Cholesky factors."""

from __future__ import annotations

import contextlib
import math
import random
import threading

import mpmath
import pytest

from spacefarm.agents import CASE_ID_PARAM, cholesky
from spacefarm.client import Session
from spacefarm.cuts import cholesky_rowblock
from spacefarm.execlog import ExecLog
from spacefarm.master import CaseConfig, Master
from spacefarm.server import SpaceServer
from spacefarm.space import SpaceCore
from spacefarm.worker import FaultInjector, Worker


class FakeClock:
    """Manually advanced monotonic clock for lease tests."""

    def __init__(self, start: float = 1_000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def fake_clock():
    return FakeClock()


@pytest.fixture
def server():
    srv = SpaceServer(host="127.0.0.1", port=0)
    srv.start()
    yield srv
    srv.shutdown(drain_ms=0)


@pytest.fixture
def address(server):
    host, port = server.address
    return f"{host}:{port}"


@pytest.fixture
def session(address):
    sess = Session.connect(address)
    yield sess
    sess.close()


# -- numeric oracles ---------------------------------------------------------------


def pi_hex(start: int, count: int) -> str:
    """Fractional hex digits of pi at positions start..start+count-1,
    from arbitrary-precision evaluation (independent of the package kernels)."""
    last = start + count - 1
    with mpmath.workprec(4 * last + 64):
        scaled = mpmath.floor((mpmath.pi - 3) * mpmath.power(16, last))
    return format(int(scaled), "X").zfill(last)[start - 1 :]


def cholesky_oracle(a: list[list[float]]) -> list[list[float]]:
    """Sequential lower-triangular factorization, same element-op order as the
    row-partitioned agent (so results should agree to the last bit)."""
    size = len(a)
    factor = [[0.0] * size for _ in range(size)]
    for i in range(size):
        s = 0.0
        for k in range(i):
            s += factor[i][k] * factor[i][k]
        pivot = a[i][i] - s
        if not pivot > 0.0:
            raise ValueError(f"not positive definite at row {i}")
        factor[i][i] = math.sqrt(pivot)
        for j in range(i + 1, size):
            s = 0.0
            for k in range(i):
                s += factor[j][k] * factor[i][k]
            factor[j][i] = (a[j][i] - s) / factor[i][i]
    return factor


def spd_matrix(size: int, seed: int) -> list[list[float]]:
    """Random symmetric positive definite matrix (B·Bᵀ plus a diagonal shift)."""
    rng = random.Random(seed)
    b = [[rng.uniform(-1.0, 1.0) for _ in range(size)] for _ in range(size)]
    a = [
        [sum(b[i][k] * b[j][k] for k in range(size)) for j in range(size)]
        for i in range(size)
    ]
    for i in range(size):
        a[i][i] += float(size)
    return a


# -- in-process Cholesky tasks -------------------------------------------------------


def run_parts(data, p, case_id="chol-test"):
    """Execute all p tasks of one factorization of the matrix file data in
    parallel threads sharing an in-process space; return each rank's result
    and the space."""
    parts = cholesky_rowblock(data, p, {})
    core = SpaceCore()
    params = {CASE_ID_PARAM: case_id, "row_timeout_ms": 20_000}
    results: dict[int, bytes] = {}
    errors = []

    def task(rank, payload):
        try:
            results[rank] = cholesky.execute(payload, params, core)
        except Exception as exc:  # surfaced after join
            errors.append(exc)

    threads = [
        threading.Thread(target=task, args=(rank, payload), daemon=True)
        for rank, payload in enumerate(parts)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not errors, errors
    return [results[rank] for rank in range(p)], core


def run_partitioned(a, p, case_id="chol-test"):
    """Factor the matrix a in p tasks and assemble the factor."""
    data = cholesky.format_matrix(a).encode("utf-8")
    results, _ = run_parts(data, p, case_id)
    return cholesky.assemble(results)


# -- in-process cluster runner -------------------------------------------------------


def make_case_config(tmp_path, address: str, *, input_bytes: bytes, **overrides) -> CaseConfig:
    input_path = tmp_path / "input.bin"
    input_path.write_bytes(input_bytes)
    out_dir = tmp_path / "out"
    out_dir.mkdir(exist_ok=True)
    fields = dict(
        case_id="case-1",
        space_address=address,
        agent_id="echo",
        agent_version="1",
        agent_params={},
        input_path=str(input_path),
        output_path=str(out_dir / "result.bin"),
        cut_name="byte_chunk",
        cut_params={},
        num_parts=4,
        initial_workers=1,
        task_lease_ms=10_000,
        max_attempts=5,
        tmp_dir=str(tmp_path / "parts"),
    )
    fields.update(overrides)
    return CaseConfig(**fields)


@contextlib.contextmanager
def running_workers(
    address: str,
    num_workers: int,
    tmp_path,
    *,
    allowed_agents: list[str] | None = None,
    injectors: dict[int, FaultInjector] | None = None,
    execlog_dir=None,
):
    """Worker threads serving the space at `address` until the block exits."""
    stop = threading.Event()
    threads = []
    for index in range(num_workers):
        execlog = (
            ExecLog(str(execlog_dir / f"worker-{index}.jsonl"))
            if execlog_dir is not None
            else ExecLog(None)
        )
        worker = Worker(
            address,
            str(tmp_path / f"scratch-{index}"),
            allowed_agents=allowed_agents,
            worker_id=f"w{index}",
            injector=(injectors or {}).get(index, FaultInjector([])),
            execlog=execlog,
        )
        thread = threading.Thread(
            target=worker.run, args=(stop,), name=f"test-worker-{index}", daemon=True
        )
        thread.start()
        threads.append(thread)
    try:
        yield threads
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=15)


def run_case_with_workers(
    config: CaseConfig,
    num_workers: int,
    tmp_path,
    *,
    execlog_dir=None,
    **worker_options,
):
    """Run a case against worker threads sharing the configured space."""
    with running_workers(
        config.space_address,
        num_workers,
        tmp_path,
        execlog_dir=execlog_dir,
        **worker_options,
    ):
        master_log = (
            ExecLog(str(execlog_dir / "master.jsonl"))
            if execlog_dir is not None
            else ExecLog(None)
        )
        return Master(config, execlog=master_log).run()
