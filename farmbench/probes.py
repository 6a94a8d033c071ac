"""In-process probes, run in the driver while no farm is running.

* ``bbp_eval16``: seconds for one 16-digit evaluation at positions 1e3, 1e4
  and 1e5, best of three, for every kernel that is built (the measurement of
  ``benchmarks/bbp_bench.py``);
* ``host_loop_ms``: a fixed loop, timed by every run for its stamp, as a
  gauge of the host's speed;
* ``take_us_resident``: one ``take`` of the newest of 10k resident entries;
* ``sweep_ms_records``: one ``TxnManager.sweep`` over 10k finished
  transactions.
"""

from __future__ import annotations

import statistics
import time

from spacefarm.entries import StopEntry, Template
from spacefarm.space import SpaceCore
from spacefarm.transactions import TxnManager

BBP_POSITIONS = {"1e3": 1_000, "1e4": 10_000, "1e5": 100_000}
BBP_DIGITS = 16
BBP_REPEATS = 3
RESIDENT = 10_000
REPEATS = 21
HOST_LOOP = 40_000


def built_kernels() -> dict[str, object]:
    from spacefarm.agents import _bbp_py

    kernels = {_bbp_py.BACKEND: _bbp_py}
    try:
        from spacefarm.agents import _bbp
    except ImportError:
        return kernels
    kernels[_bbp.BACKEND] = _bbp
    return kernels


def bbp_eval16() -> dict[str, dict[str, float]]:
    """{backend: {position label: best seconds}} for every built kernel."""
    out: dict[str, dict[str, float]] = {}
    for backend, kernel in built_kernels().items():
        out[backend] = {}
        for label, position in BBP_POSITIONS.items():
            best = float("inf")
            for _ in range(BBP_REPEATS):
                t0 = time.perf_counter()
                kernel.hex_digits(position, BBP_DIGITS)
                best = min(best, time.perf_counter() - t0)
            out[backend][label] = best
    return out


def host_loop_ms() -> float:
    """Median ms of a fixed pure-Python loop of modular powers.

    The loop uses no spacefarm code, so two runs whose values differ ran on a
    host whose speed had changed.
    """
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for k in range(1, HOST_LOOP):
            acc += pow(16, k, 8 * k + 1)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def take_us_resident(resident: int = RESIDENT) -> float:
    """Median microseconds to take the newest of ``resident`` entries."""
    core = SpaceCore()
    for i in range(resident + REPEATS):
        core.write(StopEntry(case_id=f"probe-{i}"))
    times = []
    for i in range(REPEATS):
        template = Template("StopEntry", {"case_id": f"probe-{resident + i}"})
        t0 = time.perf_counter()
        taken = core.take(template)
        times.append(time.perf_counter() - t0)
        if taken is None:
            raise RuntimeError("probe entry missing from the space")
    return statistics.median(times) * 1e6


def sweep_ms_records(records: int = RESIDENT) -> float:
    """Median milliseconds of one sweep with ``records`` finished transactions."""
    manager = TxnManager(SpaceCore())
    for _ in range(records):
        manager.commit(manager.create(60_000))
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        manager.sweep()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3
