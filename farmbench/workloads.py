"""The four workloads: seeded inputs, case configurations and expected outputs.

A workload hands the driver rounds of cases. A round is one or more cases
started together (each at its own offset) and waited for together; the driver
runs rounds in a closed loop, so the next round starts only when the previous
one has ended. Every expected output is computed here, before and outside any
timed region, by a method independent of the farm:

* echo: the input bytes themselves;
* bbp-pi: an arbitrary-precision evaluation of pi with mpmath;
* cholesky-rowblock: the P=1 agent run in the driver process.

Why these four is written down in NOTES.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from spacefarm.agents import cholesky

WORKLOAD_NAMES = ("echo-fanout", "bbp-digits", "cholesky-rows", "mixed-tenants")

ECHO_PARTS = 128
ECHO_PART_BYTES = 512
BBP_DIGITS = 256
BBP_PARTS = 8
BBP_FIRST_START = 100_001
BBP_LAST_START = 101_000
CHOLESKY_N = 256
CHOLESKY_P = 2
MIXED_LONG_DELAY_MS = 5_000
MIXED_SHORT_OFFSET_S = 0.5
MIXED_SHORT_PARTS = 8


@dataclass
class Case:
    name: str  # unique within a run; also the spacefarm case_id
    agent_id: str
    input: bytes
    cut: str
    num_parts: int
    expected: bytes
    agent_params: dict = field(default_factory=dict)
    offset_s: float = 0.0  # start delay within its round
    measured: bool = True  # counts toward case_s and tasks_per_s


def pi_hex(last: int) -> str:
    """Fractional hex digits 1..last of pi, uppercase, by mpmath."""
    import mpmath

    with mpmath.workprec(4 * last + 64):
        scaled = mpmath.floor((mpmath.pi - 3) * mpmath.power(16, last))
    return format(int(scaled), "X").zfill(last)


def spd_matrix_text(rng: random.Random, n: int) -> str:
    """A symmetric, strictly diagonally dominant (hence SPD) n x n matrix."""
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            rows[i][j] = rows[j][i] = rng.uniform(-1.0, 1.0)
    for i in range(n):
        rows[i][i] = n + rng.random() + sum(abs(v) for v in rows[i])
    return cholesky.format_matrix(rows)


def cholesky_reference(text: str) -> bytes:
    """Factor with the P=1 agent in this process; the farm must match it."""
    rows = cholesky.parse_matrices(text)[0]
    size = len(rows)
    part = cholesky.format_part(0, 0, 1, size, dict(enumerate(rows)))
    return cholesky.assemble([cholesky.execute(part, {}, None)])


class Workload:
    """Rounds of cases for one workload, all derived from ``seed``."""

    def __init__(self, name: str, seed: int) -> None:
        if name not in WORKLOAD_NAMES:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOAD_NAMES}")
        self.name = name
        self.seed = seed
        self._rng = random.Random(f"{name}/{seed}")
        self._pi = pi_hex(BBP_LAST_START + BBP_DIGITS) if name == "bbp-digits" else ""
        self._matrix = self._matrix_ref = None
        if name == "cholesky-rows":
            self._matrix = spd_matrix_text(self._rng, CHOLESKY_N).encode("ascii")
            self._matrix_ref = cholesky_reference(self._matrix.decode("ascii"))

    def _id(self, label: str, index: int) -> str:
        return f"{self.name}-{self.seed}-{label}-{index}"

    def warmup(self) -> list[Case]:
        """One small round of the same agents, run after set-up, not timed."""
        rng = self._rng
        if self.name == "bbp-digits":
            return [
                Case(self._id("warm", 0), "bbp-pi", b"1 32", "bbp_range", 2,
                     self._pi[:32].encode("ascii"))
            ]
        if self.name == "cholesky-rows":
            text = spd_matrix_text(rng, 8)
            return [
                Case(self._id("warm", 0), "cholesky-rowblock", text.encode("ascii"),
                     "cholesky_rowblock", CHOLESKY_P, cholesky_reference(text))
            ]
        data = rng.randbytes(4 * 64)
        return [Case(self._id("warm", 0), "echo", data, "byte_chunk", 4, data)]

    def round(self, index: int) -> list[Case]:
        rng = self._rng
        if self.name == "echo-fanout":
            data = rng.randbytes(ECHO_PARTS * ECHO_PART_BYTES)
            return [Case(self._id("case", index), "echo", data, "byte_chunk",
                         ECHO_PARTS, data)]
        if self.name == "bbp-digits":
            start = rng.randint(BBP_FIRST_START, BBP_LAST_START)
            digits = self._pi[start - 1 : start - 1 + BBP_DIGITS].encode("ascii")
            return [Case(self._id("case", index), "bbp-pi",
                         f"{start} {BBP_DIGITS}".encode("ascii"), "bbp_range",
                         BBP_PARTS, digits)]
        if self.name == "cholesky-rows":
            return [Case(self._id("case", index), "cholesky-rowblock", self._matrix,
                         "cholesky_rowblock", CHOLESKY_P, self._matrix_ref)]
        long_data = rng.randbytes(ECHO_PART_BYTES)
        short_data = rng.randbytes(MIXED_SHORT_PARTS * ECHO_PART_BYTES)
        return [
            Case(self._id("long", index), "echo", long_data, "byte_chunk", 1,
                 long_data, agent_params={"delay_ms": str(MIXED_LONG_DELAY_MS)},
                 measured=False),
            Case(self._id("short", index), "echo", short_data, "byte_chunk",
                 MIXED_SHORT_PARTS, short_data, offset_s=MIXED_SHORT_OFFSET_S),
        ]
