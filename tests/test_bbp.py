"""Pi hex-digit kernels against an arbitrary-precision oracle."""

import importlib.machinery
import importlib.util
import pathlib
import random
import subprocess
import sys
import tempfile
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pi_hex
from spacefarm.agents import bbp, _bbp_py
from spacefarm.errors import PositionOverflow


def _compiled_kernels():
    """[compiled kernel]: the installed one, or else one built by the
    project's setup.py into a temporary directory. [] when the optional
    build yields no extension (no C compiler)."""
    try:
        from spacefarm.agents import _bbp
    except ImportError:
        pass
    else:
        return [_bbp]
    root = pathlib.Path(__file__).resolve().parents[1]
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(
            [sys.executable, "setup.py", "-q", "build_ext",
             "--build-lib", tmp, "--build-temp", f"{tmp}/build"],
            cwd=root, check=True, capture_output=True,
        )
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = pathlib.Path(tmp, "spacefarm", "agents", "_bbp" + suffix)
            if path.exists():
                spec = importlib.util.spec_from_file_location(
                    "spacefarm.agents._bbp", path
                )
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                return [module]
    return []


# Both kernels are tested wherever a C compiler is present; without one only
# the pure kernel is built, and bbp re-exports it.
COMPILED = _compiled_kernels()
KERNELS = [_bbp_py, *COMPILED]


FIRST_80 = (
    "243F6A8885A308D313198A2E03707344"
    "A4093822299F31D0082EFA98EC4E6C89"
    "452821E638D01377"
)


def test_oracle_matches_known_prefix():
    assert pi_hex(1, 10) == "243F6A8885"
    assert pi_hex(11, 10) == "A308D31319"
    assert pi_hex(1, 80) == FIRST_80


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.BACKEND)
def test_known_digit_windows(kernel):
    assert kernel.hex_digits(1, 10) == "243F6A8885"
    assert kernel.hex_digits(11, 10) == "A308D31319"
    assert kernel.hex_digits(1, 80) == FIRST_80


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.BACKEND)
def test_random_positions_against_oracle(kernel):
    rng = random.Random(20260815)
    for _ in range(100):
        start = rng.randrange(1, 10_001)
        count = rng.randrange(1, 24)
        assert kernel.hex_digits(start, count) == pi_hex(start, count), (start, count)


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.BACKEND)
def test_windows_spanning_evaluation_boundaries(kernel):
    # The compiled kernel evaluates 16 digits at a time; straddle its
    # boundaries deliberately.
    assert kernel.hex_digits(1, 33) == pi_hex(1, 33)
    assert kernel.hex_digits(15, 4) == pi_hex(15, 4)
    assert kernel.hex_digits(16, 1) == pi_hex(16, 1)
    assert kernel.hex_digits(17, 16) == pi_hex(17, 16)


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.BACKEND)
def test_wide_windows_against_oracle(kernel):
    # The pure kernel's fixed-point width grows with count (4 bits a digit).
    rng = random.Random(20261019)
    for _ in range(20):
        start = rng.randrange(1, 10_001)
        count = rng.randrange(17, 301)
        assert kernel.hex_digits(start, count) == pi_hex(start, count), (start, count)


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.BACKEND)
def test_a_benchmark_sized_window_against_oracle(kernel):
    # bbp-digits parts are 32 digits near position 1e5.
    start = random.Random(20261019).randrange(100_001, 101_001)
    assert kernel.hex_digits(start, 32) == pi_hex(start, 32), start


@settings(max_examples=30, deadline=None)
@given(start=st.integers(1, 3_000), count=st.integers(1, 64))
def test_kernels_agree(start, count):
    results = {kernel.hex_digits(start, count) for kernel in KERNELS}
    assert len(results) == 1


def one_power_per_term(start, count):
    """The pure kernel's evaluation with a modular power of its own for every
    head term: the residues that the kernel's shared powers must reproduce,
    so the two agree exactly, not only to within the error bound."""
    d = start - 1
    bits = 4 * count + 64
    acc = 0
    for e, m1 in zip(range(d, -1, -1), range(1, 8 * d + 2, 8)):
        m4, m5, m6 = m1 + 3, m1 + 4, m1 + 5
        r = pow(16, e, m1 * m4 * m5 * m6)
        acc += (
            ((r % m1) << bits + 2) // m1
            - ((r % m4) << bits + 1) // m4
            - ((r % m5) << bits) // m5
            - ((r % m6) << bits) // m6
        )
    m1 = 8 * d + 1
    shift = bits + 2
    while True:
        m1 += 8
        shift -= 4
        lead = (1 << shift) // m1
        if lead == 0:
            break
        acc += (
            lead
            - (1 << shift - 1) // (m1 + 3)
            - (1 << shift - 2) // (m1 + 4)
            - (1 << shift - 2) // (m1 + 5)
        )
    x = acc & ((1 << bits) - 1)
    return f"{x >> 64:0{count}X}"


def test_shared_powers_match_one_power_per_term_at_every_grouping():
    # Starts 1 and 2 have fewer than three head terms; 1..12 give every
    # remainder of the d + 1 head terms mod 3 several times.
    for start in range(1, 13):
        for count in (1, 16, 17, 64):
            expected = one_power_per_term(start, count)
            assert _bbp_py.hex_digits(start, count) == expected, (start, count)


@settings(max_examples=30, deadline=None)
@given(start=st.integers(1, 20_000), count=st.integers(1, 300))
def test_shared_powers_match_one_power_per_term(start, count):
    assert _bbp_py.hex_digits(start, count) == one_power_per_term(start, count)


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.BACKEND)
def test_argument_validation(kernel):
    for start, count in ((0, 1), (-3, 4), (1, 0), (5, -1)):
        with pytest.raises(ValueError):
            kernel.hex_digits(start, count)


def test_parse_range():
    assert bbp.parse_range("1 80") == (1, 80)
    assert bbp.parse_range("  400\t16 ") == (400, 16)
    for bad in ("", "12", "1 2 3", "x y", "0 5", "3 0"):
        with pytest.raises(ValueError):
            bbp.parse_range(bad)


def test_execute_produces_digit_bytes():
    assert bbp.execute(b"1 16", {}, None) == pi_hex(1, 16).encode("ascii")


def test_execute_guards_position_overflow():
    with pytest.raises(PositionOverflow):
        bbp.execute(b"999 3", {"max_position": "1000"}, None)
    # the cap itself is still allowed
    assert bbp.execute(b"999 2", {"max_position": "1000"}, None) == pi_hex(
        999, 2
    ).encode("ascii")


@pytest.mark.parametrize("kernel", COMPILED, ids=lambda k: k.BACKEND)
def test_compiled_kernel_releases_the_interpreter_lock(kernel):
    # A worker's heartbeat thread renews its task lease while the agent runs;
    # a kernel that held the lock would let the lease expire.
    ticks = 0
    stop = threading.Event()

    def tick():
        nonlocal ticks
        while not stop.is_set():
            ticks += 1
            time.sleep(0.001)

    ticker = threading.Thread(target=tick, daemon=True)
    ticker.start()
    try:
        before = ticks
        kernel.hex_digits(200_000, 16)
        during = ticks - before
    finally:
        stop.set()
        ticker.join(timeout=5)
    assert not ticker.is_alive()
    assert during >= 10, during
    with pytest.raises(OverflowError):
        kernel.hex_digits(2**70, 1)
