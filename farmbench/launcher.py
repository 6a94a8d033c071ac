"""Start one spacefarm process (``serve`` or ``worker``) for the benchmark.

    python3 farmbench/launcher.py --parent PID [--trace-out FILE] serve|worker ...

Everything after the launcher's own flags goes to ``spacefarm.cli.main``
unchanged, so an untraced process is ``spacefarm serve`` / ``spacefarm
worker`` as an operator runs it. With ``--trace-out`` the launcher first
installs the span wrappers of ``tracing.py`` and, when the command returns
(SIGTERM makes both commands return), writes the spans to that file.

The process asks the kernel for SIGTERM when the benchmark driver ``PID``
dies, so a killed driver leaves no server or worker behind.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys

PR_SET_PDEATHSIG = 1


def _die_with_parent(parent: int) -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    libc.prctl(PR_SET_PDEATHSIG, signal.SIGTERM)
    if os.getppid() != parent:  # the driver died before prctl took effect
        raise SystemExit(1)


def main(argv: list[str]) -> int:
    parent = None
    trace_out = None
    while argv and argv[0].startswith("--"):
        flag, value, argv = argv[0], argv[1], argv[2:]
        if flag == "--parent":
            parent = int(value)
        elif flag == "--trace-out":
            trace_out = value
        else:
            print(f"launcher: unknown flag {flag}", file=sys.stderr)
            return 2
    if parent is not None:
        _die_with_parent(parent)
    recorder = None
    if trace_out:
        import tracing  # the launcher's own directory is sys.path[0]

        recorder = tracing.install("server" if argv[0] == "serve" else "worker")
    from spacefarm.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        if recorder is not None:
            recorder.dump(trace_out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
