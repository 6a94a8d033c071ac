"""Operator entry points: serve, master, worker, status.

Exit codes are a stable contract: 0 success, 1 runtime failure, 2 usage or
configuration error (argparse's own convention for bad flags).
"""

from __future__ import annotations

import argparse
import json
import logging
import signal
import sys
import threading

from . import wire
from .client import Session, parse_address
from .errors import ConfigError, ConnectionFailed, SpacefarmError
from .master import CaseConfig, Master
from .server import SpaceServer
from .worker import Worker


def _install_stop_handlers(stop: threading.Event) -> None:
    def handler(signum, frame):
        stop.set()

    signal.signal(signal.SIGINT, handler)
    signal.signal(signal.SIGTERM, handler)


def _cmd_serve(args: argparse.Namespace) -> int:
    try:
        host, port = parse_address(args.bind)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    server = SpaceServer(host=host, port=port)
    try:
        server.start()
    except OSError as exc:
        print(f"error: cannot bind {args.bind}: {exc}", file=sys.stderr)
        return 1
    print(f"listening on {host}:{server.address[1]}", file=sys.stderr, flush=True)
    stop = threading.Event()
    _install_stop_handlers(stop)
    try:
        stop.wait()
    except KeyboardInterrupt:
        pass
    server.shutdown()
    return 0


def _cmd_master(args: argparse.Namespace) -> int:
    try:
        config = CaseConfig.from_file(args.config)
        master = Master(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = master.run()
    except SpacefarmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report.to_json(), flush=True)
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    allowed = None
    if args.agents:
        allowed = [name.strip() for name in args.agents.split(",") if name.strip()]
    try:
        worker = Worker(
            space_address=args.space,
            scratch_dir=args.scratch,
            allowed_agents=allowed,
            worker_id=args.worker_id,
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stop = threading.Event()
    _install_stop_handlers(stop)
    try:
        worker.run(stop)
    except OSError as exc:
        print(f"error: scratch directory unusable: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    try:
        session = Session.connect(args.space)
    except ConnectionFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        status = session.admin_status(args.case)
        if not args.case:
            print(json.dumps(status, sort_keys=True))
            return 0
        snapshot = {**status["case"], "open_txns": status["open_txns"]}
        print(json.dumps(snapshot, sort_keys=True))
        return 0
    except SpacefarmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        session.close()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spacefarm",
        description="Tuple-space coordination for replicated-worker computing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the space/transaction server")
    serve.add_argument("--bind", default=f"0.0.0.0:{wire.DEFAULT_PORT}")
    serve.set_defaults(func=_cmd_serve)

    master = sub.add_parser("master", help="run one computing case")
    master.add_argument("--config", required=True)
    master.set_defaults(func=_cmd_master)

    worker = sub.add_parser("worker", help="run a computing worker")
    worker.add_argument("--space", default=f"127.0.0.1:{wire.DEFAULT_PORT}")
    worker.add_argument("--scratch", required=True)
    worker.add_argument("--agents", default="", help="comma-separated allow list")
    worker.add_argument("--worker-id", default=None)
    worker.set_defaults(func=_cmd_worker)

    status = sub.add_parser("status", help="query a running space")
    status.add_argument("--space", default=f"127.0.0.1:{wire.DEFAULT_PORT}")
    status.add_argument("--case", default=None)
    status.set_defaults(func=_cmd_status)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(name)s %(levelname)s %(message)s"
    )
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
