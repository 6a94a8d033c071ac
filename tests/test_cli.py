"""Command line entry points and their exit-code contract."""

import json
import threading
import time

import pytest

from conftest import make_case_config, running_workers
from spacefarm.cli import build_parser, main
from spacefarm.master import Master
from spacefarm.worker import FaultInjector, _Fault


def test_parser_knows_all_commands():
    parser = build_parser()
    for argv in (
        ["serve", "--bind", "127.0.0.1:0"],
        ["master", "--config", "case.json"],
        ["worker", "--scratch", "/tmp/s"],
        ["status", "--space", "127.0.0.1:1", "--case", "c1"],
    ):
        args = parser.parse_args(argv)
        assert callable(args.func)


def test_parser_requires_command():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([])
    assert exc.value.code == 2


def test_master_missing_config_is_usage_error(tmp_path, capsys):
    code = main(["master", "--config", str(tmp_path / "absent.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_master_unknown_agent_is_usage_error(tmp_path, capsys):
    config = {
        "case_id": "c",
        "space_address": "127.0.0.1:1",
        "agent_id": "nope",
        "agent_version": "1",
        "agent_params": {},
        "input_path": str(tmp_path / "in"),
        "output_path": str(tmp_path / "out"),
        "cut_strategy": {"name": "byte_chunk"},
        "num_parts": 1,
        "initial_workers": 1,
        "task_lease_ms": 5000,
    }
    path = tmp_path / "case.json"
    path.write_text(json.dumps(config))
    code = main(["master", "--config", str(path)])
    assert code == 2
    assert "no agent registered" in capsys.readouterr().err


def test_master_unreachable_space_is_runtime_error(tmp_path, capsys):
    (tmp_path / "in").write_bytes(b"abcd")
    config = {
        "case_id": "c",
        "space_address": "127.0.0.1:1",
        "agent_id": "echo",
        "agent_version": "1",
        "agent_params": {},
        "input_path": str(tmp_path / "in"),
        "output_path": str(tmp_path / "out"),
        "cut_strategy": {"name": "byte_chunk"},
        "num_parts": 1,
        "initial_workers": 1,
        "task_lease_ms": 5000,
    }
    path = tmp_path / "case.json"
    path.write_text(json.dumps(config))
    code = main(["master", "--config", str(path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_status_against_dead_address(capsys):
    code = main(["status", "--space", "127.0.0.1:1"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_status_reports_running_server(address, capsys):
    code = main(["status", "--space", address])
    assert code == 0
    out = capsys.readouterr().out
    status = json.loads(out)
    assert "open_txns" in status
    assert "entries" in status


def test_status_reports_case_snapshot(address, capsys):
    code = main(["status", "--space", address, "--case", "case-zzz"])
    assert code == 0
    snapshot = json.loads(capsys.readouterr().out)
    assert snapshot["case_id"] == "case-zzz"
    assert snapshot["tasks"] == {"wait": 0, "on": 0, "computed": 0}
    assert snapshot["row_entries"] == 0


def test_status_counts_a_task_held_by_a_paused_worker(tmp_path, address, capsys):
    config = make_case_config(
        tmp_path, address, input_bytes=b"x", case_id="held", num_parts=1
    )
    pause = _Fault(phase="after-claim", action="pause", pause_ms=2_000)
    with running_workers(address, 1, tmp_path, injectors={0: FaultInjector([pause])}):
        master = threading.Thread(target=Master(config).run, daemon=True)
        master.start()
        for _ in range(100):
            assert main(["status", "--space", address, "--case", "held"]) == 0
            snapshot = json.loads(capsys.readouterr().out)
            if snapshot["tasks"]["on"]:
                break
            time.sleep(0.05)
        master.join(timeout=30)
    assert snapshot["tasks"] == {"wait": 0, "on": 1, "computed": 0}
    assert not master.is_alive()


def test_serve_bad_bind_is_usage_error(capsys):
    code = main(["serve", "--bind", "not-an-address"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_worker_rejects_bad_scratch(tmp_path, capsys):
    blocker = tmp_path / "występ"
    blocker.write_text("a file, not a directory")
    code = main(
        [
            "worker",
            "--space",
            "127.0.0.1:1",
            "--scratch",
            str(blocker / "nested"),
        ]
    )
    assert code in (1, 2)
