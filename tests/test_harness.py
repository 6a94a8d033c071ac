"""Scenario runner: spec validation, helpers, and one small live run."""

import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from spacefarm.execlog import load_events
from spacefarm.harness import (
    Fault,
    Scenario,
    check_exactly_once,
    free_port,
    run_scenario,
)


def scenario_dict(**overrides):
    obj = {
        "name": "smoke",
        "topology": {"workers": 2},
        "case": {"case_id": "c1"},
        "assertions": ["case_completes"],
    }
    obj.update(overrides)
    return obj


def test_scenario_from_dict_defaults():
    scenario = Scenario.from_dict(scenario_dict())
    assert scenario.workers == 2
    assert scenario.start_offsets == [0.0, 0.0]
    assert scenario.faults == []
    assert scenario.timeout_s == 120.0


def test_scenario_parses_faults_and_offsets():
    obj = scenario_dict(
        topology={"workers": 3, "start_offsets": [0, 0, 2.5]},
        faults=[
            {"target": 1, "trigger": "after-claim", "action": "kill"},
            {"target": 2, "trigger": "after-claim", "action": "pause", "pause_ms": 50},
        ],
    )
    scenario = Scenario.from_dict(obj)
    assert scenario.start_offsets == [0.0, 0.0, 2.5]
    assert scenario.faults[0] == Fault(target=1, trigger="after-claim", action="kill")
    assert scenario.faults[1].pause_ms == 50


@pytest.mark.parametrize(
    "mutation",
    [
        {"topology": {"workers": 0}},
        {"topology": {"workers": 2, "start_offsets": [0.0]}},
        {"faults": [{"target": 0, "trigger": "no-phase", "action": "kill"}]},
        {"faults": [{"target": 0, "trigger": "after-claim", "action": "explode"}]},
        {"faults": [{"target": 5, "trigger": "after-claim", "action": "kill"}]},
        {"assertions": ["not_an_assertion"]},
    ],
)
def test_scenario_rejects_bad_specs(mutation):
    with pytest.raises(ValueError):
        Scenario.from_dict(scenario_dict(**mutation))


def test_scenario_requires_core_keys():
    for key in ("name", "topology", "case"):
        obj = scenario_dict()
        del obj[key]
        with pytest.raises(ValueError):
            Scenario.from_dict(obj)


def test_fault_env_encoding():
    assert Fault(0, "after-claim", "kill").to_env() == "after-claim:kill"
    assert (
        Fault(0, "before-result-write", "pause", pause_ms=250).to_env()
        == "before-result-write:pause:250"
    )


def test_check_exactly_once_flags_duplicates_and_gaps():
    good = [{"event": "commit", "part_index": i} for i in range(3)]
    assert check_exactly_once(good, 3)
    assert not check_exactly_once(good + [{"event": "commit", "part_index": 1}], 3)
    assert not check_exactly_once(good[:2], 3)
    assert not check_exactly_once([], 1)


def test_free_port_is_bindable():
    port = free_port()
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", port))


def test_small_scenario_runs_end_to_end(tmp_path):
    input_path = tmp_path / "input.bin"
    input_path.write_bytes(b"0123456789abcdef")
    scenario = Scenario.from_dict(
        {
            "name": "echo-smoke",
            "topology": {"workers": 1},
            "case": {
                "case_id": "smoke-1",
                "agent_id": "echo",
                "agent_version": "1",
                "agent_params": {},
                "input_path": str(input_path),
                "output_path": str(tmp_path / "out.bin"),
                "cut_strategy": {"name": "byte_chunk"},
                "num_parts": 2,
                "initial_workers": 1,
                "task_lease_ms": 5_000,
            },
            "assertions": ["case_completes", "exactly_once", "no_replays"],
            "timeout_s": 60,
        }
    )
    report = run_scenario(scenario, str(tmp_path / "artifacts"))
    assert report.passed
    assert (tmp_path / "out.bin").read_bytes() == b"0123456789abcdef"
    assert (tmp_path / "artifacts" / "scenario-report.json").exists()


def test_a_killed_workers_part_is_claimed_again_long_before_its_lease(tmp_path):
    """A worker killed with a part in hand drops its connection, and the
    server aborts its task transaction at once: the idle worker claims the
    part within 250 ms, not after the 10 s task lease.  The killed worker
    starts later, so the other has finished its own part by the kill, and
    its part runs long enough for the heartbeat to renew it at the task
    lease."""
    input_path = tmp_path / "input.bin"
    input_path.write_bytes(b"ab")
    artifacts = tmp_path / "artifacts"
    scenario = Scenario.from_dict(
        {
            "name": "kill-drop",
            "topology": {"workers": 2, "start_offsets": [0.5, 0.0]},
            "case": {
                "case_id": "kill-drop",
                "agent_id": "echo",
                "agent_version": "1",
                "agent_params": {"delay_ms": 1_000},
                "input_path": str(input_path),
                "output_path": str(tmp_path / "out.bin"),
                "cut_strategy": {"name": "byte_chunk"},
                "num_parts": 2,
                "initial_workers": 2,
                "task_lease_ms": 10_000,
                "max_attempts": 3,
            },
            "faults": [
                {"target": 0, "trigger": "before-result-write", "action": "kill"}
            ],
            "assertions": ["case_completes", "exactly_once", "replays_at_least_one"],
            "timeout_s": 60,
        }
    )
    run_scenario(scenario, str(artifacts))
    events = load_events([str(path) for path in artifacts.glob("*.jsonl")])
    (kill,) = [e for e in events if e["event"] == "fault" and e["action"] == "kill"]
    again = [
        e["ts"] - kill["ts"]
        for e in events
        if e["event"] == "claimed"
        and e["part_index"] == kill["part_index"]
        and e["ts"] > kill["ts"]
    ]
    assert again and again[0] < 0.25, again
    assert (tmp_path / "out.bin").read_bytes() == b"ab"


@pytest.mark.skipif(sys.platform != "linux", reason="PR_SET_PDEATHSIG is Linux-only")
def test_harness_children_die_with_the_process_that_started_them(tmp_path):
    """A test process killed mid-scenario leaves no server listening."""
    script = (
        "import sys, time\n"
        "from pathlib import Path\n"
        "from spacefarm.harness import Scenario, _Run\n"
        "spec = {'name': 'orphan', 'topology': {'workers': 1}, 'case': {}}\n"
        "run = _Run(Scenario.from_dict(spec), Path(sys.argv[1]))\n"
        "run._start_server()\n"
        "print(run.port, run.server.pid, flush=True)\n"
        "time.sleep(60)\n"
    )
    starter = subprocess.Popen(
        [sys.executable, "-c", script, str(tmp_path)], stdout=subprocess.PIPE, text=True
    )
    try:
        port, server_pid = map(int, starter.stdout.readline().split())
    finally:
        starter.kill()
        starter.wait()
        starter.stdout.close()
    deadline = time.monotonic() + 5
    while True:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=1).close()
        except OSError:
            return  # the server is gone
        if time.monotonic() > deadline:
            os.kill(server_pid, signal.SIGTERM)  # still listening, so still ours
            pytest.fail("the harness server outlived its parent")
        time.sleep(0.05)
