"""Agent registry and the echo agent."""

import time

import pytest

from spacefarm.agents import (
    AgentDescriptor,
    concat_assemble,
    register,
    registered_ids,
    resolve,
)
from spacefarm.agents import _REGISTRY
from spacefarm.errors import AgentNotFound, VersionMismatch


def test_builtin_agents_are_registered():
    assert {"echo", "bbp-pi", "cholesky-rowblock"} <= set(registered_ids())
    for agent_id in ("echo", "bbp-pi", "cholesky-rowblock"):
        descriptor = resolve(agent_id, "1")
        assert descriptor.agent_id == agent_id


def test_resolve_unknown_agent():
    with pytest.raises(AgentNotFound):
        resolve("no-such-agent", "1")


def test_resolve_wrong_version_lists_available():
    with pytest.raises(VersionMismatch) as info:
        resolve("echo", "99")
    assert "'echo'" in str(info.value) and "99" in str(info.value)


def test_register_and_cleanup():
    descriptor = AgentDescriptor("temp-agent", "1", lambda data, params, space=None: data)
    register(descriptor)
    try:
        assert resolve("temp-agent", "1") is descriptor
    finally:
        del _REGISTRY[descriptor.key]
    with pytest.raises(AgentNotFound):
        resolve("temp-agent", "1")


def test_echo_returns_input():
    echo = resolve("echo", "1")
    assert echo.execute(b"payload", {}, None) == b"payload"
    assert echo.assemble([b"a", b"b"]) == b"ab"


def test_echo_delay_param():
    echo = resolve("echo", "1")
    started = time.monotonic()
    echo.execute(b"x", {"delay_ms": "120"}, None)
    assert time.monotonic() - started >= 0.1


def test_concat_assemble():
    assert concat_assemble([]) == b""
    assert concat_assemble([b"12", b"", b"3"]) == b"123"
