"""Agent registry: the named, versioned computations workers can run.

Workers resolve agents locally by (agent_id, version) carried in the case's
ConfigurationEntry, so a case can only run where the agent is installed.
Every shipped agent is deterministic: identical (input, params) produce
identical output bytes on any worker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

from ..entries import Entry, Template
from ..errors import AgentNotFound, VersionMismatch

CASE_ID_PARAM = "_case_id"  # injected by the worker, reserved


class SpaceHandle(Protocol):
    """Minimal space access granted to an executing agent."""

    def write(self, entry: Entry) -> int: ...

    def read(self, template: Template, timeout_ms: int | None = 0) -> Entry | None: ...


ExecuteFn = Callable[[bytes, dict, "SpaceHandle | None"], bytes]
AssembleFn = Callable[[list[bytes]], bytes]


def concat_assemble(results: list[bytes]) -> bytes:
    return b"".join(results)


@dataclass(frozen=True)
class AgentDescriptor:
    agent_id: str
    version: str
    execute: ExecuteFn
    assemble: AssembleFn = field(default=concat_assemble)

    @property
    def key(self) -> tuple[str, str]:
        return (self.agent_id, self.version)


_REGISTRY: dict[tuple[str, str], AgentDescriptor] = {}


def register(descriptor: AgentDescriptor) -> AgentDescriptor:
    _REGISTRY[descriptor.key] = descriptor
    return descriptor


def resolve(agent_id: str, version: str) -> AgentDescriptor:
    descriptor = _REGISTRY.get((agent_id, version))
    if descriptor is not None:
        return descriptor
    available = sorted(v for (a, v) in _REGISTRY if a == agent_id)
    if available:
        raise VersionMismatch(
            f"agent {agent_id!r} has versions {available}, not {version!r}"
        )
    raise AgentNotFound(f"no agent registered as {agent_id!r}")


def registered_ids() -> list[str]:
    return sorted({a for (a, _) in _REGISTRY})


from . import bbp, cholesky, echo  # noqa: E402  (registration side effects)

register(AgentDescriptor("echo", "1", echo.execute))
register(AgentDescriptor("bbp-pi", "1", bbp.execute))
register(
    AgentDescriptor(
        "cholesky-rowblock", "1", cholesky.execute, assemble=cholesky.assemble
    )
)

__all__ = [
    "AgentDescriptor",
    "CASE_ID_PARAM",
    "SpaceHandle",
    "concat_assemble",
    "register",
    "registered_ids",
    "resolve",
]
