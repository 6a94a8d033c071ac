"""Entry kinds stored in the space and the payload codec.

Entries are immutable values; the space never mutates one in place.  A change
is always expressed as take-then-rewrite of a whole entry.  Each kind carries
a ``kind`` tag used for template matching and for the wire representation
(a flat JSON object with the ``kind`` key plus the entry fields).

Work is a bag of tasks: one ``TaskEntry`` per part, written once, carrying
the part's data. A worker claims it by taking it under its own transaction,
so no two workers can hold it; an abort puts it back, and a commit consumes
it for good.

Payload-like fields (``payload``, ``values``) are single strings, opaque to
the matcher: templates may only constrain scalar fields. A subscription event
carries an entry's ``event_fields``: its kind and matchable fields, never its
bulk data.
"""

from __future__ import annotations

import base64
import binascii
import uuid
from dataclasses import dataclass, field, fields
from typing import Any, ClassVar

from .errors import InvalidTemplate, MalformedPayload

# Fields that hold bulk data or nested structures; never matchable.
_UNMATCHABLE_FIELDS = {"payload", "values"}


def new_entry_id() -> str:
    """Random 128-bit identifier in canonical 8-4-4-4-12 hex form."""
    return str(uuid.uuid4())


def encode_payload(data: bytes) -> str:
    """Bytes to standard-alphabet Base64 text with padding, no line breaks."""
    return base64.b64encode(data).decode("ascii")


def decode_payload(text: str) -> bytes:
    """Inverse of encode_payload; rejects illegal characters and bad padding."""
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except (binascii.Error, ValueError, UnicodeEncodeError) as exc:
        raise MalformedPayload(f"invalid base64 payload: {exc}") from exc


@dataclass(frozen=True)
class TaskEntry:
    """One part of a case waiting to be computed, with the part's data.

    ``lease_ms`` is the case's task lease: the claiming worker renews its
    transaction at that lease while it works on the part. ``agent_id`` is the
    case's agent, so a worker with an allow list claims only what it may run.
    """

    kind: ClassVar[str] = "TaskEntry"
    case_id: str
    part_index: int
    lease_ms: int
    agent_id: str
    payload: str  # Base64 text


@dataclass(frozen=True)
class ResultEntry:
    kind: ClassVar[str] = "ResultEntry"
    case_id: str
    part_index: int
    payload: str  # Base64 text


@dataclass(frozen=True)
class ConfigurationEntry:
    kind: ClassVar[str] = "ConfigurationEntry"
    case_id: str
    agent_id: str
    agent_version: str
    agent_params: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class StopEntry:
    kind: ClassVar[str] = "StopEntry"
    case_id: str


@dataclass(frozen=True)
class RowEntry:
    """A block of factor rows published for sibling tasks of a
    row-partitioned solve.

    row_index is the block's first row, and values holds the block's rows
    in order (row j has j + 1 values) as one string of space-separated
    decimals, which round-trip exact. Written without a transaction so
    tasks running under other transactions can read it; the master sweeps
    leftovers when the case finishes.
    """

    kind: ClassVar[str] = "RowEntry"
    case_id: str
    matrix_id: str
    row_index: int
    values: str = ""


Entry = (
    ResultEntry
    | ConfigurationEntry
    | StopEntry
    | TaskEntry
    | RowEntry
)

ENTRY_KINDS: dict[str, type] = {
    cls.kind: cls
    for cls in (
        ResultEntry,
        ConfigurationEntry,
        StopEntry,
        TaskEntry,
        RowEntry,
    )
}


# Each kind's field names in declaration order, read once: the codec and
# every Template need them, and dataclasses.fields() is slow per call.
_FIELD_NAMES: dict[str, tuple[str, ...]] = {
    kind: tuple(f.name for f in fields(cls)) for kind, cls in ENTRY_KINDS.items()
}
_MATCHABLE: dict[str, frozenset[str]] = {
    kind: frozenset(names) - _UNMATCHABLE_FIELDS
    for kind, names in _FIELD_NAMES.items()
}


def matchable_fields(kind: str) -> frozenset[str]:
    return _MATCHABLE[kind]


def event_fields(entry: Entry) -> dict[str, Any]:
    """The entry's kind and matchable fields, as a subscription event carries
    them."""
    return {
        name: value
        for name, value in entry_to_wire(entry).items()
        if name not in _UNMATCHABLE_FIELDS
    }


def entry_to_wire(entry: Entry) -> dict[str, Any]:
    obj: dict[str, Any] = {"kind": entry.kind}
    for name in _FIELD_NAMES[entry.kind]:
        value = getattr(entry, name)
        if name == "agent_params":
            value = dict(value)
        obj[name] = value
    return obj


def entry_from_wire(obj: dict[str, Any]) -> Entry:
    kind = obj.get("kind")
    cls = ENTRY_KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown entry kind: {kind!r}")
    kwargs: dict[str, Any] = {}
    for name in _FIELD_NAMES[kind]:
        if name not in obj:
            raise ValueError(f"{kind} missing field {name!r}")
        value = obj[name]
        if name in _UNMATCHABLE_FIELDS and not isinstance(value, str):
            raise ValueError(f"{kind} field {name!r} must be text")
        if name in ("part_index", "row_index", "lease_ms"):
            value = int(value)
        kwargs[name] = value
    return cls(**kwargs)


@dataclass(frozen=True)
class Template:
    """Partial entry: a kind tag plus exact-equality constraints.

    Unconstrained fields are wildcards.  A constraint whose value is a list
    matches any of its members.  Constraint keys must name scalar fields of
    the kind; bulk fields are rejected at construction time.
    """

    kind: str
    constraints: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ENTRY_KINDS:
            raise InvalidTemplate(f"unknown entry kind: {self.kind!r}")
        allowed = matchable_fields(self.kind)
        bad = set(self.constraints) - allowed
        if bad:
            raise InvalidTemplate(
                f"non-matchable fields for {self.kind}: {sorted(bad)}"
            )

    def matches(self, entry: Entry) -> bool:
        if entry.kind != self.kind:
            return False
        return all(
            getattr(entry, name) in value
            if isinstance(value, list)
            else getattr(entry, name) == value
            for name, value in self.constraints.items()
        )

    def to_wire(self) -> dict[str, Any]:
        return {"kind": self.kind, "constraints": dict(self.constraints)}

    @classmethod
    def from_wire(cls, obj: dict[str, Any]) -> "Template":
        try:
            return cls(kind=obj["kind"], constraints=dict(obj.get("constraints") or {}))
        except (KeyError, TypeError) as exc:
            raise InvalidTemplate(f"malformed template: {exc}") from exc

