"""Exception hierarchy and the stable wire error codes they map to."""

from __future__ import annotations


class SpacefarmError(Exception):
    """Base class for every error raised by this package."""

    code = "INTERNAL"


class MalformedPayload(SpacefarmError):
    code = "MALFORMED_PAYLOAD"


class InvalidTemplate(SpacefarmError):
    code = "INVALID_TEMPLATE"


class TxnNotOpen(SpacefarmError):
    code = "TXN_NOT_OPEN"


class FrameTooLarge(SpacefarmError):
    code = "FRAME_TOO_LARGE"


class ProtocolMismatch(SpacefarmError):
    code = "PROTOCOL_MISMATCH"


class ConnectionFailed(SpacefarmError):
    code = "CONNECTION_FAILED"


class SessionClosed(SpacefarmError):
    code = "SESSION_CLOSED"


class SpaceUnreachable(SpacefarmError):
    code = "SPACE_UNREACHABLE"


class BadRequest(SpacefarmError):
    code = "BAD_REQUEST"


class UnknownOp(SpacefarmError):
    code = "UNKNOWN_OP"


class CutFailed(SpacefarmError):
    code = "CUT_FAILED"


class MaxAttemptsExceeded(SpacefarmError):
    code = "MAX_ATTEMPTS_EXCEEDED"


class ConfigError(SpacefarmError):
    code = "CONFIG_ERROR"


class AgentNotFound(SpacefarmError):
    code = "AGENT_NOT_FOUND"


class VersionMismatch(SpacefarmError):
    code = "VERSION_MISMATCH"


class AgentFailure(SpacefarmError):
    code = "AGENT_FAILURE"


class NotPositiveDefinite(AgentFailure):
    code = "NOT_POSITIVE_DEFINITE"


class RowTimeout(AgentFailure):
    code = "ROW_TIMEOUT"


class PositionOverflow(AgentFailure):
    code = "POSITION_OVERFLOW"


_CODE_TO_EXC: dict[str, type[SpacefarmError]] = {}
for _cls in list(globals().values()):
    if isinstance(_cls, type) and issubclass(_cls, SpacefarmError):
        _CODE_TO_EXC.setdefault(_cls.code, _cls)
_CODE_TO_EXC["INTERNAL"] = SpacefarmError


def error_code(exc: BaseException) -> str:
    """Stable string identifier for an exception, for the wire protocol."""
    if isinstance(exc, SpacefarmError):
        return exc.code
    return "INTERNAL"


def from_code(code: str, message: str) -> SpacefarmError:
    """Rebuild the closest exception class from a wire error code."""
    cls = _CODE_TO_EXC.get(code, SpacefarmError)
    exc = cls(message)
    exc.code = code
    return exc
