"""BBP pi-digit agent: the part text names a position range, the output is
the uppercase hex digits of pi over that range.

The compiled C kernel is used when the extension was built; otherwise the
pure-Python twin is. Both produce identical digits; they differ only in speed.
"""

from __future__ import annotations

from ..errors import PositionOverflow

try:
    from . import _bbp as _kernel  # type: ignore[attr-defined]
except ImportError:
    from . import _bbp_py as _kernel

BACKEND: str = _kernel.BACKEND
hex_digits = _kernel.hex_digits

DEFAULT_MAX_POSITION = 10_000_000


def parse_range(text: str) -> tuple[int, int]:
    """Parse "start count" into a validated position range."""
    fields = text.split()
    if len(fields) != 2:
        raise ValueError(f"expected 'start count', got {text!r}")
    start, count = int(fields[0]), int(fields[1])
    if start < 1:
        raise ValueError(f"start must be >= 1, got {start}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return start, count


def execute(data: bytes, params: dict, space=None) -> bytes:
    start, count = parse_range(data.decode("utf-8"))
    max_position = int(params.get("max_position", DEFAULT_MAX_POSITION))
    last = start + count - 1
    if last > max_position:
        raise PositionOverflow(
            f"position {last} exceeds the precision guard ({max_position})"
        )
    return hex_digits(start, count).encode("ascii")
