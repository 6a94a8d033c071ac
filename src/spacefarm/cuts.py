"""Cut strategies: case-specific rules dividing a source file into parts.

Every strategy must produce exactly num_parts parts; a mismatch between the
input and the requested part count is a configuration error, not something to
silently round away.
"""

from __future__ import annotations

from typing import Callable

from .agents import cholesky
from .errors import CutFailed


def bbp_range(data: bytes, num_parts: int, params: dict) -> list[bytes]:
    """Split a "start count" digit range into contiguous sub-ranges."""
    try:
        fields = data.decode("utf-8").split()
        if len(fields) != 2:
            raise ValueError(f"expected 'start count', got {data!r}")
        start, count = int(fields[0]), int(fields[1])
    except (UnicodeDecodeError, ValueError) as exc:
        raise CutFailed(str(exc)) from exc
    if start < 1 or count < 1:
        raise CutFailed(f"positions must be positive, got start={start} count={count}")
    if count < num_parts:
        raise CutFailed(f"cannot cut {count} digits into {num_parts} parts")
    base, extra = divmod(count, num_parts)
    parts = []
    pos = start
    for index in range(num_parts):
        span = base + (1 if index < extra else 0)
        parts.append(f"{pos} {span}".encode("ascii"))
        pos += span
    return parts


def byte_chunk(data: bytes, num_parts: int, params: dict) -> list[bytes]:
    """Fixed-size chunks; the final chunk carries the remainder."""
    chunk = params.get("chunk_size")
    if chunk is None:
        chunk = -(-len(data) // num_parts) if num_parts <= len(data) else 0
    chunk = int(chunk)
    if chunk < 1:
        raise CutFailed(f"cannot cut {len(data)} bytes into {num_parts} parts")
    parts = [data[i : i + chunk] for i in range(0, len(data), chunk)]
    if len(parts) != num_parts:
        raise CutFailed(
            f"chunk size {chunk} yields {len(parts)} parts, config says {num_parts}"
        )
    return parts


def _matrix_tokens(data: bytes) -> list[list[list[str]]]:
    """The input's matrices, each as its rows' tokens.

    Every matrix is parsed once to validate it; parts then carry the tokens
    as written, so no value is formatted again.
    """
    try:
        blocks = cholesky.matrix_blocks(data.decode("utf-8"))
        return [cholesky.split_matrix_block(block)[0] for block in blocks]
    except (UnicodeDecodeError, ValueError) as exc:
        raise CutFailed(str(exc)) from exc


def matrix_set(data: bytes, num_parts: int, params: dict) -> list[bytes]:
    """One whole matrix per part; each task runs its own full factorization."""
    matrices = _matrix_tokens(data)
    if len(matrices) != num_parts:
        raise CutFailed(f"input holds {len(matrices)} matrices, config says {num_parts}")
    return [
        cholesky.part_from_tokens(index, 0, 1, len(rows), dict(enumerate(rows)))
        for index, rows in enumerate(matrices)
    ]


def cholesky_rowblock(data: bytes, num_parts: int, params: dict) -> list[bytes]:
    """Block-cyclic row partition of a single matrix into num_parts tasks.

    Task r owns row j when (j // b) % num_parts == r, with b from
    cholesky.block_size, the rule the agent checks each part against. Any
    num_parts up to the dimension gives every task at least one block.
    """
    matrices = _matrix_tokens(data)
    if len(matrices) != 1:
        raise CutFailed(f"row partitioning expects one matrix, got {len(matrices)}")
    rows = matrices[0]
    size = len(rows)
    if num_parts > size:
        raise CutFailed(f"cannot cut a dimension of {size} into {num_parts} parts")
    parts = []
    for rank in range(num_parts):
        owned = {j: rows[j] for j in cholesky.owned_rows(rank, num_parts, size)}
        parts.append(cholesky.part_from_tokens(0, rank, num_parts, size, owned))
    return parts


STRATEGIES: dict[str, Callable[[bytes, int, dict], list[bytes]]] = {
    "bbp_range": bbp_range,
    "byte_chunk": byte_chunk,
    "matrix_set": matrix_set,
    "cholesky_rowblock": cholesky_rowblock,
}


def cut(name: str, data: bytes, num_parts: int, params: dict | None = None) -> list[bytes]:
    strategy = STRATEGIES.get(name)
    if strategy is None:
        raise CutFailed(f"unknown cut strategy {name!r}")
    parts = strategy(data, num_parts, params or {})
    if len(parts) != num_parts:
        raise CutFailed(
            f"strategy {name!r} produced {len(parts)} parts, expected {num_parts}"
        )
    return parts
