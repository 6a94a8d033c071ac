"""Block-cyclic row-partitioned Cholesky factorization agent.

A factorization of an L x L symmetric positive definite matrix is split into P
tasks, for any P <= L. Rows are grouped into blocks of b consecutive rows,
b = block_size(L, P), and task r owns row j when (j // b) mod P = r. The
owner of a block completes its rows and publishes the whole block as one
RowEntry (written without a transaction so tasks inside other transactions
can read it); everyone else block-reads that one entry. One space hop thus
carries b rows.

The tasks look one block ahead. A block read from a sibling fills its
columns into the task's next owned block only, and waits in a queue. When
the task reaches that block, it computes the block's pivots and publishes
it first; only then does it fill the queued blocks' columns, and its own,
into its later rows, in column order. A sibling waiting on the block thus
waits for its pivots, not for the trailing fill. A task stops after its last
owned block, since no later block has a column it needs.

Determinism across P: every factor element is computed by the same sequence
of float operations regardless of the partitioning or of the fill order (one
sequential dot product over k = 0..c-1, then (a - s) / L[c][c]), and
published rows travel as 17-significant-digit decimals, which round-trip
64-bit floats exactly. The assembled factor is therefore bit-identical for
every worker count.

No value is turned into text twice. A part carries the lower triangle of
its rows, row j's j + 1 values, as the input's own tokens: the agent never
reads a[j][c] for c > j. The cut validates the whole input but formats
nothing, and the worker reads from those tokens the doubles a re-formatted
part would give. A factor row is final once its pivot is set; it is
formatted then, once, and that text is both its share of the block's
RowEntry, one space-separated string, and the row's line in the result.
assemble splices the result rows and pads them with "0". The output bytes are
those of formatting every factor value, because format_value(float(s)) == s
for every s that format_value wrote, and format_value(0.0) == "0".

All matrix I/O is text: a matrix file is the dimension on the first line and
one whitespace-separated row per line; a multi-channel file holds several such
blocks separated by blank lines.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from ..entries import RowEntry, Template
from ..errors import NotPositiveDefinite, RowTimeout
from . import CASE_ID_PARAM

DEFAULT_ROW_TIMEOUT_MS = 60_000


def format_value(x: float) -> str:
    return format(x, ".17g")


def block_size(size: int, p: int) -> int:
    """Rows per block of a size-row factorization in p tasks."""
    return max(1, size // (8 * p))


def owned_rows(rank: int, p: int, size: int) -> list[int]:
    """The rows task rank of p owns: row j when (j // b) % p == rank."""
    b = block_size(size, p)
    return [j for j in range(size) if (j // b) % p == rank]


# -- matrix file format -----------------------------------------------------------


def split_matrix_block(lines: list[str]) -> tuple[list[list[str]], list[list[float]]]:
    """Validate a matrix block, dimension line first, and return each row's
    tokens and values."""
    if not lines:
        raise ValueError("empty matrix block")
    try:
        size = int(lines[0].strip())
    except ValueError:
        raise ValueError(f"matrix block must start with its dimension, got {lines[0]!r}")
    if size < 1:
        raise ValueError(f"matrix dimension must be positive, got {size}")
    if len(lines) != size + 1:
        raise ValueError(f"expected {size} rows, got {len(lines) - 1}")
    tokens = [line.split() for line in lines[1:]]
    rows = []
    for toks in tokens:
        if len(toks) != size:
            raise ValueError(f"expected {size} values per row, got {len(toks)}")
        rows.append([float(tok) for tok in toks])
    for i in range(size):
        for j in range(i):
            if rows[i][j] != rows[j][i]:
                raise ValueError(f"matrix is not symmetric at ({i},{j})")
    return tokens, rows


def matrix_blocks(text: str) -> list[list[str]]:
    """Split a matrix file into its blank-line-separated blocks of stripped lines."""
    blocks: list[list[str]] = []
    current: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            if current:
                blocks.append(current)
                current = []
        else:
            current.append(line)
    if current:
        blocks.append(current)
    if not blocks:
        raise ValueError("no matrices in input")
    return blocks


def parse_matrices(text: str) -> list[list[list[float]]]:
    """Parse a matrix file into its blocks (one per blank-line-separated matrix)."""
    return [split_matrix_block(b)[1] for b in matrix_blocks(text)]


def format_matrix(rows: list[list[float]]) -> str:
    size = len(rows)
    lines = [str(size)]
    for row in rows:
        lines.append(" ".join(format_value(v) for v in row))
    return "\n".join(lines) + "\n"


# -- part and result payloads ---------------------------------------------------


def format_part(
    matrix_id: int, rank: int, p: int, size: int, rows: dict[int, list[float]]
) -> bytes:
    """A part of the matrix rows; row j is sent as its j + 1 lower-triangle values."""
    tokens = {j: [format_value(v) for v in row[: j + 1]] for j, row in rows.items()}
    return part_from_tokens(matrix_id, rank, p, size, tokens)


def part_from_tokens(
    matrix_id: int, rank: int, p: int, size: int, rows: dict[int, Sequence[str]]
) -> bytes:
    """A part whose row j is the lower-triangle tokens rows[j][: j + 1]."""
    out = [f"part {matrix_id} {rank} {p} {size}"]
    for j in sorted(rows):
        out.append(f"{j} " + " ".join(rows[j][: j + 1]))
    return ("\n".join(out) + "\n").encode("utf-8")


def parse_part(data: bytes) -> tuple[int, int, int, int, dict[int, list[float]]]:
    lines = [ln for ln in data.decode("utf-8").splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("part "):
        raise ValueError("part payload must start with a 'part' header")
    fields = lines[0].split()
    if len(fields) != 5:
        raise ValueError(f"malformed part header: {lines[0]!r}")
    matrix_id, rank, p, size = (int(f) for f in fields[1:])
    if not (size >= 1 and 1 <= p <= size and 0 <= rank < p):
        raise ValueError(f"inconsistent part header: {lines[0]!r}")
    rows: dict[int, list[float]] = {}
    for line in lines[1:]:
        toks = line.split()
        j = int(toks[0])
        row = [float(t) for t in toks[1:]]
        if len(row) != j + 1:
            raise ValueError(f"row {j} has {len(row)} values, expected {j + 1}")
        rows[j] = row
    if sorted(rows) != owned_rows(rank, p, size):
        raise ValueError(f"part rows {sorted(rows)} do not match rank {rank} of {p}")
    return matrix_id, rank, p, size, rows


def format_rows(matrix_id: int, size: int, rows: dict[int, Sequence[str]]) -> bytes:
    """A result payload; rows[j] holds factor row j's j + 1 values as text."""
    lines = [f"rows {matrix_id} {size}"]
    for j in sorted(rows):
        lines.append(f"{j} " + " ".join(rows[j]))
    return ("\n".join(lines) + "\n").encode("utf-8")


def parse_row_tokens(data: bytes) -> tuple[int, int, dict[int, list[str]]]:
    """Read a result payload into each factor row's value tokens.

    Every token is checked to parse as a float, but none is converted.
    """
    lines = [ln for ln in data.decode("utf-8").splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("rows "):
        raise ValueError("result payload must start with a 'rows' header")
    fields = lines[0].split()
    if len(fields) != 3:
        raise ValueError(f"malformed rows header: {lines[0]!r}")
    matrix_id, size = int(fields[1]), int(fields[2])
    rows: dict[int, list[str]] = {}
    for line in lines[1:]:
        toks = line.split()
        j = int(toks[0])
        if not 0 <= j < size:
            raise ValueError(f"factor row {j} is outside a matrix of size {size}")
        row = toks[1:]
        if len(row) != j + 1:
            raise ValueError(f"factor row {j} has {len(row)} values, expected {j + 1}")
        for tok in row:
            float(tok)
        rows[j] = row
    return matrix_id, size, rows


# -- execution --------------------------------------------------------------------


def execute(data: bytes, params: dict, space=None) -> bytes:
    matrix_id, rank, p, size, a_rows = parse_part(data)
    case_id = params.get(CASE_ID_PARAM, "")
    row_timeout_ms = int(params.get("row_timeout_ms", DEFAULT_ROW_TIMEOUT_MS))
    if p > 1 and space is None:
        raise ValueError("multi-task factorization needs space access")

    b = block_size(size, p)
    owned = sorted(a_rows)
    lrows: dict[int, list[float]] = {j: [0.0] * (j + 1) for j in owned}
    factor: dict[int, tuple[str, ...]] = {}  # owned rows as text, once final
    # Blocks read since the last owned one, filled into the next owned block only.
    pending: list[tuple[int, list[list[float]]]] = []

    for first in range(0, owned[-1] + 1, b):
        block = range(first, min(first + b, size))
        later = [j for j in owned if j >= block.stop]
        if (first // b) % p != rank:
            rows = _read_block(space, case_id, matrix_id, block, row_timeout_ms)
            _fill_columns(lrows, a_rows, later[:b], rows, first)
            pending.append((first, rows))
            continue
        for i in block:
            li = lrows[i]
            s = 0.0
            for k in range(i):
                s += li[k] * li[k]
            pivot = a_rows[i][i] - s
            if not pivot > 0.0:
                raise NotPositiveDefinite(
                    f"matrix {matrix_id}: pivot {pivot!r} at row {i}"
                )
            li[i] = math.sqrt(pivot)
            factor[i] = tuple(format_value(v) for v in li)
            _fill_columns(lrows, a_rows, block[i - first + 1 :], [li], i)
        if p > 1:
            space.write(
                RowEntry(
                    case_id=case_id,
                    matrix_id=str(matrix_id),
                    row_index=first,
                    values=" ".join(v for i in block for v in factor[i]),
                )
            )
        pending.append((first, [lrows[i] for i in block]))
        for column, rows in pending:
            _fill_columns(lrows, a_rows, later, rows, column)
        pending = []

    return format_rows(matrix_id, size, factor)


def _fill_columns(
    lrows: dict[int, list[float]],
    a_rows: dict[int, list[float]],
    targets: Iterable[int],
    rows: list[list[float]],
    first: int,
) -> None:
    """Set L[j][c] for each target row j and each finished row c of rows,
    which are the factor rows first, first + 1, ..."""
    for j in targets:
        lj = lrows[j]
        aj = a_rows[j]
        for c, lc in enumerate(rows, first):
            s = 0.0
            for k in range(c):
                s += lj[k] * lc[k]
            lj[c] = (aj[c] - s) / lc[c]


def _read_block(
    space, case_id: str, matrix_id: int, block: range, row_timeout_ms: int
) -> list[list[float]]:
    """Wait for the block's RowEntry and split its values into factor rows."""
    template = Template(
        "RowEntry",
        {"case_id": case_id, "matrix_id": str(matrix_id), "row_index": block.start},
    )
    entry = space.read(template, timeout_ms=row_timeout_ms)
    if entry is None:
        raise RowTimeout(
            f"rows {block.start}..{block.stop - 1} of matrix {matrix_id} not "
            f"published within {row_timeout_ms} ms"
        )
    values = [float(v) for v in entry.values.split()]
    if len(values) != sum(i + 1 for i in block):
        raise ValueError(f"block at row {block.start} has {len(values)} values")
    rows = []
    at = 0
    for i in block:
        rows.append(values[at : at + i + 1])
        at += i + 1
    return rows


def assemble(results: list[bytes]) -> bytes:
    """Merge per-task factor rows into full matrix blocks, one per matrix_id.

    Rows are spliced as text, so no value is formatted again.
    """
    by_matrix: dict[int, tuple[int, dict[int, list[str]]]] = {}
    for payload in results:
        matrix_id, size, rows = parse_row_tokens(payload)
        held = by_matrix.setdefault(matrix_id, (size, {}))
        if held[0] != size:
            raise ValueError(f"matrix {matrix_id} has conflicting sizes")
        held[1].update(rows)
    blocks = []
    for matrix_id in sorted(by_matrix):
        size, rows = by_matrix[matrix_id]
        missing = [j for j in range(size) if j not in rows]
        if missing:
            raise ValueError(f"matrix {matrix_id} is missing factor rows {missing}")
        lines = [str(size)]
        for j in range(size):
            lines.append(" ".join(rows[j]) + " 0" * (size - 1 - j))
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks).encode("utf-8")
