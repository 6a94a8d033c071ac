"""Row-partitioned Cholesky agent: formats, correctness, determinism."""

import math
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import cholesky_oracle, run_partitioned, run_parts, spd_matrix
from spacefarm.agents import CASE_ID_PARAM, cholesky
from spacefarm.cuts import cholesky_rowblock
from spacefarm.errors import NotPositiveDefinite, RowTimeout
from spacefarm.space import SpaceCore


def parse_factor(output: bytes) -> list[list[float]]:
    # Factors are lower triangular, so the symmetric-input parser does not
    # apply; read the dimension line and rows directly.
    lines = [line for line in output.decode("utf-8").splitlines() if line.strip()]
    size = int(lines[0])
    rows = [[float(tok) for tok in line.split()] for line in lines[1 : size + 1]]
    assert len(rows) == size and all(len(row) == size for row in rows)
    return rows


def test_format_value_round_trips_doubles():
    for x in (0.1, 1 / 3, math.sqrt(2), 1e-300, -7.25, 3.0):
        assert float(cholesky.format_value(x)) == x


def test_matrix_parse_format_roundtrip():
    a = spd_matrix(5, seed=3)
    text = cholesky.format_matrix(a)
    (parsed,) = cholesky.parse_matrices(text)
    assert parsed == a


def test_matrix_parse_rejects_malformed_input():
    with pytest.raises(ValueError):
        cholesky.parse_matrices("")
    with pytest.raises(ValueError):
        cholesky.parse_matrices("2\n1 0\n")  # missing a row
    with pytest.raises(ValueError):
        cholesky.parse_matrices("2\n1 0 0\n0 1 0\n")  # row too long
    with pytest.raises(ValueError):
        cholesky.parse_matrices("2\n1 2\n3 1\n")  # asymmetric
    with pytest.raises(ValueError):
        cholesky.parse_matrices("x\n1\n")


def test_part_payload_roundtrip():
    rows = {1: [1.0, 2.0, 3.0], 3: [2.0, 0.5, -1.0]}
    blob = cholesky.format_part(7, 1, 2, 3, rows)
    # rank 1 of p=2 over size 3 owns row 1 only; row 3 is out of range
    with pytest.raises(ValueError):
        cholesky.parse_part(blob)
    blob = cholesky.format_part(7, 1, 2, 4, {1: [0.0] * 4, 3: [1.0] * 4})
    matrix_id, rank, p, size, parsed = cholesky.parse_part(blob)
    assert (matrix_id, rank, p, size) == (7, 1, 2, 4)
    assert set(parsed) == {1, 3}


def test_rows_payload_roundtrip():
    rows = {0: ("2",), 2: ("1", "0", "1.5")}
    payload = cholesky.format_rows(4, 3, rows)
    matrix_id, size, parsed = cholesky.parse_row_tokens(payload)
    assert matrix_id == 4 and size == 3
    assert parsed == {j: list(tokens) for j, tokens in rows.items()}
    with pytest.raises(ValueError):
        cholesky.parse_row_tokens(b"rows 1 2\n0 1.0 2.0\n")  # row 0 must have 1 value
    with pytest.raises(ValueError):
        cholesky.parse_row_tokens(b"rows 1 2\n2 1 2 3\n")  # row index past the size


def test_identity_factorizes_to_identity():
    a = [[1.0 if i == j else 0.0 for j in range(4)] for i in range(4)]
    factor = parse_factor(run_partitioned(a, 1))
    assert factor == a


def test_known_two_by_two_factor():
    a = [[4.0, 2.0], [2.0, 3.0]]
    factor = parse_factor(run_partitioned(a, 1))
    assert factor[0][0] == 2.0
    assert factor[1][0] == 1.0
    assert factor[1][1] == math.sqrt(2.0)
    assert factor[0][1] == 0.0


def test_single_task_matches_sequential_oracle_exactly():
    a = spd_matrix(8, seed=11)
    factor = parse_factor(run_partitioned(a, 1))
    oracle = cholesky_oracle(a)
    assert factor == oracle  # same op order, so bit-identical


@pytest.mark.parametrize("p", [2, 5, 10])
def test_partitioned_runs_are_bit_identical_to_single(p):
    a = spd_matrix(10, seed=42)
    baseline = run_partitioned(a, 1)
    assert run_partitioned(a, p) == baseline


@pytest.mark.parametrize("size, p", [(50, 2), (51, 3), (100, 4)])
def test_blocks_with_a_partial_last_block_are_bit_identical_to_single(size, p):
    b = cholesky.block_size(size, p)
    assert b > 1 and size % b != 0
    a = spd_matrix(size, seed=17)
    assert run_partitioned(a, p) == run_partitioned(a, 1)


def test_benchmark_shape_is_bit_identical_to_the_sequential_factor():
    a = spd_matrix(256, seed=1)
    expected = cholesky.format_matrix(cholesky_oracle(a)).encode("utf-8")
    for p in (1, 2, 4):
        assert cholesky.block_size(256, p) == 256 // (8 * p)
        assert run_partitioned(a, p) == expected


def test_block_size_rule():
    assert cholesky.block_size(256, 2) == 16
    assert cholesky.block_size(10, 2) == 1
    assert cholesky.block_size(50, 2) == 3
    assert cholesky.owned_rows(1, 2, 10) == [1, 3, 5, 7, 9]  # round robin at b == 1
    assert cholesky.owned_rows(1, 2, 32) == [j for j in range(32) if j % 4 >= 2]


def test_parse_part_refuses_rows_off_the_block_rule():
    size, p = 48, 2  # blocks of 3 rows
    row = [1.0] * size
    round_robin = {j: row for j in range(1, size, p)}
    with pytest.raises(ValueError):
        cholesky.parse_part(cholesky.format_part(0, 1, p, size, round_robin))
    owned = {j: row for j in cholesky.owned_rows(1, p, size)}
    with pytest.raises(ValueError):  # one row short
        cholesky.parse_part(cholesky.format_part(0, 1, p, size, dict(list(owned.items())[1:])))
    lower = {j: row[: j + 1] for j, row in owned.items()}
    assert cholesky.parse_part(cholesky.format_part(0, 1, p, size, owned))[4] == lower
    with pytest.raises(ValueError):  # a full row where the lower triangle belongs
        cholesky.parse_part(b"part 0 0 1 2\n0 1 0\n1 0 1\n")


def test_factor_reproduces_matrix():
    a = spd_matrix(10, seed=42)
    factor = parse_factor(run_partitioned(a, 2))
    size = len(a)
    worst = 0.0
    for i in range(size):
        for j in range(size):
            recon = sum(factor[i][k] * factor[j][k] for k in range(size))
            worst = max(worst, abs(recon - a[i][j]))
    assert worst < 1e-10


def test_not_positive_definite_detected():
    a = [[1.0, 2.0], [2.0, 1.0]]  # eigenvalues 3 and -1
    data = cholesky.format_part(0, 0, 1, 2, {0: a[0], 1: a[1]})
    with pytest.raises(NotPositiveDefinite):
        cholesky.execute(data, {CASE_ID_PARAM: "npd"}, None)


def test_row_timeout_when_sibling_never_publishes():
    a = spd_matrix(4, seed=5)
    data = cholesky.format_matrix(a).encode("utf-8")
    parts = cholesky_rowblock(data, 2, {})
    params = {CASE_ID_PARAM: "lonely", "row_timeout_ms": 200}
    with pytest.raises(RowTimeout):
        cholesky.execute(parts[1], params, SpaceCore())  # rank 1 waits on row 0 forever


def test_multi_task_without_space_is_rejected():
    a = spd_matrix(4, seed=5)
    parts = cholesky_rowblock(cholesky.format_matrix(a).encode("utf-8"), 2, {})
    with pytest.raises(ValueError):
        cholesky.execute(parts[0], {CASE_ID_PARAM: "x"}, None)


def test_assemble_rejects_missing_rows_and_size_conflicts():
    with pytest.raises(ValueError):
        cholesky.assemble([cholesky.format_rows(0, 2, {0: ("1",)})])
    with pytest.raises(ValueError):
        cholesky.assemble(
            [
                cholesky.format_rows(0, 2, {0: ("1",)}),
                cholesky.format_rows(0, 3, {1: ("0", "1")}),
            ]
        )


def test_assemble_merges_multiple_matrices_sorted_by_id():
    one = cholesky.format_rows(1, 1, {0: ("3",)})
    zero = cholesky.format_rows(0, 1, {0: ("2",)})
    text = cholesky.assemble([one, zero]).decode("utf-8")
    blocks = [b for b in text.split("\n\n") if b.strip()]
    assert float(blocks[0].splitlines()[1]) == 2.0
    assert float(blocks[1].splitlines()[1]) == 3.0


# -- the text path: no value is formatted twice ------------------------------------


def respell(value: float, variant: int) -> str:
    """Another spelling of value that parses to the same double."""
    text = cholesky.format_value(value)
    mantissa, _, exponent = text.partition("e")
    if variant == 0:
        return text
    if variant == 1:  # trailing zeros
        if "." not in mantissa:
            mantissa += "."
        return mantissa + "000" + (f"e{exponent}" if exponent else "")
    if variant == 2:  # exponent form
        return text if exponent else f"{mantissa}e0"
    return f"+{text}" if not text.startswith("-") else text


@pytest.mark.parametrize("p", [1, 2, 5])
def test_respelled_input_gives_the_same_factor_bytes(p):
    a = spd_matrix(10, seed=7)
    a[3][3] = 2.0 * math.ceil(a[3][3])  # an integral value, so "Ne0" appears
    lines = ["\t 10  "]
    for i, row in enumerate(a):
        toks = [respell(v, (i + j) % 4) for j, v in enumerate(row)]
        lines.append("  " + " \t ".join(toks) + "\t")
    text = "\n \n" + "\n".join(lines) + "\n\n"
    assert cholesky.parse_matrices(text) == [a]
    results, _ = run_parts(text.encode("utf-8"), p)
    assert cholesky.assemble(results) == run_partitioned(a, 1)


def test_result_rows_are_the_published_row_entries():
    size, p = 50, 2  # blocks of 3 rows, the last one of 2
    a = spd_matrix(size, seed=9)
    results, core = run_parts(cholesky.format_matrix(a).encode("utf-8"), p)
    blocks = {
        entry.row_index: entry.values.split(" ")
        for *_, entry in core.snapshot()
        if entry.kind == "RowEntry"
    }
    b = cholesky.block_size(size, p)
    assert b == 3 and sorted(blocks) == list(range(0, size, b))
    published = {}
    for first, values in blocks.items():
        at = 0
        for j in range(first, min(first + b, size)):
            published[j] = values[at : at + j + 1]
            at += j + 1
        assert at == len(values)
    assert sorted(published) == list(range(size))
    for payload in results:
        for line in payload.decode("utf-8").splitlines()[1:]:
            j, *tokens = line.split(" ")
            assert tokens == published[int(j)]


def test_cut_parts_carry_the_input_row_text():
    text = "2\n4.00  2e0\n2.0\t3\n"
    parts = cholesky_rowblock(text.encode("utf-8"), 2, {})
    assert parts == [b"part 0 0 2 2\n0 4.00\n", b"part 0 1 2 2\n1 2.0 3\n"]
    assert cholesky.parse_part(parts[1])[4] == {1: [2.0, 3.0]}


@pytest.mark.parametrize("size, p", [(64, 2), (48, 3)])
def test_a_task_publishes_its_next_block_before_the_trailing_fill(monkeypatch, size, p):
    """Between reading block k and writing block k + 1, a task fills only
    block k + 1's rows: filling its later rows waits until the write."""
    b = cholesky.block_size(size, p)
    log = []  # (thread, event, rows or first row)
    fill, read, write = cholesky._fill_columns, SpaceCore.read, SpaceCore.write

    def recording_fill(lrows, a_rows, targets, rows, first):
        targets = list(targets)
        log.append((threading.get_ident(), "fill", targets))
        fill(lrows, a_rows, targets, rows, first)

    def recording_read(core, template, *args, **kwargs):
        entry = read(core, template, *args, **kwargs)
        log.append((threading.get_ident(), "read", entry.row_index))
        return entry

    def recording_write(core, entry, *args, **kwargs):
        log.append((threading.get_ident(), "write", entry.row_index))
        return write(core, entry, *args, **kwargs)

    monkeypatch.setattr(cholesky, "_fill_columns", recording_fill)
    monkeypatch.setattr(SpaceCore, "read", recording_read)
    monkeypatch.setattr(SpaceCore, "write", recording_write)
    a = spd_matrix(size, seed=5)
    results, _ = run_parts(cholesky.format_matrix(a).encode("utf-8"), p)
    expected = cholesky.format_matrix(cholesky_oracle(a)).encode("utf-8")
    assert cholesky.assemble(results) == expected

    checked = 0
    for task in {thread for thread, _, _ in log}:
        events = [(event, rows) for thread, event, rows in log if thread == task]
        hops = [at for at, (event, _) in enumerate(events) if event != "fill"]
        for at, after in zip(hops, hops[1:]):
            (event, first), (next_event, next_first) = events[at], events[after]
            if (event, next_event, next_first) != ("read", "write", first + b):
                continue
            next_block = set(range(first + b, first + 2 * b))
            for _, rows in events[at + 1 : after]:
                assert set(rows) <= next_block, (first, rows)
            checked += 1
    assert checked >= size // b // p - 1


factor_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e299, max_value=1.7e308),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e300]),
)


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda size: st.tuples(
            st.just(size),
            st.lists(
                st.lists(factor_values, min_size=size, max_size=size),
                min_size=size,
                max_size=size,
            ),
            st.integers(min_value=1, max_value=size),
        )
    )
)
def test_assemble_splices_what_formatting_would_write(case):
    size, values, p = case
    rows = [values[j][: j + 1] for j in range(size)]
    text = [tuple(cholesky.format_value(v) for v in row) for row in rows]
    results = [
        cholesky.format_rows(0, size, {j: text[j] for j in range(r, size, p)})
        for r in range(p)
    ]
    full = [rows[j] + [0.0] * (size - 1 - j) for j in range(size)]
    assert cholesky.assemble(results) == cholesky.format_matrix(full).encode("utf-8")


def test_assemble_still_refuses_bad_results():
    good = b"rows 0 2\n0 1.5\n1 0.25 2\n"
    assert cholesky.assemble([good]) == b"2\n1.5 0\n0.25 2\n"
    refused = [
        b"rows 0 2\n0 1.5\n1 0.25 two\n",  # a token that is not a float
        b"rows 0 2\n0 1.5\n1 0.25\n",  # a short row
        b"rows 0 2\n0 1.5\n",  # a missing row
        b"cols 0 2\n0 1.5\n1 0.25 2\n",  # a wrong header
        b"rows 0 2\nx 1.5\n1 0.25 2\n",  # a row index that is not an integer
    ]
    for payload in refused:
        with pytest.raises(ValueError):
            cholesky.assemble([payload])
    with pytest.raises(ValueError):  # conflicting sizes
        cholesky.assemble([b"rows 0 2\n0 1.5\n", b"rows 0 3\n1 0.25 2\n"])
