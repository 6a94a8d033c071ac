"""Row-partitioned Cholesky agent: formats, correctness, determinism."""

import math
import threading

import pytest

from conftest import cholesky_oracle, spd_matrix
from spacefarm.agents import CASE_ID_PARAM, cholesky
from spacefarm.cuts import cholesky_rowblock
from spacefarm.errors import NotPositiveDefinite, RowTimeout
from spacefarm.space import SpaceCore


def run_partitioned(a, p, case_id="chol-test"):
    """Execute all p tasks of one factorization in parallel threads sharing an
    in-process space, then assemble the factor."""
    data = cholesky.format_matrix(a).encode("utf-8")
    parts = cholesky_rowblock(data, p, {})
    core = SpaceCore()
    params = {CASE_ID_PARAM: case_id, "row_timeout_ms": 20_000}
    results: dict[int, bytes] = {}
    errors = []

    def task(rank, payload):
        try:
            results[rank] = cholesky.execute(payload, params, core)
        except Exception as exc:  # surfaced after join
            errors.append(exc)

    threads = [
        threading.Thread(target=task, args=(rank, payload), daemon=True)
        for rank, payload in enumerate(parts)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not errors, errors
    return cholesky.assemble([results[rank] for rank in range(p)])


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
    rows = {0: [2.0], 2: [1.0, 0.0, 1.5]}
    matrix_id, size, parsed = cholesky.parse_rows(cholesky.format_rows(4, 3, rows))
    assert matrix_id == 4 and size == 3 and parsed == rows
    with pytest.raises(ValueError):
        cholesky.parse_rows(b"rows 1 2\n0 1.0 2.0\n")  # factor row 0 must have 1 value


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
        cholesky.assemble([cholesky.format_rows(0, 2, {0: [1.0]})])
    with pytest.raises(ValueError):
        cholesky.assemble(
            [
                cholesky.format_rows(0, 2, {0: [1.0]}),
                cholesky.format_rows(0, 3, {1: [0.0, 1.0]}),
            ]
        )


def test_assemble_merges_multiple_matrices_sorted_by_id():
    one = cholesky.format_rows(1, 1, {0: [3.0]})
    zero = cholesky.format_rows(0, 1, {0: [2.0]})
    text = cholesky.assemble([one, zero]).decode("utf-8")
    blocks = [b for b in text.split("\n\n") if b.strip()]
    assert float(blocks[0].splitlines()[1]) == 2.0
    assert float(blocks[1].splitlines()[1]) == 3.0
