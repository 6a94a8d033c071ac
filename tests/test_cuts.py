"""Cut strategies: exact part counts, contiguity, and config mismatches."""

import pytest

from conftest import run_partitioned, spd_matrix
from spacefarm.agents import cholesky
from spacefarm.cuts import (
    bbp_range,
    byte_chunk,
    cholesky_rowblock,
    cut,
    matrix_set,
)
from spacefarm.errors import CutFailed


# -- bbp_range ----------------------------------------------------------------------


def test_bbp_range_splits_contiguously():
    parts = bbp_range(b"1 80", 8, {})
    assert len(parts) == 8
    pos = 1
    for part in parts:
        start, count = (int(x) for x in part.split())
        assert start == pos
        assert count == 10
        pos += count
    assert pos == 81


def test_bbp_range_uneven_split_front_loads_remainder():
    parts = bbp_range(b"5 10", 3, {})
    spans = [int(p.split()[1]) for p in parts]
    assert spans == [4, 3, 3]
    starts = [int(p.split()[0]) for p in parts]
    assert starts == [5, 9, 12]


@pytest.mark.parametrize(
    "data",
    [b"not numbers", b"1", b"1 2 3", b"0 5", b"3 0", b"-1 4", b"\xff\xfe"],
)
def test_bbp_range_rejects_malformed_input(data):
    with pytest.raises(CutFailed):
        bbp_range(data, 2, {})


def test_bbp_range_rejects_more_parts_than_digits():
    with pytest.raises(CutFailed):
        bbp_range(b"1 3", 4, {})


# -- byte_chunk ---------------------------------------------------------------------


def test_byte_chunk_default_chunk_covers_data():
    data = bytes(range(10))
    parts = byte_chunk(data, 4, {})
    assert b"".join(parts) == data
    assert len(parts) == 4
    assert [len(p) for p in parts] == [3, 3, 3, 1]


def test_byte_chunk_explicit_chunk_size():
    data = b"abcdefgh"
    parts = byte_chunk(data, 2, {"chunk_size": 4})
    assert parts == [b"abcd", b"efgh"]


def test_byte_chunk_rejects_mismatched_chunk_size():
    with pytest.raises(CutFailed):
        byte_chunk(b"abcdefgh", 2, {"chunk_size": 3})


def test_byte_chunk_rejects_more_parts_than_bytes():
    with pytest.raises(CutFailed):
        byte_chunk(b"ab", 3, {})


# -- matrix_set ---------------------------------------------------------------------


def test_matrix_set_one_matrix_per_part():
    a = spd_matrix(3, seed=1)
    b = spd_matrix(2, seed=2)
    data = (cholesky.format_matrix(a) + "\n" + cholesky.format_matrix(b)).encode(
        "utf-8"
    )
    parts = matrix_set(data, 2, {})
    assert len(parts) == 2
    first_id, first_rank, first_p, first_size, _ = cholesky.parse_part(parts[0])
    second_id, second_rank, second_p, second_size, _ = cholesky.parse_part(parts[1])
    assert (first_id, second_id) == (0, 1)
    assert first_rank == second_rank == 0
    assert first_p == second_p == 1
    assert (first_size, second_size) == (3, 2)


def test_matrix_set_rejects_count_mismatch():
    data = cholesky.format_matrix(spd_matrix(3, seed=1)).encode("utf-8")
    with pytest.raises(CutFailed):
        matrix_set(data, 2, {})


def test_matrix_set_rejects_garbage():
    with pytest.raises(CutFailed):
        matrix_set(b"definitely not a matrix", 1, {})


def test_matrix_set_parts_carry_the_input_row_text():
    data = b"1\n 2.50 \n\n2\n1e0\t0\n0  4.0\n"
    assert matrix_set(data, 2, {}) == [
        b"part 0 0 1 1\n0 2.50\n",
        b"part 1 0 1 2\n0 1e0\n1 0 4.0\n",
    ]


def test_matrix_set_still_validates_every_matrix():
    with pytest.raises(CutFailed):
        matrix_set(b"1\n1\n\n2\n1 2\n3 1\n", 2, {})  # the second is asymmetric


# -- cholesky_rowblock ---------------------------------------------------------------


def test_cholesky_rowblock_round_robin_ownership():
    a = spd_matrix(6, seed=4)
    data = cholesky.format_matrix(a).encode("utf-8")
    parts = cholesky_rowblock(data, 3, {})
    assert len(parts) == 3
    for rank, payload in enumerate(parts):
        matrix_id, task_rank, p, size, rows = cholesky.parse_part(payload)
        assert (matrix_id, task_rank, p, size) == (0, rank, 3, 6)
        assert sorted(rows) == list(range(rank, 6, 3))
        for j, row in rows.items():
            assert row == a[j][: j + 1]


def test_cholesky_rowblock_block_cyclic_ownership():
    size, p = 50, 2  # blocks of 3 rows, the last one of 2
    a = spd_matrix(size, seed=4)
    parts = cholesky_rowblock(cholesky.format_matrix(a).encode("utf-8"), p, {})
    owned = []
    for rank, payload in enumerate(parts):
        _, task_rank, _, _, rows = cholesky.parse_part(payload)
        assert task_rank == rank
        assert sorted(rows) == [j for j in range(size) if (j // 3) % p == rank]
        assert all(row == a[j][: j + 1] for j, row in rows.items())
        owned += rows
    assert sorted(owned) == list(range(size))


def test_cholesky_rowblock_cuts_any_part_count_up_to_the_dimension():
    a = spd_matrix(50, seed=4)  # 3 does not divide 50
    assert run_partitioned(a, 3) == run_partitioned(a, 1)
    data = cholesky.format_matrix(spd_matrix(5, seed=4)).encode("utf-8")
    assert len(cholesky_rowblock(data, 5, {})) == 5
    with pytest.raises(CutFailed):
        cholesky_rowblock(data, 6, {})


def test_cholesky_rowblock_rejects_multiple_matrices():
    text = (
        cholesky.format_matrix(spd_matrix(2, seed=1))
        + "\n"
        + cholesky.format_matrix(spd_matrix(2, seed=2))
    )
    with pytest.raises(CutFailed):
        cholesky_rowblock(text.encode("utf-8"), 2, {})


# -- dispatch ------------------------------------------------------------------------


def test_cut_dispatches_by_name():
    parts = cut("bbp_range", b"1 4", 2)
    assert parts == [b"1 2", b"3 2"]


def test_cut_rejects_unknown_strategy():
    with pytest.raises(CutFailed):
        cut("no_such_strategy", b"", 1)
