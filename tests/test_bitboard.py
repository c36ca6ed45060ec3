import pytest

from chesslut.bitboard import (
    A1,
    A8,
    C4,
    H1,
    H8,
    bit_index,
    file_of,
    make_square,
    pretty,
    rank_of,
    square_index,
    square_name,
)


def test_square_values_match_convention():
    assert H1 == 1
    assert A1 == 128
    assert H8 == 72057594037927936
    assert A8 == 9223372036854775808


def test_square_bb_round_trip_all_squares():
    for sq in range(64):
        bb = 1 << sq
        assert bb.bit_count() == 1
        assert bit_index(bb) == sq


def test_square_names_round_trip():
    for sq in range(64):
        assert square_index(square_name(sq)) == sq
    assert square_name(0) == "h1"
    assert square_name(7) == "a1"
    assert square_name(63) == "a8"


@pytest.mark.parametrize("square", [-1, 64, 65, -64])
def test_square_name_rejects_off_board_squares(square):
    with pytest.raises(ValueError, match=f"square {square} is off the board"):
        square_name(square)


def test_square_index_rejects_garbage():
    for bad in ("", "e", "i4", "a9", "e44"):
        with pytest.raises(ValueError):
            square_index(bad)


def test_file_rank_consistency():
    for sq in range(64):
        assert make_square(file_of(sq), rank_of(sq)) == sq
    assert file_of(square_index("a1")) == 0
    assert rank_of(square_index("a8")) == 7


@pytest.mark.parametrize("file_index, rank_index", [(-1, 0), (8, 0), (0, -1), (0, 8)])
def test_make_square_rejects_indices_outside_0_to_7(file_index, rank_index):
    with pytest.raises(ValueError, match="expected 0..7"):
        make_square(file_index, rank_index)


def test_bit_index_examples():
    assert bit_index(128) == 7  # a1
    assert bit_index(1) == 0  # h1
    assert bit_index(1 << 56) == 56  # h8


def test_bit_index_requires_single_bit():
    with pytest.raises(ValueError):
        bit_index(0)
    with pytest.raises(ValueError):
        bit_index(0b11)


def test_pretty_marks_squares():
    text = pretty(C4)
    row4 = next(line for line in text.splitlines() if line.startswith("4"))
    assert row4.split()[1:] == [".", ".", "x", ".", ".", ".", ".", "."]
