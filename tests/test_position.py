import pytest

from chesslut.bitboard import C4, bit_index, popcount, square_index
from chesslut.position import (
    BISHOP,
    BLACK,
    PAWN,
    STARTING_FEN,
    WHITE,
    FenError,
    parse_epd_line,
    parse_fen,
    serialize_fen,
    startpos,
)


def test_startpos_layout():
    pos = startpos()
    assert popcount(pos.occupied()) == 32
    assert pos.side_to_move == WHITE
    assert pos.castling == 0b1111
    assert pos.ep_square is None
    assert popcount(pos.piece_bb(WHITE, PAWN)) == 8
    assert pos.king_square(WHITE) == square_index("e1")
    assert pos.king_square(BLACK) == square_index("e8")


def test_piece_bitboards_disjoint_at_startpos():
    pos = startpos()
    union = 0
    for board in pos.pieces:
        assert union & board == 0
        union |= board
    assert union == pos.occupied()


def test_lone_bishop_fen():
    pos = parse_fen("8/8/8/8/2B5/8/8/8 w - -")
    assert pos.occupied() == C4
    assert pos.piece_bb(WHITE, BISHOP) == C4
    assert pos.piece_at(bit_index(C4)) == (WHITE, BISHOP)
    assert pos.king_square(WHITE) is None


def test_rank_with_nine_files_rejected():
    with pytest.raises(FenError, match="rank"):
        parse_fen("9/8/8/8/8/8/8/8 w - -")
    with pytest.raises(FenError, match="rank"):
        parse_fen("rnbqkbnrr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq -")


def test_unknown_piece_letter_rejected():
    with pytest.raises(FenError, match="unknown piece"):
        parse_fen("rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNX w KQkq -")


def test_contradictory_castling_rights_rejected():
    # King not on its home square but a kingside flag claimed.
    with pytest.raises(FenError, match="castling"):
        parse_fen("rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBN1 w KQkq -")
    with pytest.raises(FenError, match="castling"):
        parse_fen("8/8/8/8/8/8/8/3K4 w K -")


def test_too_few_fields_rejected():
    with pytest.raises(FenError, match="fields"):
        parse_fen("8/8/8/8/8/8/8/8 w -")


def test_multiple_kings_rejected():
    with pytest.raises(FenError, match="kings"):
        parse_fen("KK6/8/8/8/8/8/8/8 w - -")


def test_bad_ep_square_rejected():
    with pytest.raises(FenError, match="field 4"):
        parse_fen("8/8/8/8/8/8/8/K7 w - x9")
    # Right format, wrong rank for the side to move.
    with pytest.raises(FenError, match="en-passant"):
        parse_fen("8/8/8/8/8/8/8/K7 w - e3")
    # Right rank, but no pawn can have just double-pushed past the target.
    for fen in (
        "k7/8/8/8/8/8/8/K7 b - e3",  # no pawn at all
        "k7/8/8/8/4p3/8/8/K7 b - e3",  # the pawn in front is the side to move's
        "k7/8/8/8/4P3/4N3/8/K7 b - e3",  # target occupied
        "k7/8/8/8/4P3/8/4N3/K7 b - e3",  # origin occupied
        "k7/8/8/3p4/8/8/8/K7 w - e6",  # white to move: no black pawn on e5
    ):
        with pytest.raises(FenError, match="field 4"):
            parse_fen(fen)


def test_pawn_on_back_rank_rejected():
    for fen in ("P7/8/8/8/8/8/8/k6K w - -", "4k3/8/8/8/8/8/8/4K2p w - -"):
        with pytest.raises(FenError, match="field 1"):
            parse_fen(fen)


def test_side_not_to_move_in_check_rejected():
    for fen in (
        "4k3/8/8/8/8/8/4R3/4K3 w - -",  # rook on the open e file
        "4k3/8/3N4/8/8/8/8/4K3 w - -",  # knight
        "4k3/3P4/8/8/8/8/8/4K3 w - -",  # white pawn attacks up the board
        "4k3/8/8/8/8/8/3p4/4K3 b - -",  # black pawn attacks down the board
        "4k3/8/8/1B6/8/8/8/4K3 w - -",  # bishop
        "8/8/8/8/8/8/8/3kK3 b - -",  # touching kings
    ):
        with pytest.raises(FenError, match="field 2"):
            parse_fen(fen)
    # The side to move may be in check, a blocked line gives no check, and no king means no check.
    for fen in (
        "4k3/8/8/8/8/8/4R3/4K3 b - -",
        "4k3/4p3/8/8/8/8/4R3/4K3 w - -",
        "4k3/5P2/8/8/8/8/8/4K3 b - -",
        "8/8/8/8/8/8/8/R3K3 w - -",
    ):
        parse_fen(fen)


def test_ep_square_accepted_on_correct_rank():
    pos = parse_fen("rnbqkbnr/pppppppp/8/8/4P3/8/PPPP1PPP/RNBQKBNR b KQkq e3")
    assert pos.ep_square == square_index("e3")
    # No capturing pawn is required: serialize_fen writes the target after every double push.
    pos = parse_fen("k7/8/8/3p4/8/8/8/K7 w - d6")
    assert pos.ep_square == square_index("d6")


def test_serialize_round_trip_startpos():
    assert serialize_fen(startpos()) == STARTING_FEN


def test_board_field_round_trip_on_playouts(playout_positions):
    for position, _ in playout_positions:
        fen = serialize_fen(position)
        assert parse_fen(fen) == position
        assert serialize_fen(parse_fen(fen)) == fen


def test_epd_line_with_id():
    parsed = parse_epd_line('rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - id "start";')
    assert parsed is not None
    position, record_id = parsed
    assert position == startpos()
    assert record_id == "start"


def test_epd_line_without_opcodes():
    parsed = parse_epd_line("8/8/8/8/2B5/8/8/8 w - -")
    assert parsed is not None
    _, record_id = parsed
    assert record_id is None


def test_epd_unknown_opcodes_ignored():
    parsed = parse_epd_line('8/8/8/8/2B5/8/8/8 w - - bm Bd5; c0 "note"; id "x7";')
    assert parsed is not None
    assert parsed[1] == "x7"


def test_blank_and_comment_lines_skip():
    assert parse_epd_line("") is None
    assert parse_epd_line("   \t") is None
    assert parse_epd_line("# a comment") is None


def test_full_fen_line_parses_as_epd():
    parsed = parse_epd_line(STARTING_FEN)
    assert parsed is not None
    assert parsed[0] == startpos()
    assert parsed[1] is None
