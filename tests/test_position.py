import copy
import pickle

import pytest

from chesslut.bitboard import C4, bit_index, square_index
from chesslut.movegen import generate_legal, make_move
from chesslut.position import (
    BISHOP,
    BLACK,
    KING,
    PAWN,
    STARTING_FEN,
    WHITE,
    FenError,
    Position,
    parse_epd_line,
    parse_fen,
    serialize_fen,
    startpos,
)


def test_startpos_layout():
    pos = startpos()
    assert pos.occupied().bit_count() == 32
    assert pos.side_to_move == WHITE
    assert pos.castling == 0b1111
    assert pos.ep_square is None
    assert pos.pieces[WHITE * 6 + PAWN].bit_count() == 8
    assert pos.pieces[WHITE * 6 + KING].bit_length() - 1 == square_index("e1")
    assert pos.pieces[BLACK * 6 + KING].bit_length() - 1 == square_index("e8")


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
    assert pos.pieces[WHITE * 6 + BISHOP] == C4
    assert pos.piece_at(bit_index(C4)) == (WHITE, BISHOP)
    assert pos.pieces[WHITE * 6 + KING] == 0


@pytest.mark.parametrize("square", [-1, 64, 65, -64])
def test_piece_at_rejects_off_board_squares(square):
    with pytest.raises(ValueError, match=f"square {square} is off the board"):
        startpos().piece_at(square)


_START = startpos()
_WITH_BLACK_PAWN_ON_E2 = _START.pieces[:6] + (_START.pieces[6] | 1 << square_index("e2"),) + _START.pieces[7:]


@pytest.mark.parametrize(
    "pieces, side, castling, ep, message",
    [
        (_START.pieces[:11], WHITE, 0, None, "expected 12 piece boards, got 11"),
        (_START.pieces + (0,), WHITE, 0, None, "expected 12 piece boards, got 13"),
        (_START.pieces[:1] + (1 << 64,) + _START.pieces[2:], WHITE, 0, None, "piece board 1 is not a 64-bit board"),
        ((-1,) + _START.pieces[1:], WHITE, 0, None, "piece board 0 is not a 64-bit board"),
        (_WITH_BLACK_PAWN_ON_E2, WHITE, 0, None, "piece board 6 shares e2 with an earlier board"),
        (_START.pieces, 2, 0, None, "side to move must be 0 or 1, got 2"),
        (_START.pieces, -1, 0, None, "side to move must be 0 or 1, got -1"),
        (_START.pieces, WHITE, 16, None, r"castling rights must be a mask in 0\.\.15, got 16"),
        (_START.pieces, WHITE, -1, None, r"castling rights must be a mask in 0\.\.15, got -1"),
        (_START.pieces, WHITE, 0, 99, r"en-passant square must be None or 0\.\.63, got 99"),
        (_START.pieces, WHITE, 0, 64, r"en-passant square must be None or 0\.\.63, got 64"),
        (_START.pieces, WHITE, 0, -1, r"en-passant square must be None or 0\.\.63, got -1"),
    ],
    ids=[
        "11-boards", "13-boards", "bit-64", "negative-board", "shared-square", "side-2", "side-minus-1",
        "castling-16", "castling-minus-1", "ep-99", "ep-64", "ep-minus-1",
    ],
)
def test_constructor_rejects_each_bad_field(pieces, side, castling, ep, message):
    # make_move builds children with tuple.__new__ and skips these checks.
    with pytest.raises(ValueError, match=message):
        Position(pieces, side, castling, ep)


def test_rank_with_nine_files_rejected():
    for fen in (
        "9/8/8/8/8/8/8/8 w - -",
        "rnbqkbnrr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq -",
        "8/8/8/8/8/8/8/K6 w - -",  # seven files
    ):
        with pytest.raises(FenError, match="rank"):
            parse_fen(fen)
    # Only 1-8 are skip counts: other characters that str.isdigit accepts are not.
    for fen in ("8/8/8/8/8/8/8/7\u00b2 w - -", "8/8/8/8/8/8/8/\u06635 w - -"):
        with pytest.raises(FenError, match="bad skip count .* in rank 1"):
            parse_fen(fen)


def test_unknown_piece_letter_rejected():
    with pytest.raises(FenError, match="unknown piece"):
        parse_fen("rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNX w KQkq -")


def test_contradictory_castling_rights_rejected():
    # King not on its home square but a kingside flag claimed.
    with pytest.raises(FenError, match="castling"):
        parse_fen("rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBN1 w KQkq -")
    with pytest.raises(FenError, match="castling"):
        parse_fen("8/8/8/8/8/8/8/3K4 w K -")
    with pytest.raises(FenError, match="unknown castling flag 'X'"):
        parse_fen("4k3/8/8/8/8/8/8/4K2R w X -")
    with pytest.raises(FenError, match="duplicate castling flag 'K'"):
        parse_fen("4k3/8/8/8/8/8/8/4K2R w KK -")


def test_too_few_fields_rejected():
    with pytest.raises(FenError, match="fields"):
        parse_fen("8/8/8/8/8/8/8/8 w -")


def test_epd_line_with_too_few_fields_rejected():
    with pytest.raises(FenError, match="expected at least 4 fields, got 2"):
        parse_epd_line("8/8/8/8/8/8/8/8 w")


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
        "4k3/8/8/8/8/8/8/4K3 x - -",  # no side to move at all
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


def test_position_is_an_immutable_hashable_value(direct_backend):
    pos = startpos()
    for field in Position._fields:
        with pytest.raises(AttributeError):
            setattr(pos, field, getattr(pos, field))
    with pytest.raises(AttributeError):
        pos.extra = 1

    def play(position, *ucis):
        for uci in ucis:
            position = make_move(position, next(m for m in generate_legal(position, direct_backend) if m.uci() == uci))
        return position

    # Reached by make_move and by parse_fen: equal, with equal hashes.
    for played, fen in (
        (play(pos, "e2e4"), "rnbqkbnr/pppppppp/8/8/4P3/8/PPPP1PPP/RNBQKBNR b KQkq e3"),
        (play(pos, "g1f3", "g8f6", "f3g1", "f6g8"), STARTING_FEN),
    ):
        parsed = parse_fen(fen)
        assert played == parsed and hash(played) == hash(parsed)
        assert played.occupancy == parsed.occupancy

    # The four-argument constructor derives the occupancy from the pieces.
    built = Position(pos.pieces, pos.side_to_move, pos.castling, pos.ep_square)
    assert built == pos and built.occupancy == (0xFFFF, 0xFFFF << 48)
    assert built.color_bb(WHITE) | built.color_bb(BLACK) == built.occupied()

    # Copies, pickles and _replace go through it too, so the occupancy stays derived.
    assert copy.copy(pos) == pos and copy.deepcopy(pos) == pos
    assert pickle.loads(pickle.dumps(pos)) == pos
    no_white_pawns = pos._replace(pieces=(0,) + pos.pieces[1:])
    assert no_white_pawns.occupancy == (0xFF, 0xFFFF << 48)
    with pytest.raises(TypeError):
        pos._replace(occupancy=(0, 0))
