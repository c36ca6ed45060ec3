"""Position state and FEN/EPD text interchange.

A Position is an immutable value: twelve piece bitboards (white then black,
pawn through king), the side to move, castling rights as a 4-bit mask and
an optional en-passant target square.  It also carries each colour's
occupancy, the OR of that colour's six piece boards: the four-argument
constructor derives it from the pieces, and make_move keeps it
incrementally, XORing the squares a move touches into the parent's boards.

The constructor is the one place that knows what a legal position is, and
parse_fen only turns text into its four fields, text checked before rules.
It refuses a board that is not 64 bits or shares a square, more than one
king a side, a pawn on rank 1 or 8, the side not to move in check, a
castling right without its king and rook at home, and an en-passant square
off its rank or not behind a pawn that has just double-pushed past it.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from .bitboard import (
    KING_ATTACKS, KNIGHT_ATTACKS, PAWN_ATTACKS, Bitboard, Square, make_square, off_board, square_index, square_name,
)
from .rays import bishop_rays, rook_rays

WHITE, BLACK = 0, 1
PAWN, KNIGHT, BISHOP, ROOK, QUEEN, KING = range(6)

PIECE_CHARS = "PNBRQK"

# Castling-rights mask bits.
CASTLE_WK, CASTLE_WQ, CASTLE_BK, CASTLE_BQ = 1, 2, 4, 8

STARTING_FEN = "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - 0 1"

_BACK_RANKS: Bitboard = 0xFF | 0xFF << 56


class CastlingRight(NamedTuple):
    """One castling right and the squares it involves."""

    flag: int
    letter: str  # its FEN letter
    color: int
    king_from: Square
    king_to: Square
    rook_from: Square
    rook_to: Square
    must_be_empty: Bitboard
    must_be_safe: tuple[Square, ...]  # not attacked: the king's start, path and landing


def _squares(names: str) -> tuple[Square, ...]:
    return tuple(square_index(name) for name in names.split())


# One row per right, in FEN order; every other castling table is derived from these.
CASTLING: tuple[CastlingRight, ...] = tuple(
    CastlingRight(
        flag, letter, color, *_squares(king_and_rook), sum(1 << sq for sq in _squares(empty)), _squares(safe)
    )
    for flag, letter, color, king_and_rook, empty, safe in (
        (CASTLE_WK, "K", WHITE, "e1 g1 h1 f1", "f1 g1", "e1 f1 g1"),
        (CASTLE_WQ, "Q", WHITE, "e1 c1 a1 d1", "b1 c1 d1", "e1 d1 c1"),
        (CASTLE_BK, "k", BLACK, "e8 g8 h8 f8", "f8 g8", "e8 f8 g8"),
        (CASTLE_BQ, "q", BLACK, "e8 c8 a8 d8", "b8 c8 d8", "e8 d8 c8"),
    )
)


class FenError(ValueError):
    """Raised for malformed FEN or EPD text, or a position that breaks a rule; names the FEN field at fault."""


class _PositionFields(NamedTuple):
    pieces: tuple[Bitboard, ...]  # 12 boards: color * 6 + piece_type
    side_to_move: int
    castling: int
    ep_square: Square | None
    occupancy: tuple[Bitboard, Bitboard]  # (white, black): each colour's pieces ORed


class Position(_PositionFields):
    """A legal board position; ``Position(pieces, side, castling, ep)`` checks it and derives the occupancy.

    The constructor's four arguments are FEN fields 1-4 in order.  It, and so
    ``_replace``, copy and pickle, refuses an illegal position (see the module
    docstring) with a FenError that names the field.
    ``tuple.__new__(Position, fields)`` takes all five fields as they are,
    occupancy included, and checks nothing: make_move builds its legal children
    that way without deriving it again, and without ``_make``'s classmethod
    call and length check.
    """

    __slots__ = ()

    def __new__(
        cls, pieces: tuple[Bitboard, ...], side_to_move: int, castling: int, ep_square: Square | None
    ) -> Position:
        pieces = tuple(pieces)
        if len(pieces) != 12:
            raise FenError(f"expected 12 piece boards, got {len(pieces)} (field 1)")
        occupancy = [0, 0]
        for index, board in enumerate(pieces):
            if board < 0 or board >> 64:
                raise FenError(f"piece board {index} is not a 64-bit board: {board:#x} (field 1)")
            if shared := board & (occupancy[0] | occupancy[1]):
                square = square_name(shared.bit_length() - 1)
                raise FenError(f"piece board {index} shares {square} with an earlier board (field 1)")
            occupancy[index >= 6] |= board
        for color, word in ((WHITE, "white"), (BLACK, "black")):
            if pieces[color * 6 + KING].bit_count() > 1:
                raise FenError(f"multiple {word} kings (field 1)")
        if stray := (pieces[PAWN] | pieces[6 + PAWN]) & _BACK_RANKS:
            square = square_name(stray.bit_length() - 1)
            raise FenError(f"pawn on {square}: pawns cannot stand on rank 1 or 8 (field 1)")
        if side_to_move not in (WHITE, BLACK):
            raise FenError(f"side to move must be 0 or 1, got {side_to_move!r} (field 2)")
        occupied = occupancy[0] | occupancy[1]
        _check_waiting_king(side_to_move, pieces, occupied)
        if not 0 <= castling <= 15:
            raise FenError(f"castling rights must be a mask in 0..15, got {castling!r} (field 3)")
        for right in CASTLING:
            if castling & right.flag:
                for piece, square, name in ((KING, right.king_from, "king"), (ROOK, right.rook_from, "rook")):
                    if not pieces[right.color * 6 + piece] >> square & 1:
                        where = square_name(square)
                        raise FenError(f"castling flag {right.letter!r} but no {name} on {where} (field 3)")
        if ep_square is not None:
            _check_ep_square(ep_square, side_to_move, pieces, occupied)
        return tuple.__new__(cls, (pieces, side_to_move, castling, ep_square, tuple(occupancy)))

    def __getnewargs__(self) -> tuple:
        return self[:4]  # copy and pickle go through the four-argument constructor

    def _replace(self, **changes: Any) -> Position:
        """A copy with some of the four public fields changed; the occupancy is derived again."""
        if "occupancy" in changes:
            raise TypeError("occupancy is derived from pieces")
        return Position(*_PositionFields._replace(self, **changes)[:4])

    def color_bb(self, color: int) -> Bitboard:
        return self.occupancy[color]

    def occupied(self) -> Bitboard:
        white, black = self.occupancy
        return white | black

    def piece_at(self, square: Square) -> tuple[int, int] | None:
        """(color, piece_type) on *square*, or None.  A square outside 0..63 raises ValueError."""
        if not 0 <= square < 64:
            raise off_board(square)
        bb = 1 << square
        for idx, board in enumerate(self.pieces):
            if board & bb:
                return divmod(idx, 6)
        return None


def _parse_board_field(field: str) -> list[Bitboard]:
    boards = [0] * 12
    ranks = field.split("/")
    if len(ranks) != 8:
        raise FenError(f"board field: expected 8 ranks, got {len(ranks)} (field 1)")
    for row, rank_text in enumerate(ranks):
        rank_index = 7 - row  # FEN lists rank 8 first
        file_index = 0
        for ch in rank_text:
            if ch in "12345678":
                file_index += int(ch)
            elif ch.isdigit():
                raise FenError(f"bad skip count {ch!r} in rank {rank_index + 1} (field 1)")
            else:
                piece = PIECE_CHARS.find(ch.upper())
                if piece < 0:
                    raise FenError(f"unknown piece {ch!r} in rank {rank_index + 1} (field 1)")
                if file_index > 7:
                    raise FenError(f"rank {rank_index + 1}: covers more than 8 files (field 1)")
                color = WHITE if ch.isupper() else BLACK
                boards[color * 6 + piece] |= 1 << make_square(file_index, rank_index)
                file_index += 1
        if file_index != 8:
            raise FenError(
                f"rank {rank_index + 1}: covers {file_index} files, expected 8 (field 1)"
            )
    return boards


def _check_ep_square(ep: Square, side: int, pieces: tuple[Bitboard, ...], occupied: Bitboard) -> None:
    """*ep* lies behind a pawn that has just double-pushed, with *ep* and the pawn's origin empty."""
    if not 0 <= ep < 64:
        raise FenError(f"en-passant square must be None or 0..63, got {ep!r} (field 4)")
    if ep >> 3 != (5 if side == WHITE else 2):
        raise FenError(f"en-passant square {square_name(ep)} on wrong rank for side to move (field 4)")
    step = 8 if side == WHITE else -8  # the side to move's pawn direction
    pawn_sq, origin = ep - step, ep + step
    if not pieces[(1 - side) * 6 + PAWN] & (1 << pawn_sq):
        raise FenError(
            f"en-passant square {square_name(ep)} but no pawn on {square_name(pawn_sq)} "
            "that could have just double-pushed (field 4)"
        )
    blocked = occupied & ((1 << ep) | (1 << origin))
    if blocked:
        raise FenError(
            f"en-passant square {square_name(ep)} but {square_name(blocked.bit_length() - 1)} "
            "is occupied (field 4)"
        )


def _check_waiting_king(side: int, pieces: tuple[Bitboard, ...], occupied: Bitboard) -> None:
    """The side not to move has just moved, so its king cannot be in check."""
    king = pieces[(1 - side) * 6 + KING]
    if not king:
        return
    square = king.bit_length() - 1
    movers = pieces[side * 6 : side * 6 + 6]
    checkers = (
        rook_rays(occupied, square) & (movers[ROOK] | movers[QUEEN])
        | bishop_rays(occupied, square) & (movers[BISHOP] | movers[QUEEN])
        | KNIGHT_ATTACKS[square] & movers[KNIGHT]
        | PAWN_ATTACKS[1 - side][square] & movers[PAWN]
        | KING_ATTACKS[square] & movers[KING]
    )
    if checkers:
        names = ("white", "black")
        raise FenError(
            f"{names[side]} to move but the {names[1 - side]} king on {square_name(square)} "
            f"is in check from {square_name(checkers.bit_length() - 1)} (field 2)"
        )


_CASTLING_LETTERS = {right.letter: right.flag for right in CASTLING}


def _parse_castling_field(field: str) -> int:
    if field == "-":
        return 0
    mask = 0
    for ch in field:
        if ch not in _CASTLING_LETTERS:
            raise FenError(f"unknown castling flag {ch!r} (field 3)")
        if mask & _CASTLING_LETTERS[ch]:
            raise FenError(f"duplicate castling flag {ch!r} (field 3)")
        mask |= _CASTLING_LETTERS[ch]
    return mask


def parse_fen(text: str) -> Position:
    """Parse a FEN record (at least board, side, castling and ep fields); Position checks the rules."""
    fields = text.split()
    if len(fields) < 4:
        raise FenError(f"expected at least 4 fields, got {len(fields)}")
    boards = _parse_board_field(fields[0])
    if fields[1] not in ("w", "b"):
        raise FenError(f"side to move must be 'w' or 'b', got {fields[1]!r} (field 2)")
    castling = _parse_castling_field(fields[2])
    ep: Square | None = None
    if fields[3] != "-":
        try:
            ep = square_index(fields[3])
        except ValueError as exc:
            raise FenError(f"{exc} (field 4)") from None
    return Position(boards, "wb".index(fields[1]), castling, ep)


def serialize_fen(position: Position) -> str:
    """FEN record for *position* (halfmove and fullmove fixed at '0 1')."""
    rows = []
    for rank_index in range(7, -1, -1):
        row = ""
        empty = 0
        for file_index in range(8):
            found = position.piece_at(make_square(file_index, rank_index))
            if found is None:
                empty += 1
                continue
            if empty:
                row += str(empty)
                empty = 0
            color, piece = found
            ch = PIECE_CHARS[piece]
            row += ch if color == WHITE else ch.lower()
        if empty:
            row += str(empty)
        rows.append(row)

    castling = "".join(right.letter for right in CASTLING if position.castling & right.flag)
    return " ".join(
        (
            "/".join(rows),
            "w" if position.side_to_move == WHITE else "b",
            castling or "-",
            square_name(position.ep_square) if position.ep_square is not None else "-",
            "0",
            "1",
        )
    )


def parse_epd_line(text: str) -> tuple[Position, str | None] | None:
    """Parse one EPD (or FEN) line; returns None for blank or comment lines.

    The ``id`` opcode is captured when present; other opcodes are ignored.
    """
    line = text.strip()
    if not line or line.startswith("#"):
        return None

    fields = line.split()
    position = parse_fen(" ".join(fields[:4]))

    record_id = None
    rest = " ".join(fields[4:])
    for op in rest.split(";"):
        op = op.strip()
        if op.startswith("id "):
            value = op[3:].strip()
            record_id = value.strip('"')
            break
    return position, record_id


def startpos() -> Position:
    return parse_fen(STARTING_FEN)
