"""Position state and FEN/EPD text interchange.

A Position is an immutable value: twelve piece bitboards (white then black,
pawn through king), the side to move, castling rights as a 4-bit mask and
an optional en-passant target square.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitboard import Bitboard, Square, file_of, make_square, rank_of, square_index, square_name
from .rays import bishop_rays, rook_rays

WHITE, BLACK = 0, 1
PAWN, KNIGHT, BISHOP, ROOK, QUEEN, KING = range(6)

PIECE_CHARS = "PNBRQK"

# Castling-rights mask bits.
CASTLE_WK, CASTLE_WQ, CASTLE_BK, CASTLE_BQ = 1, 2, 4, 8

STARTING_FEN = "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - 0 1"

_BACK_RANKS: Bitboard = 0xFF | 0xFF << 56

# (file_step, rank_step) offsets of knight and king moves.
_KNIGHT_STEPS = ((1, 2), (2, 1), (2, -1), (1, -2), (-1, -2), (-2, -1), (-2, 1), (-1, 2))
_KING_STEPS = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))


class FenError(ValueError):
    """Raised for malformed FEN or EPD input."""


@dataclass(frozen=True)
class Position:
    pieces: tuple[Bitboard, ...]  # 12 boards: color * 6 + piece_type
    side_to_move: int
    castling: int
    ep_square: Square | None

    def piece_bb(self, color: int, piece_type: int) -> Bitboard:
        return self.pieces[color * 6 + piece_type]

    def color_bb(self, color: int) -> Bitboard:
        base = color * 6
        boards = self.pieces
        return (
            boards[base]
            | boards[base + 1]
            | boards[base + 2]
            | boards[base + 3]
            | boards[base + 4]
            | boards[base + 5]
        )

    def occupied(self) -> Bitboard:
        return self.color_bb(WHITE) | self.color_bb(BLACK)

    def piece_at(self, square: Square) -> tuple[int, int] | None:
        """(color, piece_type) on *square*, or None."""
        bb = 1 << square
        for idx, board in enumerate(self.pieces):
            if board & bb:
                return divmod(idx, 6)
        return None

    def king_square(self, color: int) -> Square | None:
        bb = self.piece_bb(color, KING)
        return bb.bit_length() - 1 if bb else None


def _parse_board_field(field: str) -> list[Bitboard]:
    boards = [0] * 12
    ranks = field.split("/")
    if len(ranks) != 8:
        raise FenError(f"board field: expected 8 ranks, got {len(ranks)} (field 1)")
    for row, rank_text in enumerate(ranks):
        rank_index = 7 - row  # FEN lists rank 8 first
        file_index = 0
        for ch in rank_text:
            if ch.isdigit():
                if ch == "0" or ch == "9":
                    raise FenError(f"bad skip count {ch!r} in rank {rank_index + 1} (field 1)")
                file_index += int(ch)
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
    for color, word in ((WHITE, "white"), (BLACK, "black")):
        if boards[color * 6 + KING].bit_count() > 1:
            raise FenError(f"multiple {word} kings (field 1)")
    stray = (boards[PAWN] | boards[6 + PAWN]) & _BACK_RANKS
    if stray:
        square = square_name(stray.bit_length() - 1)
        raise FenError(f"pawn on {square}: pawns cannot stand on rank 1 or 8 (field 1)")
    return boards


def _check_ep_square(ep: Square, side: int, boards: list[Bitboard]) -> None:
    """The pawn that just double-pushed past *ep* must stand in front of it, its path empty."""
    step = 8 if side == WHITE else -8  # the side to move's pawn direction
    pawn_sq, origin = ep - step, ep + step
    if not boards[(1 - side) * 6 + PAWN] & (1 << pawn_sq):
        raise FenError(
            f"en-passant square {square_name(ep)} but no pawn on {square_name(pawn_sq)} "
            "that could have just double-pushed (field 4)"
        )
    occupied = 0
    for board in boards:
        occupied |= board
    blocked = occupied & ((1 << ep) | (1 << origin))
    if blocked:
        raise FenError(
            f"en-passant square {square_name(ep)} but {square_name(blocked.bit_length() - 1)} "
            "is occupied (field 4)"
        )


def _step_targets(square: Square, steps: tuple[tuple[int, int], ...]) -> Bitboard:
    """Squares one (file, rank) step away from *square*, off-board steps dropped."""
    file_index, rank_index = file_of(square), rank_of(square)
    targets = 0
    for file_step, rank_step in steps:
        f, r = file_index + file_step, rank_index + rank_step
        if 0 <= f <= 7 and 0 <= r <= 7:
            targets |= 1 << make_square(f, r)
    return targets


def _check_waiting_king(side: int, boards: list[Bitboard]) -> None:
    """The side not to move has just moved, so its king cannot be in check."""
    king = boards[(1 - side) * 6 + KING]
    if not king:
        return
    square = king.bit_length() - 1
    occupied = 0
    for board in boards:
        occupied |= board
    movers = boards[side * 6 : side * 6 + 6]
    pawn_rank_step = -1 if side == WHITE else 1  # the attacking pawn stands behind the king
    checkers = (
        rook_rays(occupied, square) & (movers[ROOK] | movers[QUEEN])
        | bishop_rays(occupied, square) & (movers[BISHOP] | movers[QUEEN])
        | _step_targets(square, _KNIGHT_STEPS) & movers[KNIGHT]
        | _step_targets(square, ((-1, pawn_rank_step), (1, pawn_rank_step))) & movers[PAWN]
        | _step_targets(square, _KING_STEPS) & movers[KING]
    )
    if checkers:
        names = ("white", "black")
        raise FenError(
            f"{names[side]} to move but the {names[1 - side]} king on {square_name(square)} "
            f"is in check from {square_name(checkers.bit_length() - 1)} (field 2)"
        )


_CASTLE_REQUIREMENTS = {
    "K": (CASTLE_WK, WHITE, square_index("e1"), square_index("h1")),
    "Q": (CASTLE_WQ, WHITE, square_index("e1"), square_index("a1")),
    "k": (CASTLE_BK, BLACK, square_index("e8"), square_index("h8")),
    "q": (CASTLE_BQ, BLACK, square_index("e8"), square_index("a8")),
}


def _parse_castling_field(field: str, boards: list[Bitboard]) -> int:
    if field == "-":
        return 0
    mask = 0
    for ch in field:
        if ch not in _CASTLE_REQUIREMENTS:
            raise FenError(f"unknown castling flag {ch!r} (field 3)")
        flag, color, king_sq, rook_sq = _CASTLE_REQUIREMENTS[ch]
        if mask & flag:
            raise FenError(f"duplicate castling flag {ch!r} (field 3)")
        if not boards[color * 6 + KING] & (1 << king_sq):
            raise FenError(f"castling flag {ch!r} but king is not on {square_name(king_sq)} (field 3)")
        if not boards[color * 6 + ROOK] & (1 << rook_sq):
            raise FenError(f"castling flag {ch!r} but no rook on {square_name(rook_sq)} (field 3)")
        mask |= flag
    return mask


def parse_fen(text: str) -> Position:
    """Parse a FEN record (at least board, side, castling and ep fields)."""
    fields = text.split()
    if len(fields) < 4:
        raise FenError(f"expected at least 4 fields, got {len(fields)}")

    boards = _parse_board_field(fields[0])

    if fields[1] == "w":
        side = WHITE
    elif fields[1] == "b":
        side = BLACK
    else:
        raise FenError(f"side to move must be 'w' or 'b', got {fields[1]!r} (field 2)")
    _check_waiting_king(side, boards)

    castling = _parse_castling_field(fields[2], boards)

    if fields[3] == "-":
        ep: Square | None = None
    else:
        try:
            ep = square_index(fields[3])
        except ValueError as exc:
            raise FenError(f"{exc} (field 4)") from None
        expected_rank = 5 if side == WHITE else 2
        if ep >> 3 != expected_rank:
            raise FenError(
                f"en-passant square {fields[3]} on wrong rank for side to move (field 4)"
            )
        _check_ep_square(ep, side, boards)

    return Position(tuple(boards), side, castling, ep)


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

    castling = "".join(
        ch for ch, (flag, *_rest) in _CASTLE_REQUIREMENTS.items() if position.castling & flag
    )
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
    if len(fields) < 4:
        raise FenError(f"expected at least 4 fields, got {len(fields)}")
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
