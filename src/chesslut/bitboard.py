"""Bitboard primitives and the square numbering used throughout.

A bitboard is a plain int with one bit per square.  Bit n corresponds to
square n under the mapping

    bit = 8 * (rank - 1) + (7 - file_index)        file_index: a=0 .. h=7

so h1 is bit 0 (value 1), a1 is bit 7 (value 128), h8 is bit 56 and a8 is
bit 63.  Within a rank the low bit sits on the h side.  Every attack-table
key in this package depends on this order; do not change it.
"""

from __future__ import annotations

from typing import TypeAlias

Bitboard: TypeAlias = int
Square: TypeAlias = int  # 0..63

FULL_BOARD: Bitboard = (1 << 64) - 1

# Convenience square values, one bit each, low bit on the h file.
H1, G1, F1, E1, D1, C1, B1, A1 = (1 << i for i in range(0, 8))
H2, G2, F2, E2, D2, C2, B2, A2 = (1 << i for i in range(8, 16))
H3, G3, F3, E3, D3, C3, B3, A3 = (1 << i for i in range(16, 24))
H4, G4, F4, E4, D4, C4, B4, A4 = (1 << i for i in range(24, 32))
H5, G5, F5, E5, D5, C5, B5, A5 = (1 << i for i in range(32, 40))
H6, G6, F6, E6, D6, C6, B6, A6 = (1 << i for i in range(40, 48))
H7, G7, F7, E7, D7, C7, B7, A7 = (1 << i for i in range(48, 56))
H8, G8, F8, E8, D8, C8, B8, A8 = (1 << i for i in range(56, 64))


def off_board(square: object) -> ValueError:
    """The error the public slider queries raise for a square outside 0..63."""
    return ValueError(f"square {square!r} is off the board (expected 0..63)")


def file_of(square: Square) -> int:
    """File index 0-7 (a-h)."""
    return 7 - (square & 7)


def rank_of(square: Square) -> int:
    """Rank index 0-7 (ranks 1-8)."""
    return square >> 3


def make_square(file_index: int, rank_index: int) -> Square:
    """Square of a file index 0-7 (a-h) and a rank index 0-7; an index outside 0..7 raises ValueError."""
    if not (0 <= file_index <= 7 and 0 <= rank_index <= 7):
        raise ValueError(f"file index {file_index!r}, rank index {rank_index!r}: expected 0..7 each")
    return 8 * rank_index + (7 - file_index)


def square_name(square: Square) -> str:
    """Algebraic name, e.g. 0 -> 'h1', 63 -> 'a8'.  A square outside 0..63 raises ValueError."""
    if not 0 <= square < 64:
        raise off_board(square)
    return chr(ord("a") + file_of(square)) + str(rank_of(square) + 1)


def square_index(name: str) -> Square:
    """Parse an algebraic name, e.g. 'a1' -> 7."""
    if len(name) != 2 or name[0] not in "abcdefgh" or name[1] not in "12345678":
        raise ValueError(f"invalid square name: {name!r}")
    return make_square(ord(name[0]) - ord("a"), int(name[1]) - 1)


def bit_index(bb: Bitboard) -> Square:
    """Square index of a single-bit bitboard, e.g. 128 (a1) -> 7."""
    if bb == 0 or bb & (bb - 1):
        raise ValueError("expected exactly one set bit")
    return bb.bit_length() - 1


def _leaper_table(steps: tuple[tuple[int, int], ...]) -> tuple[Bitboard, ...]:
    """Squares one (file, rank) step away from each square, off-board steps dropped."""
    table = []
    for sq in range(64):
        f, r = file_of(sq), rank_of(sq)
        bb = 0
        for df, dr in steps:
            nf, nr = f + df, r + dr
            if 0 <= nf <= 7 and 0 <= nr <= 7:
                bb |= 1 << make_square(nf, nr)
        table.append(bb)
    return tuple(table)


# (file_step, rank_step) offsets of knight and king moves.
_KNIGHT_STEPS = ((1, 2), (2, 1), (2, -1), (1, -2), (-1, -2), (-2, -1), (-2, 1), (-1, 2))
_KING_STEPS = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))


KNIGHT_ATTACKS = _leaper_table(_KNIGHT_STEPS)
KING_ATTACKS = _leaper_table(_KING_STEPS)

# Pawn capture patterns by colour, white first; the other colour's row gives the attackers.
PAWN_ATTACKS = (
    _leaper_table(((1, 1), (-1, 1))),
    _leaper_table(((1, -1), (-1, -1))),
)


def pretty(bb: Bitboard) -> str:
    """ASCII diagram, rank 8 on top, files a-h left to right."""
    rows = []
    for r in range(7, -1, -1):
        cells = ["x" if bb & (1 << make_square(f, r)) else "." for f in range(8)]
        rows.append(f"{r + 1}  " + " ".join(cells))
    rows.append("   a b c d e f g h")
    return "\n".join(rows)
