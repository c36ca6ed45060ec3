"""Brute-force ray walker, the ground truth for sliding-piece attacks.

Deliberately naive: every query steps square by square in coordinate space
and shares no data with the lookup-table backends, which is what makes it
usable as an independent oracle.  A ray adds each square it visits and
stops after adding an occupied square (the blocker is attacked) or at the
board edge; the origin square itself is never included.  A square outside
0..63 raises the off-board error.
"""

from __future__ import annotations

from .bitboard import off_board

Direction = tuple[int, int]  # (file_step, rank_step), not both zero

ROOK_DIRECTIONS: tuple[Direction, ...] = ((1, 0), (-1, 0), (0, 1), (0, -1))
BISHOP_DIRECTIONS: tuple[Direction, ...] = ((1, 1), (1, -1), (-1, 1), (-1, -1))
QUEEN_DIRECTIONS: tuple[Direction, ...] = ROOK_DIRECTIONS + BISHOP_DIRECTIONS


def ray_attacks(occupied: int, square: int, directions: tuple[Direction, ...]) -> int:
    if not 0 <= square < 64:
        raise off_board(square)
    attacks = 0
    file_index = 7 - (square & 7)
    rank_index = square >> 3
    for file_step, rank_step in directions:
        f = file_index + file_step
        r = rank_index + rank_step
        while 0 <= f <= 7 and 0 <= r <= 7:
            bit = 1 << (8 * r + (7 - f))
            attacks |= bit
            if occupied & bit:
                break
            f += file_step
            r += rank_step
    return attacks


def rook_rays(occupied: int, square: int) -> int:
    return ray_attacks(occupied, square, ROOK_DIRECTIONS)


def bishop_rays(occupied: int, square: int) -> int:
    return ray_attacks(occupied, square, BISHOP_DIRECTIONS)


def queen_rays(occupied: int, square: int) -> int:
    return ray_attacks(occupied, square, QUEEN_DIRECTIONS)
