"""Rotated-bitboard baseline for sliding-piece attacks.

The classical alternative to direct lookup: keep three extra occupancy
bitboards whose layouts make every file and diagonal contiguous, so a
line's occupancy can be pulled out with a shift and a mask.

Layouts:

* 90 degrees: reflection across the a8-h1 line (g1 -> h2, f1 -> h3, squares
  on that line are fixed points).  Each file of the real board becomes one
  byte of the rotated board.
* 45 degrees (northeast and northwest): diagonals packed back to back in
  the same order the diagonal attack tables enumerate them (northeast
  starts at h1, northwest at a1), each diagonal occupying a run of bits at
  its prefix-sum offset.

A lookup extracts the line's occupancy byte, indexes a shared 8x256
first-rank attack array with the mover's position in the line, and maps
the attacked line positions back to board squares.  Occupancy bytes of
short diagonals are zero padded above the line length; the padding can
never block anything, and map-back ignores positions past the line end.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitboard import Bitboard, Square
from .tables import NE_DIAGONALS, NW_DIAGONALS


@dataclass(frozen=True)
class LineLayout:
    """Where each square's line lives inside one rotated board."""

    shift: tuple[int, ...]  # bit offset of the square's line
    length: tuple[int, ...]  # number of squares on the line
    pos: tuple[int, ...]  # the square's position within the line
    squares: tuple[tuple[Bitboard, ...], ...]  # line squares in position order


@dataclass(frozen=True)
class RotationMaps:
    """Square remappings plus per-line metadata for all four orientations."""

    r90: tuple[int, ...]  # square -> bit index in the 90 degree board
    r45_ne: tuple[int, ...]
    r45_nw: tuple[int, ...]
    rank_line: LineLayout
    file_line: LineLayout
    ne_line: LineLayout
    nw_line: LineLayout


# 8x256 table of first-rank attack bytes indexed by [position in line][occupancy].
LineAttackArrays = tuple[tuple[int, ...], ...]


def _diagonal_layout(diagonals: tuple[tuple[Bitboard, ...], ...]) -> tuple[list[int], LineLayout]:
    mapping = [0] * 64
    shift = [0] * 64
    length = [0] * 64
    pos = [0] * 64
    squares: list[tuple[Bitboard, ...]] = [()] * 64
    offset = 0
    for diagonal in diagonals:
        for k, square_bb in enumerate(diagonal):
            sq = square_bb.bit_length() - 1
            mapping[sq] = offset + k
            shift[sq] = offset
            length[sq] = len(diagonal)
            pos[sq] = k
            squares[sq] = diagonal
        offset += len(diagonal)
    layout = LineLayout(tuple(shift), tuple(length), tuple(pos), tuple(squares))
    return mapping, layout


def build_rotation_maps() -> RotationMaps:
    """Build all three square remappings and the per-square line metadata."""
    # 90 degrees: (rank r, in-rank offset o) -> (rank o, in-rank offset r).
    r90 = tuple(8 * (sq & 7) + (sq >> 3) for sq in range(64))

    rank_shift = tuple(8 * (sq >> 3) for sq in range(64))
    rank_pos = tuple(sq & 7 for sq in range(64))
    rank_squares = tuple(
        tuple(1 << (8 * (sq >> 3) + k) for k in range(8)) for sq in range(64)
    )
    rank_line = LineLayout(rank_shift, (8,) * 64, rank_pos, rank_squares)

    # In the 90 degree board a file's byte sits at 8 * o where o is the
    # in-rank offset shared by the file's squares; bit k of the byte is the
    # square on rank k + 1.
    file_shift = tuple(8 * (sq & 7) for sq in range(64))
    file_pos = tuple(sq >> 3 for sq in range(64))
    file_squares = tuple(
        tuple(1 << (8 * k + (sq & 7)) for k in range(8)) for sq in range(64)
    )
    file_line = LineLayout(file_shift, (8,) * 64, file_pos, file_squares)

    ne_map, ne_line = _diagonal_layout(NE_DIAGONALS)
    nw_map, nw_line = _diagonal_layout(NW_DIAGONALS)

    return RotationMaps(
        r90=r90,
        r45_ne=tuple(ne_map),
        r45_nw=tuple(nw_map),
        rank_line=rank_line,
        file_line=file_line,
        ne_line=ne_line,
        nw_line=nw_line,
    )


def rotate_occupancy(occ: Bitboard, mapping: tuple[int, ...]) -> Bitboard:
    """Apply a square remapping to every set bit of *occ*."""
    out = 0
    while occ:
        low = occ & -occ
        out |= 1 << mapping[low.bit_length() - 1]
        occ &= occ - 1
    return out


@dataclass(frozen=True)
class RotatedState:
    """Main occupancy plus its three rotated copies; an immutable value."""

    occ: Bitboard
    occ90: Bitboard
    occ45_ne: Bitboard
    occ45_nw: Bitboard


def make_rotated_state(occ: Bitboard, maps: RotationMaps) -> RotatedState:
    return RotatedState(
        occ=occ,
        occ90=rotate_occupancy(occ, maps.r90),
        occ45_ne=rotate_occupancy(occ, maps.r45_ne),
        occ45_nw=rotate_occupancy(occ, maps.r45_nw),
    )


def derive_rotated_state(parent: RotatedState, occ: Bitboard, maps: RotationMaps) -> RotatedState:
    """State for *occ*, built from *parent* by flipping only the squares that differ.

    Each remapping is a bit permutation, so rotation distributes over XOR:
    rotating the difference and XORing it in equals rotating *occ* afresh.
    A move changes one to four squares, against the ~30 a full rotation walks.
    """
    delta = occ ^ parent.occ
    flip90 = flip_ne = flip_nw = 0
    while delta:
        low = delta & -delta
        sq = low.bit_length() - 1
        flip90 |= 1 << maps.r90[sq]
        flip_ne |= 1 << maps.r45_ne[sq]
        flip_nw |= 1 << maps.r45_nw[sq]
        delta ^= low
    return RotatedState(
        occ=occ,
        occ90=parent.occ90 ^ flip90,
        occ45_ne=parent.occ45_ne ^ flip_ne,
        occ45_nw=parent.occ45_nw ^ flip_nw,
    )


def toggle_square(state: RotatedState, maps: RotationMaps, square: Square) -> RotatedState:
    """Flip one square in the main board and all three rotated boards."""
    return derive_rotated_state(state, state.occ ^ (1 << square), maps)


def build_line_attack_bytes() -> LineAttackArrays:
    """First-rank attack bytes: [mover position 0..7][occupancy byte] -> byte."""
    table = []
    for pos in range(8):
        row = []
        for occ in range(256):
            attacks = 0
            for ahead in range(pos + 1, 8):
                attacks |= 1 << ahead
                if occ & (1 << ahead):
                    break
            for behind in range(pos - 1, -1, -1):
                attacks |= 1 << behind
                if occ & (1 << behind):
                    break
            row.append(attacks)
        table.append(tuple(row))
    return tuple(table)


def _map_line(attack_byte: int, line_squares: tuple[Bitboard, ...]) -> Bitboard:
    """Map attacked line positions back to board squares."""
    bb = 0
    attack_byte &= (1 << len(line_squares)) - 1
    while attack_byte:
        low = attack_byte & -attack_byte
        bb |= line_squares[low.bit_length() - 1]
        attack_byte &= attack_byte - 1
    return bb


def rook_attacks_rotated(
    state: RotatedState, maps: RotationMaps, arrays: LineAttackArrays, square: Square
) -> Bitboard:
    r = square >> 3
    o = square & 7
    rank_occ = (state.occ >> (8 * r)) & 0xFF
    attacks = arrays[o][rank_occ] << (8 * r)  # the rank byte is already board-aligned
    file_occ = (state.occ90 >> (8 * o)) & 0xFF
    attacks |= _map_line(arrays[r][file_occ], maps.file_line.squares[square])
    return attacks


def bishop_attacks_rotated(
    state: RotatedState, maps: RotationMaps, arrays: LineAttackArrays, square: Square
) -> Bitboard:
    ne = maps.ne_line
    ne_occ = (state.occ45_ne >> ne.shift[square]) & ((1 << ne.length[square]) - 1)
    attacks = _map_line(arrays[ne.pos[square]][ne_occ], ne.squares[square])
    nw = maps.nw_line
    nw_occ = (state.occ45_nw >> nw.shift[square]) & ((1 << nw.length[square]) - 1)
    attacks |= _map_line(arrays[nw.pos[square]][nw_occ], nw.squares[square])
    return attacks


def queen_attacks_rotated(
    state: RotatedState, maps: RotationMaps, arrays: LineAttackArrays, square: Square
) -> Bitboard:
    return rook_attacks_rotated(state, maps, arrays, square) | bishop_attacks_rotated(
        state, maps, arrays, square
    )
