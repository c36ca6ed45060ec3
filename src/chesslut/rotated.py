"""Rotated-bitboard baseline for sliding-piece attacks.

The classical alternative to direct lookup: keep three extra occupancy
bitboards whose layouts make every file and diagonal contiguous, so a
line's occupancy can be pulled out with a shift and a mask.

Layouts:

* 90 degrees: reflection across the a8-h1 line (g1 -> h2, f1 -> h3, squares
  on that line are fixed points).  Each file of the real board becomes one
  byte of the rotated board, the h file lowest.
* 45 degrees (northeast and northwest): diagonals packed back to back in
  the same order the diagonal attack tables enumerate them (northeast
  starts at h1, northwest at a1), each diagonal occupying a run of bits at
  its prefix-sum offset.

Every line family, ranks of the main board included, has one
``LineLayout``: per square, the bit offset of its line inside a
``RotatedState``, its board's offset (0, 64, 128 or 192) included, its
position in the line and the line's ``tables.line_to_board`` table.  The
module functions below are the composed reference form of a lookup, the
same for all four lines: shift the line's occupancy byte down from the
state, index the 8x256 first-rank attack array with the mover's position,
and map the attack byte back to board squares through the line's table.
That array is ``tables.build_line_attack_bytes``, the walk the direct
tables are built from.  The byte of a short diagonal also holds bits of
the next diagonal above the line's end, or of the next board; those can
only cut attacks off past that end, and the line's table maps every bit
past the end to no square.  ``RotatedBackend`` resolves that composition
once per square for the search.

Keeping the rotated boards up is the design's price, and the four boards
live side by side in one int to keep it small: a ``RotatedState`` is
``occ | occ90 << 64 | occ45_ne << 128 | occ45_nw << 192``.  A square's bit
in all four boards is then one int, ``RotationMaps.flips[sq]``, and
flipping a square is one XOR.  ``make_rotated_state`` rotates a board from
scratch a byte at a time: the maps hold eight 256-entry tables, one per
byte of the main board, whose entries OR together that byte's squares'
flips.  ``rotate_occupancy``, one bit at a time, is the reference it is
tested against.  The search keeps the boards up by XORing in the flips of
the squares a move touches (``RotatedBackend.prepare``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitboard import FULL_BOARD, Bitboard, Square, off_board
from .tables import FILE_LINES, NE_DIAGONALS, NW_DIAGONALS, RANK_LINES, LineAttackArrays, line_to_board
from .tables import build_line_attack_bytes as build_line_attack_bytes  # the baseline's byte array


@dataclass(frozen=True)
class LineLayout:
    """Where each square's line lives inside a ``RotatedState``."""

    shift: tuple[int, ...]  # bit offset of the square's line in a RotatedState, its board's offset included
    pos: tuple[int, ...]  # the square's position within the line
    board: tuple[tuple[Bitboard, ...], ...]  # the line's line_to_board table


@dataclass(frozen=True)
class RotationMaps:
    """Square remappings plus the per-square data the lookups and the upkeep read."""

    r90: tuple[int, ...]  # square -> bit index in the 90 degree board
    r45_ne: tuple[int, ...]
    r45_nw: tuple[int, ...]
    rank_line: LineLayout
    file_line: LineLayout
    ne_line: LineLayout
    nw_line: LineLayout
    flips: tuple[int, ...]  # square -> its bit in all four boards of a RotatedState
    # Byte k of the main board -> the OR of its squares' flips.
    byte_rotations: tuple[tuple[int, ...], ...]


def _line_layout(lines: tuple[tuple[Bitboard, ...], ...], board_offset: int) -> tuple[tuple[int, ...], LineLayout]:
    """Pack *lines* back to back: each square's bit in its board, and their layout at *board_offset*."""
    mapping = [0] * 64
    shift = [0] * 64
    pos = [0] * 64
    board: list[tuple[Bitboard, ...]] = [()] * 64
    offset = 0
    for line in lines:
        line_board = line_to_board(line)
        for k, square_bb in enumerate(line):
            sq = square_bb.bit_length() - 1
            mapping[sq] = offset + k
            shift[sq] = board_offset + offset
            pos[sq] = k
            board[sq] = line_board
        offset += len(line)
    return tuple(mapping), LineLayout(tuple(shift), tuple(pos), tuple(board))


def build_rotation_maps() -> RotationMaps:
    """Build the three square remappings, the four line layouts and the upkeep's flip and byte tables."""
    # Ranks lie in the main board in bit order, h square first.
    _, rank_line = _line_layout(tuple(line[::-1] for line in RANK_LINES), 0)
    # 90 degrees: the h file is the lowest byte, each file in rank order.
    r90, file_line = _line_layout(FILE_LINES[::-1], 64)
    r45_ne, ne_line = _line_layout(NE_DIAGONALS, 128)
    r45_nw, nw_line = _line_layout(NW_DIAGONALS, 192)
    layouts = (rank_line, file_line, ne_line, nw_line)
    flips = tuple(sum(1 << line.shift[sq] + line.pos[sq] for line in layouts) for sq in range(64))
    byte_rotations = tuple(line_to_board(flips[8 * k : 8 * k + 8]) for k in range(8))
    return RotationMaps(r90, r45_ne, r45_nw, rank_line, file_line, ne_line, nw_line, flips, byte_rotations)


def rotate_occupancy(occ: Bitboard, mapping: tuple[int, ...]) -> Bitboard:
    """Apply a square remapping to every set bit of *occ*, one bit at a time.

    The reference form of a rotation; ``make_rotated_state`` computes all
    three a byte at a time.
    """
    out = 0
    while occ:
        low = occ & -occ
        out |= 1 << mapping[low.bit_length() - 1]
        occ &= occ - 1
    return out


class RotatedState(int):
    """Main occupancy plus its three rotated copies, packed into one int.

    The value is ``occ | occ90 << 64 | occ45_ne << 128 | occ45_nw << 192``,
    so one XOR flips a square in all four boards; the properties read the
    boards back.
    """

    __slots__ = ()

    @property
    def occ(self) -> Bitboard:
        return self & FULL_BOARD

    @property
    def occ90(self) -> Bitboard:
        return self >> 64 & FULL_BOARD

    @property
    def occ45_ne(self) -> Bitboard:
        return self >> 128 & FULL_BOARD

    @property
    def occ45_nw(self) -> Bitboard:
        return self >> 192

    def __repr__(self) -> str:
        return (
            f"RotatedState(occ={self.occ:#x}, occ90={self.occ90:#x}, "
            f"occ45_ne={self.occ45_ne:#x}, occ45_nw={self.occ45_nw:#x})"
        )


def make_rotated_state(occ: Bitboard, maps: RotationMaps) -> RotatedState:
    """Rotate *occ* from scratch: one table lookup per byte, all four boards at once."""
    t0, t1, t2, t3, t4, t5, t6, t7 = maps.byte_rotations
    return RotatedState(
        t0[occ & 255]
        | t1[occ >> 8 & 255]
        | t2[occ >> 16 & 255]
        | t3[occ >> 24 & 255]
        | t4[occ >> 32 & 255]
        | t5[occ >> 40 & 255]
        | t6[occ >> 48 & 255]
        | t7[occ >> 56]
    )


def toggle_square(state: RotatedState, maps: RotationMaps, square: Square) -> RotatedState:
    """Flip one square in the main board and all three rotated boards; off-board squares raise ValueError."""
    if not 0 <= square < 64:
        raise off_board(square)
    return RotatedState(state ^ maps.flips[square])


def _line_attacks(line: LineLayout, state: RotatedState, arrays: LineAttackArrays, square: Square) -> Bitboard:
    """Attacks along *square*'s line: its byte of *state* shifted down, walked, mapped back to squares."""
    if not 0 <= square < 64:
        raise off_board(square)
    return line.board[square][arrays[line.pos[square]][state >> line.shift[square] & 0xFF]]


def rook_attacks_rotated(
    state: RotatedState, maps: RotationMaps, arrays: LineAttackArrays, square: Square
) -> Bitboard:
    """Rook attacks from *square*; a square outside 0..63 raises ValueError."""
    return _line_attacks(maps.rank_line, state, arrays, square) | _line_attacks(maps.file_line, state, arrays, square)


def bishop_attacks_rotated(
    state: RotatedState, maps: RotationMaps, arrays: LineAttackArrays, square: Square
) -> Bitboard:
    """Bishop attacks from *square*; a square outside 0..63 raises ValueError."""
    return _line_attacks(maps.ne_line, state, arrays, square) | _line_attacks(maps.nw_line, state, arrays, square)


def queen_attacks_rotated(
    state: RotatedState, maps: RotationMaps, arrays: LineAttackArrays, square: Square
) -> Bitboard:
    """Queen attacks from *square*; a square outside 0..63 raises ValueError."""
    return rook_attacks_rotated(state, maps, arrays, square) | bishop_attacks_rotated(state, maps, arrays, square)


class RotatedBackend:
    """Serves sliders from rotated occupancy boards, in Crafty's per-square form.

    As in Crafty (Hyatt, ICCA J. 22(4), 1999), each square is resolved here,
    once per line family: the shift past the line's first square, its
    ``LineLayout`` shift plus one, and a 64-entry table indexed by the
    line's six inner bits, the only ones that can block (a line's end
    squares are attacked whether occupied or not).  An entry is the line's
    first-rank walk mapped back through its ``line_to_board`` table, the
    same int objects that table holds.  A context is the int value of a
    ``RotatedState``; a query is one dict probe, then a shift, a mask and
    an index per line, all in one frame.
    """

    name = "rotated"

    def __init__(self, maps: RotationMaps, arrays: LineAttackArrays) -> None:
        self.maps = maps
        self._flips = maps.flips

        def resolve(line: LineLayout, sq: Square) -> tuple[int, tuple[Bitboard, ...]]:
            board = line.board[sq]
            walk = arrays[line.pos[sq]]
            return line.shift[sq] + 1, tuple([board[attack] for attack in walk[:128:2]])

        self._rook: dict[Square, tuple] = {}
        self._bishop: dict[Square, tuple] = {}
        self._queen: dict[Square, tuple] = {}
        for sq in range(64):
            rook = resolve(maps.rank_line, sq) + resolve(maps.file_line, sq)
            bishop = resolve(maps.ne_line, sq) + resolve(maps.nw_line, sq)
            self._rook[sq] = rook
            self._bishop[sq] = bishop
            self._queen[sq] = rook + bishop

    def prepare(self, occupied: Bitboard, parent: int | None = None, move: int = 0) -> int:
        """Rotate *occupied* afresh, or update *parent* by the squares *move* touches.

        As in Crafty's MakeMove, each square the move empties or fills is
        flipped in all four boards, one XOR per square.  The move's from-
        and to-squares are flipped first, then each square whose main-board
        bit still differs from *occupied*: a capture's target (flipped
        back), an en-passant victim, a castle's rook squares.  The kind
        field is never read, so for any code the result is the rotation of
        *occupied*, given that *parent* is a rotation.
        """
        if parent is None:
            return int(make_rotated_state(occupied, self.maps))
        flips = self._flips
        context = parent ^ flips[move & 63] ^ flips[move >> 6 & 63]
        stale = (context ^ occupied) & FULL_BOARD
        while stale:
            low = stale & -stale
            stale ^= low
            context ^= flips[low.bit_length() - 1]
        return context

    def context_from_state(self, state: RotatedState) -> int:
        """The context of a ``bench.precompute_boards`` board; only perfbench calls this."""
        return int(state)

    def rook(self, context: int, square: Square) -> Bitboard:
        try:
            rank_shift, rank_table, file_shift, file_table = self._rook[square]
        except KeyError:
            raise off_board(square) from None
        return rank_table[context >> rank_shift & 63] | file_table[context >> file_shift & 63]

    def bishop(self, context: int, square: Square) -> Bitboard:
        try:
            ne_shift, ne_table, nw_shift, nw_table = self._bishop[square]
        except KeyError:
            raise off_board(square) from None
        return ne_table[context >> ne_shift & 63] | nw_table[context >> nw_shift & 63]

    def queen(self, context: int, square: Square) -> Bitboard:
        try:
            rank_shift, rank_table, file_shift, file_table, ne_shift, ne_table, nw_shift, nw_table = self._queen[square]
        except KeyError:
            raise off_board(square) from None
        return (
            rank_table[context >> rank_shift & 63]
            | file_table[context >> file_shift & 63]
            | ne_table[context >> ne_shift & 63]
            | nw_table[context >> nw_shift & 63]
        )
