"""Direct-lookup attack tables for sliding pieces.

Four two-level hash tables serve rook, bishop and queen attacks without any
rotation or remapping at query time.  The first key is the bitboard of the
mover's square (one bit set); the second key is the occupancy bitboard
confined to the mover's rank, file or diagonal.  The stored value is the
bitboard of attacked squares along that line, blockers of either colour
included, the mover's own square never included.

A query is therefore two dict lookups and an OR:

    rank_attacks[piece_bb][occupied & rank_mask[sq]]
    | file_attacks[piece_bb][occupied & file_mask[sq]]

Rank tables are built by walking the first rank and shifting the result up
rank by rank (one rank up multiplies keys and values by 256).  That walk,
``build_line_attack_bytes``, is the one 8x256 first-rank array in the
package: the rotated baseline indexes the same rows.  File tables
reuse the first-rank results, reflected across the a8-h1 line so that rank
patterns become file patterns.  Diagonal tables, whose lines are 1 to 8
squares long, come from a generalized builder that works on explicit square
lists; the same builder reproduces the rank and file tables exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitboard import (
    A1, B1, C1, D1, E1, F1, G1, H1,
    A2, B2, C2, D2, E2, F2, G2, H2,
    A3, B3, C3, D3, E3, F3, G3, H3,
    A4, B4, C4, D4, E4, F4, G4, H4,
    A5, B5, C5, D5, E5, F5, G5, H5,
    A6, B6, C6, D6, E6, F6, G6, H6,
    A7, B7, C7, D7, E7, F7, G7, H7,
    A8, B8, C8, D8, E8, F8, G8, H8,
    Bitboard,
    Square,
    bit_index,
    clear_lsb,
    lsb,
    off_board,
)

# A two-level table: piece-square bitboard -> line occupancy bitboard -> attacks.
AttackTable = dict[int, dict[int, int]]

# 8x256 first-rank attack bytes indexed by [position in line][occupancy byte].
LineAttackArrays = tuple[tuple[int, ...], ...]

# Diagonal square lists in walk order, northeast (a1-h8 direction) first.
NE_DIAGONALS: tuple[tuple[Bitboard, ...], ...] = (
    (H1,),
    (H2, G1),
    (H3, G2, F1),
    (H4, G3, F2, E1),
    (H5, G4, F3, E2, D1),
    (H6, G5, F4, E3, D2, C1),
    (H7, G6, F5, E4, D3, C2, B1),
    (H8, G7, F6, E5, D4, C3, B2, A1),
    (G8, F7, E6, D5, C4, B3, A2),
    (F8, E7, D6, C5, B4, A3),
    (E8, D7, C6, B5, A4),
    (D8, C7, B6, A5),
    (C8, B7, A6),
    (B8, A7),
    (A8,),
)

NW_DIAGONALS: tuple[tuple[Bitboard, ...], ...] = (
    (A1,),
    (B1, A2),
    (C1, B2, A3),
    (D1, C2, B3, A4),
    (E1, D2, C3, B4, A5),
    (F1, E2, D3, C4, B5, A6),
    (G1, F2, E3, D4, C5, B6, A7),
    (H1, G2, F3, E4, D5, C6, B7, A8),
    (H2, G3, F4, E5, D6, C7, B8),
    (H3, G4, F5, E6, D7, C8),
    (H4, G5, F6, E7, D8),
    (H5, G6, F7, E8),
    (H6, G7, F8),
    (H7, G8),
    (H8,),
)

RANK_LINES: tuple[tuple[Bitboard, ...], ...] = (
    (A1, B1, C1, D1, E1, F1, G1, H1),
    (A2, B2, C2, D2, E2, F2, G2, H2),
    (A3, B3, C3, D3, E3, F3, G3, H3),
    (A4, B4, C4, D4, E4, F4, G4, H4),
    (A5, B5, C5, D5, E5, F5, G5, H5),
    (A6, B6, C6, D6, E6, F6, G6, H6),
    (A7, B7, C7, D7, E7, F7, G7, H7),
    (A8, B8, C8, D8, E8, F8, G8, H8),
)

FILE_LINES: tuple[tuple[Bitboard, ...], ...] = (
    (A1, A2, A3, A4, A5, A6, A7, A8),
    (B1, B2, B3, B4, B5, B6, B7, B8),
    (C1, C2, C3, C4, C5, C6, C7, C8),
    (D1, D2, D3, D4, D5, D6, D7, D8),
    (E1, E2, E3, E4, E5, E6, E7, E8),
    (F1, F2, F3, F4, F5, F6, F7, F8),
    (G1, G2, G3, G4, G5, G6, G7, G8),
    (H1, H2, H3, H4, H5, H6, H7, H8),
)


@dataclass(frozen=True)
class MaskTables:
    """Per-square line masks, each indexed by square index 0..63."""

    rank: tuple[Bitboard, ...]
    file: tuple[Bitboard, ...]
    diag_ne: tuple[Bitboard, ...]
    diag_nw: tuple[Bitboard, ...]


def _line_masks(lines: tuple[tuple[Bitboard, ...], ...]) -> tuple[Bitboard, ...]:
    masks = [0] * 64
    for squares in lines:
        mask = 0
        for square_bb in squares:
            mask |= square_bb
        for square_bb in squares:
            masks[bit_index(square_bb)] = mask
    return tuple(masks)


def build_masks() -> MaskTables:
    """Rank, file and both diagonal masks for every square."""
    return MaskTables(
        rank=_line_masks(RANK_LINES),
        file=_line_masks(FILE_LINES),
        diag_ne=_line_masks(NE_DIAGONALS),
        diag_nw=_line_masks(NW_DIAGONALS),
    )


def build_line_attack_bytes() -> LineAttackArrays:
    """The first-rank walk: [mover position 0..7][occupancy byte] -> attack byte.

    For each of the 8 first-rank squares and each of the 256 occupancy bytes,
    the attack set extends square by square in both directions, stopping
    after the first occupied square in each.  The rank table shifts these
    rows up the board; the rotated baseline indexes them as they are.
    """
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


def build_rank_attacks() -> AttackTable:
    """Rank table: the first-rank walk, shifted up rank by rank.

    Moving everything up one rank is a multiplication by 256, applied to
    piece key, occupancy key and value alike, which fills in the remaining
    56 squares from the first rank's 8 x 256 entries.
    """
    table: AttackTable = {}
    for i, row in enumerate(build_line_attack_bytes()):
        for r in range(8):
            up = 8 * r
            table[1 << (i + up)] = {occ << up: attacks << up for occ, attacks in enumerate(row)}
    return table


def rank_to_file(value: int) -> Bitboard:
    """Reflect a first-rank byte across the a8-h1 line onto the h file.

    Bit i of the input becomes bit 8*i of the output: h1 stays h1, g1 maps
    to h2, f1 to h3 and so on.
    """
    out = 0
    for i in range(8):
        if value & (1 << i):
            out |= 1 << (8 * i)
    return out


def build_file_attacks(rank_attacks: AttackTable) -> AttackTable:
    """File table derived from the rank table by a 90 degree reflection.

    Every square's rank entries are projected down to the first rank,
    pushed through rank_to_file, and shifted to the destination file.
    Requires a fully built rank table.
    """
    if not rank_attacks:
        raise ValueError("rank table missing")
    table: AttackTable = {}
    for i in range(64):
        r = i >> 3
        piece_key = rank_to_file((1 << i) >> (8 * r)) << r
        entries: dict[int, int] = {}
        table[piece_key] = entries
        for occ in range(256):
            occ_key = rank_to_file(occ) << r
            value = rank_attacks[1 << i][occ << (8 * r)]
            entries[occ_key] = rank_to_file(value >> (8 * r)) << r
    return table


def build_attack_table(square_lists: tuple[tuple[Bitboard, ...], ...]) -> AttackTable:
    """Generalized builder: attack table for any family of square lines.

    Each inner list enumerates one line's square bitboards in walk order
    (1 to 8 squares).  For every mover position and every occupancy pattern
    of the line, the walk accumulates squares ahead of and behind the mover,
    stopping after the first occupied one in each direction.  The occupancy
    pattern index is re-expressed as a board bitboard (each set bit mapped
    through the square list) so lookups can use masked occupancies directly.
    The table carries a base entry [0][0] = 0.
    """
    seen: set[Bitboard] = set()
    for squares in square_lists:
        for square_bb in squares:
            if square_bb in seen:
                raise ValueError(f"duplicate square bitboard {square_bb:#x} across lists")
            seen.add(square_bb)

    table: AttackTable = {0: {0: 0}}
    for squares in square_lists:
        size = len(squares)
        for pos in range(size):
            entries: dict[int, int] = {}
            table[squares[pos]] = entries
            for occ in range(1 << size):
                moves = 0
                for ahead in range(pos + 1, size):
                    moves |= squares[ahead]
                    if occ & (1 << ahead):
                        break
                for behind in range(pos - 1, -1, -1):
                    moves |= squares[behind]
                    if occ & (1 << behind):
                        break
                occ_key = 0
                remaining = occ
                while remaining:
                    occ_key |= squares[bit_index(lsb(remaining))]
                    remaining = clear_lsb(remaining)
                entries[occ_key] = moves
    return table


def build_rank_attacks_generalized() -> AttackTable:
    """Rank table via the generalized builder; identical to build_rank_attacks."""
    table = build_attack_table(RANK_LINES)
    # The base entry is a diagonal-table artifact; the rank table keys 64 squares.
    del table[0]
    return table


def build_file_attacks_generalized() -> AttackTable:
    """File table via the generalized builder; identical to build_file_attacks."""
    table = build_attack_table(FILE_LINES)
    del table[0]
    return table


@dataclass(frozen=True)
class AttackTables:
    """The four direct-lookup tables plus the per-square masks."""

    rank_attacks: AttackTable
    file_attacks: AttackTable
    diag_attacks_ne: AttackTable
    diag_attacks_nw: AttackTable
    masks: MaskTables


def build_attack_tables() -> AttackTables:
    """Build all four tables and the masks (startup cost only; see store)."""
    rank_attacks = build_rank_attacks()
    return AttackTables(
        rank_attacks=rank_attacks,
        file_attacks=build_file_attacks(rank_attacks),
        diag_attacks_ne=build_attack_table(NE_DIAGONALS),
        diag_attacks_nw=build_attack_table(NW_DIAGONALS),
        masks=build_masks(),
    )


def rook_attacks(tables: AttackTables, occupied: Bitboard, square: Square) -> Bitboard:
    """Rook attacks from *square*: rank lookup OR file lookup.

    Blockers of both colours are included; the mover's own occupancy bit is
    harmless because every table stores identical values with it set or clear.
    A square outside 0..63 raises ValueError.
    """
    try:
        piece_bb = 1 << square
        masks = tables.masks
        return (
            tables.rank_attacks[piece_bb][occupied & masks.rank[square]]
            | tables.file_attacks[piece_bb][occupied & masks.file[square]]
        )
    except (KeyError, IndexError, ValueError):
        raise off_board(square) from None


def bishop_attacks(tables: AttackTables, occupied: Bitboard, square: Square) -> Bitboard:
    """Bishop attacks from *square*: northeast lookup OR northwest lookup."""
    try:
        piece_bb = 1 << square
        masks = tables.masks
        return (
            tables.diag_attacks_ne[piece_bb][occupied & masks.diag_ne[square]]
            | tables.diag_attacks_nw[piece_bb][occupied & masks.diag_nw[square]]
        )
    except (KeyError, IndexError, ValueError):
        raise off_board(square) from None


def queen_attacks(tables: AttackTables, occupied: Bitboard, square: Square) -> Bitboard:
    return rook_attacks(tables, occupied, square) | bishop_attacks(tables, occupied, square)


def legal_targets(attacks: Bitboard, friendly: Bitboard) -> Bitboard:
    """Drop squares occupied by friendly pieces from an attack set."""
    return attacks & ~friendly
