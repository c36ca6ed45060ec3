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

``rook_attacks``, ``bishop_attacks`` and ``queen_attacks`` make that query
literally, both levels per call; ``DirectBackend`` resolves the first level
once per square for the search.

The masks, the tables and the rotated baseline's layouts come from four line
families, each line's squares in walk order, derived from ``make_square``.
Every table comes from one walk: ``build_line_attack_bytes``, the 8x256
first-rank array of attack bytes, which the rotated baseline indexes too.
``line_to_board`` turns a line's bytes into board bitboards (bit k stands
for the line's k-th square).  Rank tables shift the walk up rank by rank
(one rank up multiplies keys and values by 256).  File and diagonal
tables come from a generalized builder that maps the walk through each
line's ``line_to_board`` table; diagonal lines are 1 to 8 squares long.
``build_file_attacks`` derives the file table a second way, reflecting
the rank entries across the a8-h1 line through ``RANK_TO_FILE``, the
``line_to_board`` table of the h file; the tests check the built file
table against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .bitboard import Bitboard, Square, bit_index, make_square, off_board

if TYPE_CHECKING:
    from .rotated import RotatedState

# A two-level table: piece-square bitboard -> line occupancy bitboard -> attacks.
AttackTable = dict[int, dict[int, int]]

# 8x256 first-rank attack bytes indexed by [position in line][occupancy byte].
LineAttackArrays = tuple[tuple[int, ...], ...]

# Ranks 1 to 8, each walked from the a file.
RANK_LINES: tuple[tuple[Bitboard, ...], ...] = tuple(tuple(1 << make_square(f, r) for f in range(8)) for r in range(8))

# Files a to h, each walked from rank 1.
FILE_LINES: tuple[tuple[Bitboard, ...], ...] = tuple(tuple(1 << make_square(f, r) for r in range(8)) for f in range(8))

# Northeast (a1-h8) diagonals, file - rank = d, from the one through h1
# (d = 7) to the one through a8 (d = -7), each walked from its highest rank.
NE_DIAGONALS: tuple[tuple[Bitboard, ...], ...] = tuple(
    tuple(1 << make_square(r + d, r) for r in range(7, -1, -1) if 0 <= r + d < 8) for d in range(7, -8, -1)
)

# Northwest (h1-a8) diagonals, file + rank = s, from the one through a1
# (s = 0) to the one through h8 (s = 14), each walked from its lowest rank.
NW_DIAGONALS: tuple[tuple[Bitboard, ...], ...] = tuple(
    tuple(1 << make_square(s - r, r) for r in range(8) if 0 <= s - r < 8) for s in range(15)
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
    after the first occupied square in each.  Each entry is computed at once:
    upward it runs to the lowest blocker above the mover (``x & -x``), or to
    the end; downward to the highest blocker below it (``bit_length``), or
    to bit 0.  The rank table shifts these rows up the board; the rotated
    baseline indexes them as they are.
    """
    table = []
    for pos in range(8):
        bit = 1 << pos
        above_mask = 256 - (bit << 1)
        below_mask = bit - 1
        row = []
        for occ in range(256):
            above = occ & above_mask
            below = occ & below_mask
            # One past the last attacked square upward, and the last one downward.
            up_end = (above & -above) << 1 or 256
            down_end = 1 << below.bit_length() >> 1 or 1
            row.append(up_end - (bit << 1) | bit - down_end)
        table.append(tuple(row))
    return tuple(table)


def build_rank_attacks() -> AttackTable:
    """Rank table: the first-rank walk, shifted up rank by rank.

    Moving everything up one rank is a multiplication by 256, applied to
    piece key, occupancy key and value alike, which fills in the remaining
    56 squares from the first rank's 8 x 256 entries.  Each rank's shifted
    bytes are built once, so its 8 inner dicts share their key and value
    int objects.
    """
    return _rank_attacks(build_line_attack_bytes())


def _rank_attacks(walk: LineAttackArrays) -> AttackTable:
    boards = [tuple(b << 8 * r for b in range(256)) for r in range(8)]
    table: AttackTable = {}
    for i, row in enumerate(walk):
        for r, board in enumerate(boards):
            table[1 << (i + 8 * r)] = {board[occ]: board[attacks] for occ, attacks in enumerate(row)}
    return table


def line_to_board(line: tuple[Bitboard, ...]) -> tuple[Bitboard, ...]:
    """Line occupancy byte -> board bitboard: bit k of the byte stands for line[k].

    Built by doubling: step k appends a copy of the table so far with
    line[k] added.  Bits past the end of a line shorter than 8 stand for
    no square, so a byte's bits beyond the line are dropped: the line's
    2**len(line) entries repeat to fill 256, the same int objects each time.
    """
    if len(line) > 8:
        raise ValueError(f"a line has at most 8 squares, got {len(line)}")
    board = [0]
    for square_bb in line:
        board += [bb | square_bb for bb in board]
    return tuple(board * (256 >> len(line)))


# The a8-h1 reflection as a lookup: first-rank byte -> h-file bitboard.
RANK_TO_FILE: tuple[Bitboard, ...] = line_to_board(FILE_LINES[7])


def build_file_attacks(rank_attacks: AttackTable) -> AttackTable:
    """File table derived from the rank table by a 90 degree reflection.

    Every square's rank entries are projected down to the first rank,
    reflected through RANK_TO_FILE, and shifted to the destination file.
    ``build_attack_tables`` builds the same table, in the same key order,
    with the generalized builder; this derivation is the reference it is
    checked against.  Requires a fully built rank table.
    """
    if not rank_attacks:
        raise ValueError("rank table missing")
    boards = [tuple(b << f for b in RANK_TO_FILE) for f in range(8)]
    table: AttackTable = {}
    for i in range(64):
        r = i >> 3
        up = 8 * r
        row = rank_attacks[1 << i]
        board = boards[r]
        table[board[1 << (i & 7)]] = {board[occ]: board[row[occ << up] >> up] for occ in range(256)}
    return table


def build_attack_table(square_lists: tuple[tuple[Bitboard, ...], ...]) -> AttackTable:
    """Generalized builder: attack table for any family of square lines.

    Each inner list enumerates one line's square bitboards in walk order
    (1 to 8 squares).  For every mover position and every occupancy pattern
    of the line, the first-rank walk gives the attacked line positions, and
    the line's ``line_to_board`` table turns pattern and attacks alike into
    board bitboards, so lookups can use masked occupancies directly.  Walk
    bits past a short line's end map to no square.  The table carries a
    base entry [0][0] = 0.
    """
    return _attack_table(square_lists, build_line_attack_bytes())


def _attack_table(square_lists: tuple[tuple[Bitboard, ...], ...], walk: LineAttackArrays) -> AttackTable:
    seen: set[Bitboard] = set()
    for squares in square_lists:
        for square_bb in squares:
            if square_bb in seen:
                raise ValueError(f"duplicate square bitboard {square_bb:#x} across lists")
            seen.add(square_bb)

    table: AttackTable = {0: {0: 0}}
    for squares in square_lists:
        board = line_to_board(squares)
        for pos, square_bb in enumerate(squares):
            table[square_bb] = {board[occ]: board[walk[pos][occ]] for occ in range(1 << len(squares))}
    return table


def build_rank_attacks_generalized() -> AttackTable:
    """Rank table via the generalized builder; identical to build_rank_attacks."""
    table = build_attack_table(RANK_LINES)
    # The base entry is a diagonal-table artifact; the rank table keys 64 squares.
    del table[0]
    return table


def build_file_attacks_generalized() -> AttackTable:
    """File table via the generalized builder; identical to build_file_attacks, key order included."""
    return _file_attacks(build_line_attack_bytes())


def _file_attacks(walk: LineAttackArrays) -> AttackTable:
    # Files from h to a, each walked from rank 1: the key order of build_file_attacks.
    table = _attack_table(FILE_LINES[::-1], walk)
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
    """Build all four tables and the masks from one first-rank walk (startup cost only; see store)."""
    walk = build_line_attack_bytes()
    return AttackTables(
        rank_attacks=_rank_attacks(walk),
        file_attacks=_file_attacks(walk),
        diag_attacks_ne=_attack_table(NE_DIAGONALS, walk),
        diag_attacks_nw=_attack_table(NW_DIAGONALS, walk),
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


class DirectBackend:
    """Serves the search's sliders straight from the four lookup tables.

    The first level of every table is resolved here, once per square: each
    square's entry holds its line masks next to the inner dicts its mover
    bitboard selects, references into the tables rather than copies.  A
    query then masks the occupancy and probes those inner dicts, rook and
    bishop two probes each, the queen four, all in one frame.
    """

    name = "direct"

    def __init__(self, tables: AttackTables) -> None:
        masks = tables.masks
        self._rook: dict[Square, tuple] = {}
        self._bishop: dict[Square, tuple] = {}
        self._queen: dict[Square, tuple] = {}
        for sq in range(64):
            piece_bb = 1 << sq
            rook = (masks.rank[sq], tables.rank_attacks[piece_bb], masks.file[sq], tables.file_attacks[piece_bb])
            bishop = (
                masks.diag_ne[sq],
                tables.diag_attacks_ne[piece_bb],
                masks.diag_nw[sq],
                tables.diag_attacks_nw[piece_bb],
            )
            self._rook[sq] = rook
            self._bishop[sq] = bishop
            self._queen[sq] = rook + bishop

    def prepare(self, occupied: Bitboard, parent: Bitboard | None = None, move: int = 0) -> Bitboard:
        """The occupancy is the whole context: nothing to keep up."""
        return occupied

    def context_from_state(self, state: RotatedState) -> Bitboard:
        """The context of a ``bench.precompute_boards`` board; only perfbench calls this."""
        return state.occ

    def rook(self, context: Bitboard, square: Square) -> Bitboard:
        try:
            rank_mask, rank_table, file_mask, file_table = self._rook[square]
        except KeyError:
            raise off_board(square) from None
        return rank_table[context & rank_mask] | file_table[context & file_mask]

    def bishop(self, context: Bitboard, square: Square) -> Bitboard:
        try:
            ne_mask, ne_table, nw_mask, nw_table = self._bishop[square]
        except KeyError:
            raise off_board(square) from None
        return ne_table[context & ne_mask] | nw_table[context & nw_mask]

    def queen(self, context: Bitboard, square: Square) -> Bitboard:
        try:
            rank_mask, rank_table, file_mask, file_table, ne_mask, ne_table, nw_mask, nw_table = self._queen[square]
        except KeyError:
            raise off_board(square) from None
        return (
            rank_table[context & rank_mask]
            | file_table[context & file_mask]
            | ne_table[context & ne_mask]
            | nw_table[context & nw_mask]
        )
