"""Pseudo-legal move generation, make-move and perft.

Generation is parameterized by an attack backend so the direct-lookup
tables and the rotated-bitboard baseline share every code path except the
sliding-piece attack queries and the upkeep of their occupancy context.
Positions are immutable, so make_move returns a new Position and unmaking
is just keeping the old value.  The search (perft, generate_legal) derives
each child's context from its parent's, so the rotated backend pays the
incremental upkeep of the classical design rather than a full rotation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Protocol

from .bitboard import Bitboard, Square, file_of, make_square, rank_of, square_index, square_name
from .position import (
    BISHOP,
    CASTLE_BK,
    CASTLE_BQ,
    CASTLE_WK,
    CASTLE_WQ,
    KING,
    KNIGHT,
    PAWN,
    QUEEN,
    ROOK,
    WHITE,
    Position,
)
from .rotated import (
    LineAttackArrays,
    RotatedState,
    RotationMaps,
    bishop_attacks_rotated,
    derive_rotated_state,
    make_rotated_state,
    queen_attacks_rotated,
    rook_attacks_rotated,
)
from .tables import AttackTables, bishop_attacks, queen_attacks, rook_attacks

QUIET = "quiet"
CAPTURE = "capture"
DOUBLE_PUSH = "double_push"
EP_CAPTURE = "ep_capture"
CASTLE = "castle"
PROMOTION = "promotion"


@dataclass(frozen=True, slots=True)
class Move:
    from_square: Square
    to_square: Square
    piece: int
    kind: str
    promotion: int | None = None

    def uci(self) -> str:
        suffix = "" if self.promotion is None else "pnbrqk"[self.promotion]
        return square_name(self.from_square) + square_name(self.to_square) + suffix


def _leaper_table(steps: tuple[tuple[int, int], ...]) -> tuple[Bitboard, ...]:
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


_KNIGHT_STEPS = ((1, 2), (2, 1), (2, -1), (1, -2), (-1, -2), (-2, -1), (-2, 1), (-1, 2))
_KING_STEPS = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))


def build_leaper_tables() -> tuple[tuple[Bitboard, ...], tuple[Bitboard, ...]]:
    """(knight, king) attack bitboards for all 64 squares."""
    return _leaper_table(_KNIGHT_STEPS), _leaper_table(_KING_STEPS)


KNIGHT_ATTACKS, KING_ATTACKS = build_leaper_tables()

# Capture patterns per color; also used inverted for attacked-square tests.
PAWN_ATTACKS = (
    _leaper_table(((1, 1), (-1, 1))),
    _leaper_table(((1, -1), (-1, -1))),
)


class AttackBackend(Protocol):
    """Sliding-piece attack provider; context is backend-specific occupancy.

    ``prepare(occupied)`` builds the context for a board from scratch.
    ``prepare(occupied, parent)`` builds it from *parent*, the context of a
    board one move away: the upkeep a backend pays per move in the search.
    """

    name: str

    def prepare(self, occupied: Bitboard, parent: Any = None) -> Any: ...

    def context_from_state(self, state: RotatedState) -> Any: ...

    def rook(self, context: Any, square: Square) -> Bitboard: ...

    def bishop(self, context: Any, square: Square) -> Bitboard: ...

    def queen(self, context: Any, square: Square) -> Bitboard: ...


class DirectBackend:
    """Serves sliders straight from the four lookup tables."""

    name = "direct"

    def __init__(self, tables: AttackTables) -> None:
        self.tables = tables

    def prepare(self, occupied: Bitboard, parent: Bitboard | None = None) -> Bitboard:
        """The occupancy is the whole context: nothing to keep up."""
        return occupied

    def context_from_state(self, state: RotatedState) -> Bitboard:
        return state.occ

    def rook(self, context: Bitboard, square: Square) -> Bitboard:
        return rook_attacks(self.tables, context, square)

    def bishop(self, context: Bitboard, square: Square) -> Bitboard:
        return bishop_attacks(self.tables, context, square)

    def queen(self, context: Bitboard, square: Square) -> Bitboard:
        return queen_attacks(self.tables, context, square)


class RotatedBackend:
    """Serves sliders from rotated occupancy boards and first-rank bytes."""

    name = "rotated"

    def __init__(self, maps: RotationMaps, arrays: LineAttackArrays) -> None:
        self.maps = maps
        self.arrays = arrays

    def prepare(self, occupied: Bitboard, parent: RotatedState | None = None) -> RotatedState:
        """Rotate *occupied* afresh, or flip only the squares that differ from *parent*."""
        if parent is None:
            return make_rotated_state(occupied, self.maps)
        return derive_rotated_state(parent, occupied, self.maps)

    def context_from_state(self, state: RotatedState) -> RotatedState:
        return state

    def rook(self, context: RotatedState, square: Square) -> Bitboard:
        return rook_attacks_rotated(context, self.maps, self.arrays, square)

    def bishop(self, context: RotatedState, square: Square) -> Bitboard:
        return bishop_attacks_rotated(context, self.maps, self.arrays, square)

    def queen(self, context: RotatedState, square: Square) -> Bitboard:
        return queen_attacks_rotated(context, self.maps, self.arrays, square)


def is_square_attacked(
    position: Position, square: Square, by_color: int, backend: AttackBackend, context: Any
) -> bool:
    """True if any piece of *by_color* attacks *square* under *context* occupancy."""
    if PAWN_ATTACKS[1 - by_color][square] & position.piece_bb(by_color, PAWN):
        return True
    if KNIGHT_ATTACKS[square] & position.piece_bb(by_color, KNIGHT):
        return True
    if KING_ATTACKS[square] & position.piece_bb(by_color, KING):
        return True
    queens = position.piece_bb(by_color, QUEEN)
    if backend.rook(context, square) & (position.piece_bb(by_color, ROOK) | queens):
        return True
    if backend.bishop(context, square) & (position.piece_bb(by_color, BISHOP) | queens):
        return True
    return False


def _resolve(names: tuple[str, ...]) -> tuple[int, ...]:
    return tuple(square_index(n) for n in names)


# (flag, king from, king to, rook from, rook to, squares that must be empty,
#  squares that must not be attacked), per color.
_CASTLING_RULES: tuple[tuple[tuple, ...], ...] = (
    (
        (CASTLE_WK, *_resolve(("e1", "g1", "h1", "f1")), _resolve(("f1", "g1")), _resolve(("e1", "f1", "g1"))),
        (CASTLE_WQ, *_resolve(("e1", "c1", "a1", "d1")), _resolve(("b1", "c1", "d1")), _resolve(("e1", "d1", "c1"))),
    ),
    (
        (CASTLE_BK, *_resolve(("e8", "g8", "h8", "f8")), _resolve(("f8", "g8")), _resolve(("e8", "f8", "g8"))),
        (CASTLE_BQ, *_resolve(("e8", "c8", "a8", "d8")), _resolve(("b8", "c8", "d8")), _resolve(("e8", "d8", "c8"))),
    ),
)

_CASTLE_ROOK_MOVES = {
    (color, rule[2]): (rule[3], rule[4])
    for color, rules in enumerate(_CASTLING_RULES)
    for rule in rules
}

# Castling rights that survive a move touching each square.
_RIGHTS_MASK = [CASTLE_WK | CASTLE_WQ | CASTLE_BK | CASTLE_BQ] * 64
_RIGHTS_MASK[square_index("e1")] &= ~(CASTLE_WK | CASTLE_WQ)
_RIGHTS_MASK[square_index("h1")] &= ~CASTLE_WK
_RIGHTS_MASK[square_index("a1")] &= ~CASTLE_WQ
_RIGHTS_MASK[square_index("e8")] &= ~(CASTLE_BK | CASTLE_BQ)
_RIGHTS_MASK[square_index("h8")] &= ~CASTLE_BK
_RIGHTS_MASK[square_index("a8")] &= ~CASTLE_BQ


def generate_pseudo_legal(
    position: Position, backend: AttackBackend, context: Any = None
) -> list[Move]:
    """All moves legal by geometry and occupancy for the side to move.

    King safety is not checked here; see generate_legal and perft.  Castling
    is emitted only through empty, unattacked squares.  Order is fixed for a
    given position: pawns, knights, bishops, rooks, queens, king, castles,
    each scanned from the low bit up.
    """
    us = position.side_to_move
    them = 1 - us
    own = position.color_bb(us)
    enemy = position.color_bb(them)
    occupied = own | enemy
    if context is None:
        context = backend.prepare(occupied)

    moves: list[Move] = []
    add = moves.append

    def emit(from_sq: Square, piece: int, targets: Bitboard) -> None:
        while targets:
            low = targets & -targets
            to_sq = low.bit_length() - 1
            targets &= targets - 1
            add(Move(from_sq, to_sq, piece, CAPTURE if enemy & low else QUIET))

    push = 8 if us == WHITE else -8
    start_rank = 1 if us == WHITE else 6
    promo_rank = 7 if us == WHITE else 0
    ep_bb = 0 if position.ep_square is None else 1 << position.ep_square

    pawns = position.piece_bb(us, PAWN)
    while pawns:
        low = pawns & -pawns
        sq = low.bit_length() - 1
        pawns &= pawns - 1
        target = sq + push
        if 0 <= target <= 63 and not occupied & (1 << target):
            if target >> 3 == promo_rank:
                for promo in (QUEEN, ROOK, BISHOP, KNIGHT):
                    add(Move(sq, target, PAWN, PROMOTION, promo))
            else:
                add(Move(sq, target, PAWN, QUIET))
                if sq >> 3 == start_rank and not occupied & (1 << (target + push)):
                    add(Move(sq, target + push, PAWN, DOUBLE_PUSH))
        attacks = PAWN_ATTACKS[us][sq]
        captures = attacks & enemy
        while captures:
            cap_low = captures & -captures
            cap_sq = cap_low.bit_length() - 1
            captures &= captures - 1
            if cap_sq >> 3 == promo_rank:
                for promo in (QUEEN, ROOK, BISHOP, KNIGHT):
                    add(Move(sq, cap_sq, PAWN, PROMOTION, promo))
            else:
                add(Move(sq, cap_sq, PAWN, CAPTURE))
        if attacks & ep_bb:
            add(Move(sq, position.ep_square, PAWN, EP_CAPTURE))

    knights = position.piece_bb(us, KNIGHT)
    while knights:
        low = knights & -knights
        sq = low.bit_length() - 1
        knights &= knights - 1
        emit(sq, KNIGHT, KNIGHT_ATTACKS[sq] & ~own)

    for piece, attack_fn in ((BISHOP, backend.bishop), (ROOK, backend.rook), (QUEEN, backend.queen)):
        sliders = position.piece_bb(us, piece)
        while sliders:
            low = sliders & -sliders
            sq = low.bit_length() - 1
            sliders &= sliders - 1
            emit(sq, piece, attack_fn(context, sq) & ~own)

    king = position.piece_bb(us, KING)
    if king:
        sq = king.bit_length() - 1
        emit(sq, KING, KING_ATTACKS[sq] & ~own)
        if position.castling:
            for flag, king_from, king_to, _rf, _rt, must_be_empty, must_be_safe in _CASTLING_RULES[us]:
                if not position.castling & flag:
                    continue
                blocked = False
                for empty_sq in must_be_empty:
                    if occupied & (1 << empty_sq):
                        blocked = True
                        break
                if blocked:
                    continue
                if any(is_square_attacked(position, s, them, backend, context) for s in must_be_safe):
                    continue
                add(Move(king_from, king_to, KING, CASTLE))

    return moves


def make_move(position: Position, move: Move) -> Position:
    """Apply *move*; returns the successor Position (copy-make)."""
    us = position.side_to_move
    them = 1 - us
    pieces = list(position.pieces)
    from_bb = 1 << move.from_square
    to_bb = 1 << move.to_square

    if move.kind == EP_CAPTURE:
        captured_sq = move.to_square - 8 if us == WHITE else move.to_square + 8
        pieces[them * 6 + PAWN] ^= 1 << captured_sq
    elif to_bb & position.color_bb(them):
        for piece_type in range(6):
            idx = them * 6 + piece_type
            if pieces[idx] & to_bb:
                pieces[idx] ^= to_bb
                break

    mover = us * 6 + move.piece
    pieces[mover] ^= from_bb | to_bb
    if move.kind == PROMOTION:
        pieces[mover] ^= to_bb
        pieces[us * 6 + move.promotion] |= to_bb
    elif move.kind == CASTLE:
        rook_from, rook_to = _CASTLE_ROOK_MOVES[(us, move.to_square)]
        pieces[us * 6 + ROOK] ^= (1 << rook_from) | (1 << rook_to)

    castling = position.castling
    if castling:
        castling &= _RIGHTS_MASK[move.from_square] & _RIGHTS_MASK[move.to_square]

    ep = None
    if move.kind == DOUBLE_PUSH:
        ep = move.from_square + 8 if us == WHITE else move.from_square - 8

    return Position(tuple(pieces), them, castling, ep)


def in_check(position: Position, color: int, backend: AttackBackend, context: Any = None) -> bool:
    """True if *color*'s king is attacked; a side without a king is never in check.

    *context* is the backend's context for *position*; omitted, it is built from scratch.
    """
    king_sq = position.king_square(color)
    if king_sq is None:
        return False
    if context is None:
        context = backend.prepare(position.occupied())
    return is_square_attacked(position, king_sq, 1 - color, backend, context)


def _legal_children(
    position: Position, backend: AttackBackend, context: Any
) -> list[tuple[Move, Position, Any]]:
    """(move, child, child context) for each legal move, in generation order.

    Each child's context is derived from *context*, its parent's, and then
    serves both the king-safety test and the child's own generation.
    """
    us = position.side_to_move
    prepare = backend.prepare
    children = []
    for move in generate_pseudo_legal(position, backend, context):
        child = make_move(position, move)
        child_context = prepare(child.occupied(), context)
        if not in_check(child, us, backend, child_context):
            children.append((move, child, child_context))
    return children


def generate_legal(position: Position, backend: AttackBackend) -> list[Move]:
    """Pseudo-legal moves filtered for own-king safety."""
    context = backend.prepare(position.occupied())
    return [move for move, _, _ in _legal_children(position, backend, context)]


def perft(position: Position, depth: int, backend: AttackBackend) -> int:
    """Leaf count of the legal move tree at *depth*."""
    if depth <= 0:
        return 1
    return _perft(position, depth, backend, backend.prepare(position.occupied()))


def _perft(position: Position, depth: int, backend: AttackBackend, context: Any) -> int:
    children = _legal_children(position, backend, context)
    if depth == 1:
        return len(children)
    return sum(_perft(child, depth - 1, backend, child_context) for _, child, child_context in children)
