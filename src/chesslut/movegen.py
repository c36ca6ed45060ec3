"""Pseudo-legal move generation, make-move and perft.

Generation is parameterized by an attack backend so the direct-lookup
tables and the rotated-bitboard baseline share every code path except the
sliding-piece attack queries and the upkeep of their occupancy context:
``tables.DirectBackend`` and ``rotated.RotatedBackend``, re-exported here.
A move is an int: ``Move`` subclasses int, and its value packs the move as
``from | to << 6 | piece << 12 | kind << 15 | promotion << 18``.  The
generator looks quiet moves, captures and double pushes up in tuples of
Move objects, built at import for every target a piece reaches on the
empty board and shared for the life of the process: a pawn push by colour
and from-square, any other such move by piece, from-square, kind and target
square.  make_move decodes with shifts and masks, and the Move properties
decode the same fields for callers.
Positions are immutable, so make_move returns a new Position and unmaking
is just keeping the old value; it XORs the squares a move touches into the
parent's colour boards, so no child derives its occupancy from its twelve
piece boards.  The king-safety test reads the attacker's six
boards with one slice.  The search (perft, perft_divide, generate_legal)
derives each child's context from its parent's and the move, so the rotated
backend pays the incremental upkeep of the classical design rather than a
full rotation; only a search root's context is made from scratch.  The
king-safety filter works from the parent: two slider queries from the king
square tell whether the side to move is in check and which of its pieces
may be pinned, and only the children of a parent in check, king moves,
en-passant captures and moves of those pieces get the full test.
Every other child is legal by the pinned-piece argument (see
``_legal_children``), though it is still made and its context still derived.
"""

from __future__ import annotations

from typing import Any, Protocol

from .bitboard import FULL_BOARD, KING_ATTACKS, KNIGHT_ATTACKS, PAWN_ATTACKS, Bitboard, Square, square_name
from .position import (
    BISHOP,
    BLACK,
    CASTLING,
    KING,
    KNIGHT,
    PAWN,
    QUEEN,
    ROOK,
    WHITE,
    Position,
)
from .rays import bishop_rays, rook_rays
from .rotated import RotatedBackend as RotatedBackend
from .tables import DirectBackend as DirectBackend

# Move kinds, the 3-bit kind field of a packed move.
QUIET, CAPTURE, DOUBLE_PUSH, EP_CAPTURE, CASTLE, PROMOTION = range(6)

_KIND_NAMES = ("QUIET", "CAPTURE", "DOUBLE_PUSH", "EP_CAPTURE", "CASTLE", "PROMOTION")
_PIECE_NAMES = ("PAWN", "KNIGHT", "BISHOP", "ROOK", "QUEEN", "KING")


class Move(int):
    """A move whose int value is its packed code.

    The value is ``from | to << 6 | piece << 12 | kind << 15 | promotion << 18``:
    6 bits per square, 3 for the moving piece, 3 for the kind, and above
    them the promotion piece, 0 unless the kind is PROMOTION.  The fields
    are decoded from the value on demand.
    """

    __slots__ = ()

    @property
    def from_square(self) -> Square:
        return self & 63

    @property
    def to_square(self) -> Square:
        return self >> 6 & 63

    @property
    def piece(self) -> int:
        return self >> 12 & 7

    @property
    def kind(self) -> int:
        return self >> 15 & 7

    @property
    def promotion(self) -> int | None:
        return self >> 18 if self >> 15 & 7 == PROMOTION else None

    def uci(self) -> str:
        suffix = "" if self.promotion is None else "pnbrqk"[self.promotion]
        return square_name(self.from_square) + square_name(self.to_square) + suffix

    def __repr__(self) -> str:
        return f"Move({self.uci()}, piece={_PIECE_NAMES[self.piece]}, kind={_KIND_NAMES[self.kind]})"


def encode_move(from_square: Square, to_square: Square, piece: int, kind: int, promotion: int | None = None) -> Move:
    """The Move with these fields; *promotion* is given only for kind PROMOTION.

    No field is checked against a position: ``make_move`` trusts the kind,
    so only a move that ``generate_pseudo_legal`` or ``generate_legal``
    also yields for that position may be made.
    """
    return Move(from_square | to_square << 6 | piece << 12 | kind << 15 | (promotion or 0) << 18)


class AttackBackend(Protocol):
    """Sliding-piece attack provider; context is backend-specific occupancy.

    Both backends' contexts are plain ints: the occupancy itself for the
    direct backend, and for the rotated one the occupancy and its three
    rotated copies packed side by side, the value of a ``RotatedState``.
    ``prepare(occupied)`` builds the context for a board from scratch.
    ``prepare(occupied, parent, move)`` builds it from *parent*, the context
    of the board *move* was made on: the upkeep a backend pays per move in
    the search.
    """

    name: str

    def prepare(self, occupied: Bitboard, parent: Any = None, move: int = 0) -> Any: ...

    def rook(self, context: Any, square: Square) -> Bitboard: ...

    def bishop(self, context: Any, square: Square) -> Bitboard: ...

    def queen(self, context: Any, square: Square) -> Bitboard: ...


def is_square_attacked(
    position: Position, square: Square, by_color: int, backend: AttackBackend, context: Any
) -> bool:
    """True if any piece of *by_color* attacks *square* under *context* occupancy."""
    base = by_color * 6
    pawns, knights, bishops, rooks, queens, kings = position.pieces[base : base + 6]
    if PAWN_ATTACKS[1 - by_color][square] & pawns:
        return True
    if KNIGHT_ATTACKS[square] & knights:
        return True
    if KING_ATTACKS[square] & kings:
        return True
    if backend.rook(context, square) & (rooks | queens):
        return True
    if backend.bishop(context, square) & (bishops | queens):
        return True
    return False


# Each colour's castling rights.
_CASTLING_RULES = tuple(tuple(right for right in CASTLING if right.color == color) for color in (WHITE, BLACK))

# Each castle's rook squares, keyed by the king's to-square (the four differ).
_CASTLE_ROOK_SQUARES = {right.king_to: 1 << right.rook_from | 1 << right.rook_to for right in CASTLING}

# Castling rights that survive a move touching each square: a right is lost
# when its king's or its rook's from-square is touched.
_RIGHTS_MASK = tuple(
    sum(right.flag for right in CASTLING if sq not in (right.king_from, right.rook_from)) for sq in range(64)
)


# The kind bits of en-passant captures, and the promotions' kind and piece
# bits, that the generator ORs onto a move's square bits.
_EP_CAPTURE_CODE = EP_CAPTURE << 15
_PROMOTION_CODES = tuple(PROMOTION << 15 | promo << 18 for promo in (QUEEN, ROOK, BISHOP, KNIGHT))


def _target_moves(piece: int, kind: int, reach: tuple[Bitboard, ...]) -> tuple[tuple[Move | None, ...], ...]:
    """Per from-square, the Moves of *piece* and *kind* onto its *reach*, indexed by target square.

    A from-square's tuple ends at its highest target; a slot below it holds
    None when its square is out of reach.  Only reached slots get a Move,
    so the build makes each move once.
    """
    per_square = []
    for sq, targets in enumerate(reach):
        base = sq | piece << 12 | kind << 15
        slots: list[Move | None] = [None] * targets.bit_length()
        while targets:
            low = targets & -targets
            targets ^= low
            to_sq = low.bit_length() - 1
            slots[to_sq] = Move(base | to_sq << 6)
        per_square.append(tuple(slots))
    return tuple(per_square)


def _quiet_and_capture(piece: int, reach: tuple[Bitboard, ...]) -> tuple[tuple[tuple[Move | None, ...], ...], ...]:
    return tuple(zip(_target_moves(piece, QUIET, reach), _target_moves(piece, CAPTURE, reach)))


def _pawn_pushes(kind: int, push: int, from_squares: Bitboard) -> tuple[Move | None, ...]:
    """Per from-square, the pawn push of *kind* by *push* squares from each of *from_squares*; else None."""
    return tuple(Move(sq | (sq + push) << 6 | kind << 15) if from_squares >> sq & 1 else None for sq in range(64))


# Each square's rook and bishop lines on the empty board: the squares a slider
# there can reach, and the only lines from which an enemy slider can pin a
# piece to a king on that square, or check it.
_ROOK_LINES = tuple(rook_rays(0, sq) for sq in range(64))
_BISHOP_LINES = tuple(bishop_rays(0, sq) for sq in range(64))

# The shared Move of every quiet move, capture and double push.  Pawn pushes
# and double pushes: per colour, one tuple indexed by from-square.  Pawn
# captures: per from-square, one tuple indexed by target square, both colours'
# targets in it.  The other pieces: per from-square, (quiet, capture) tuples
# indexed by target square.  No target is on a promotion rank: promotions
# are encoded as they are found.
_PAWN_PUSHES = (_pawn_pushes(QUIET, 8, 0xFFFF_FFFF_FFFF), _pawn_pushes(QUIET, -8, 0xFFFF_FFFF_FFFF << 16))
_PAWN_DOUBLE_PUSHES = (_pawn_pushes(DOUBLE_PUSH, 16, 0xFF << 8), _pawn_pushes(DOUBLE_PUSH, -16, 0xFF << 48))
_PAWN_CAPTURES = _target_moves(
    PAWN, CAPTURE, tuple(white & ~(0xFF << 56) | black & ~0xFF for white, black in zip(*PAWN_ATTACKS))
)
_KNIGHT_MOVES = _quiet_and_capture(KNIGHT, KNIGHT_ATTACKS)
_BISHOP_MOVES = _quiet_and_capture(BISHOP, _BISHOP_LINES)
_ROOK_MOVES = _quiet_and_capture(ROOK, _ROOK_LINES)
_QUEEN_MOVES = _quiet_and_capture(QUEEN, tuple(rook | bishop for rook, bishop in zip(_ROOK_LINES, _BISHOP_LINES)))
_KING_MOVES = _quiet_and_capture(KING, KING_ATTACKS)


def generate_pseudo_legal(
    position: Position, backend: AttackBackend, context: Any = None
) -> list[Move]:
    """All moves legal by geometry and occupancy for the side to move.

    King safety is not checked here; see generate_legal and perft.  Castling
    is emitted only through empty, unattacked squares.  Order is fixed for a
    given position: pawns, knights, bishops, rooks, queens, king, castles,
    each scanned from the low bit up.  Quiet moves, captures and double
    pushes are looked up in tuples of shared Move objects, pawn pushes by
    from-square and the rest by target square; knights, sliders and the
    king queue their (tuples, targets) pairs for one emission loop.
    Promotions, en-passant captures and castles are encoded as they are
    found.
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

    push = 8 if us == WHITE else -8
    start_rank = 1 if us == WHITE else 6
    promo_rank = 7 if us == WHITE else 0
    ep_bb = 0 if position.ep_square is None else 1 << position.ep_square

    pushes = _PAWN_PUSHES[us]
    double_pushes = _PAWN_DOUBLE_PUSHES[us]
    pawns, knights, bishops, rooks, queens, king = position.pieces[us * 6 : us * 6 + 6]
    while pawns:
        low = pawns & -pawns
        sq = low.bit_length() - 1  # also the base code: PAWN is 0
        pawns ^= low
        target = sq + push
        if 0 <= target <= 63 and not occupied & (1 << target):
            if target >> 3 == promo_rank:
                for promo in _PROMOTION_CODES:
                    add(Move(sq | target << 6 | promo))
            else:
                add(pushes[sq])
                if sq >> 3 == start_rank and not occupied & (1 << (target + push)):
                    add(double_pushes[sq])
        attacks = PAWN_ATTACKS[us][sq]
        captures = attacks & enemy
        while captures:
            cap_low = captures & -captures
            cap_sq = cap_low.bit_length() - 1
            captures ^= cap_low
            if cap_sq >> 3 == promo_rank:
                for promo in _PROMOTION_CODES:
                    add(Move(sq | cap_sq << 6 | promo))
            else:
                add(_PAWN_CAPTURES[sq][cap_sq])
        if attacks & ep_bb:
            add(Move(sq | position.ep_square << 6 | _EP_CAPTURE_CODE))

    # (quiet moves, captures) of one from-square, and its targets, per piece in order.
    pending: list[tuple[tuple, Bitboard]] = []
    while knights:
        low = knights & -knights
        sq = low.bit_length() - 1
        knights ^= low
        pending.append((_KNIGHT_MOVES[sq], KNIGHT_ATTACKS[sq] & ~own))

    for piece_moves, sliders, attack_fn in (
        (_BISHOP_MOVES, bishops, backend.bishop),
        (_ROOK_MOVES, rooks, backend.rook),
        (_QUEEN_MOVES, queens, backend.queen),
    ):
        while sliders:
            low = sliders & -sliders
            sq = low.bit_length() - 1
            sliders ^= low
            pending.append((piece_moves[sq], attack_fn(context, sq) & ~own))

    if king:
        sq = king.bit_length() - 1
        pending.append((_KING_MOVES[sq], KING_ATTACKS[sq] & ~own))

    for (quiet, capture), targets in pending:
        while targets:
            low = targets & -targets
            targets ^= low
            to_sq = low.bit_length() - 1
            add(capture[to_sq] if enemy & low else quiet[to_sq])

    if king and position.castling:
        for right in _CASTLING_RULES[us]:
            if not position.castling & right.flag or occupied & right.must_be_empty:
                continue
            if any(is_square_attacked(position, s, them, backend, context) for s in right.must_be_safe):
                continue
            add(encode_move(right.king_from, right.king_to, KING, CASTLE))

    return moves


# Bound once, so that make_move does not look it up on every call.
_new_tuple = tuple.__new__


def make_move(position: Position, move: int) -> Position:
    """Apply *move*, a Move or its int code; returns the successor Position (copy-make).

    Each colour's occupancy is updated with the squares the move touches,
    not derived again from the twelve piece boards.  A quiet move touches
    nothing else.  *move* must come from ``generate_pseudo_legal`` or
    ``generate_legal`` of *position*: the kind field is trusted, so a
    hand-encoded QUIET move onto an enemy piece leaves two boards overlapping.
    """
    pieces, us, castling, _, (white, black) = position
    them = 1 - us
    pieces = list(pieces)
    from_sq = move & 63
    to_sq = move >> 6 & 63
    to_bb = 1 << to_sq
    move_bb = 1 << from_sq | to_bb
    mover = us * 6 + (move >> 12 & 7)
    pieces[mover] ^= move_bb
    if castling:
        castling &= _RIGHTS_MASK[from_sq] & _RIGHTS_MASK[to_sq]
    if us == WHITE:
        own = white ^ move_bb
        enemy = black
    else:
        own = black ^ move_bb
        enemy = white
    ep = None

    kind = move >> 15 & 7
    if kind != QUIET:
        if to_bb & enemy:  # a capture, promotion captures included
            enemy ^= to_bb
            victim = them * 6  # the enemy's boards, from its pawns up
            while not pieces[victim] & to_bb:
                victim += 1
            pieces[victim] ^= to_bb
        if kind == DOUBLE_PUSH:
            ep = (from_sq + to_sq) >> 1
        elif kind == EP_CAPTURE:
            captured_bb = 1 << ((from_sq & 56) | (to_sq & 7))  # beside the mover, on the target's file
            pieces[them * 6 + PAWN] ^= captured_bb
            enemy ^= captured_bb
        elif kind == PROMOTION:
            pieces[mover] ^= to_bb
            pieces[us * 6 + (move >> 18)] |= to_bb
        elif kind == CASTLE:
            rook_bb = _CASTLE_ROOK_SQUARES[to_sq]
            pieces[us * 6 + ROOK] ^= rook_bb
            own ^= rook_bb

    occupancy = (own, enemy) if us == WHITE else (enemy, own)
    return _new_tuple(Position, (tuple(pieces), them, castling, ep, occupancy))


def in_check(position: Position, color: int, backend: AttackBackend, context: Any) -> bool:
    """True if *color*'s king is attacked; a side without a king is never in check.

    *context* is the backend's context for *position*.
    """
    king = position.pieces[color * 6 + KING]
    if not king:
        return False
    return is_square_attacked(position, king.bit_length() - 1, 1 - color, backend, context)


def _legal_children(
    position: Position, backend: AttackBackend, context: Any
) -> list[tuple[Move, Position, Any]]:
    """(move, child, child context) for each legal move, in generation order.

    Each child is made and its context derived from the move and *context*,
    its parent's; that context serves the king-safety test and the child's
    own generation.
    The parent's king square gets one rook and one bishop query, which decide
    whether the side to move is in check and which own pieces are suspects:
    the first blockers on the king's rook lines when an enemy rook or queen
    stands on those lines of the empty board, and likewise for bishop lines.
    The king and the own pawns that can capture en passant (such a capture
    empties two squares) are suspects too.  ``in_check`` then runs only on
    the children of a parent in check and on those whose move starts on a
    suspect square, castles included; the en-passant pawns' other moves are
    tested too, which costs a test and changes no result.  Any other move
    is legal: the king stays put, no enemy piece moves or appears, and the
    one square the move empties is no first blocker between the king and an
    enemy slider of the matching type, so no line to the king opens.
    """
    us = position.side_to_move
    king = position.pieces[us * 6 + KING]
    suspects = 0  # from-squares whose children must pass in_check
    if king:
        ksq = king.bit_length() - 1
        base = (1 - us) * 6
        pawns, knights, bishops, rooks, queens, kings = position.pieces[base : base + 6]
        rook_seen = backend.rook(context, ksq)
        bishop_seen = backend.bishop(context, ksq)
        if (
            PAWN_ATTACKS[us][ksq] & pawns
            or KNIGHT_ATTACKS[ksq] & knights
            or KING_ATTACKS[ksq] & kings
            or rook_seen & (rooks | queens)
            or bishop_seen & (bishops | queens)
        ):
            suspects = FULL_BOARD
        else:
            suspects = king
            own = position.occupancy[us]
            if _ROOK_LINES[ksq] & (rooks | queens):
                suspects |= rook_seen & own
            if _BISHOP_LINES[ksq] & (bishops | queens):
                suspects |= bishop_seen & own
            if position.ep_square is not None:
                suspects |= PAWN_ATTACKS[1 - us][position.ep_square] & position.pieces[us * 6 + PAWN]
    prepare = backend.prepare
    children = []
    for move in generate_pseudo_legal(position, backend, context):
        child = make_move(position, move)
        white, black = child.occupancy
        child_context = prepare(white | black, context, move)
        if not (suspects >> (move & 63) & 1 and in_check(child, us, backend, child_context)):
            children.append((move, child, child_context))
    return children


def generate_legal(position: Position, backend: AttackBackend) -> list[Move]:
    """Pseudo-legal moves filtered for own-king safety."""
    context = backend.prepare(position.occupied())
    return [move for move, _, _ in _legal_children(position, backend, context)]


def perft(position: Position, depth: int, backend: AttackBackend) -> int:
    """Leaf count of the legal move tree at *depth*; 1 below depth 1."""
    return _perft(position, depth, backend, backend.prepare(position.occupied()))


def perft_divide(position: Position, depth: int, backend: AttackBackend) -> list[tuple[Move, int]]:
    """(move, leaf count of its subtree) for each legal root move, in generation order.

    The counts sum to ``perft(position, depth, backend)``; *depth* must be at least 1.
    """
    if depth < 1:
        raise ValueError(f"perft divide needs depth >= 1, got {depth}")
    children = _legal_children(position, backend, backend.prepare(position.occupied()))
    return [(move, _perft(child, depth - 1, backend, child_context)) for move, child, child_context in children]


def _perft(position: Position, depth: int, backend: AttackBackend, context: Any) -> int:
    if depth < 1:
        return 1
    children = _legal_children(position, backend, context)
    if depth == 1:
        return len(children)
    return sum(_perft(child, depth - 1, backend, child_context) for _, child, child_context in children)
