import hashlib
import io
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_engine import _pseudo_moves, ref_legal_moves, ref_make, ref_move_uci, ref_parse_fen, ref_perft

from chesslut import movegen
from chesslut.bitboard import FULL_BOARD, square_index
from chesslut.corpus import generate_corpus, write_corpus
from chesslut.movegen import (
    CAPTURE,
    CASTLE,
    DOUBLE_PUSH,
    EP_CAPTURE,
    KING_ATTACKS,
    KNIGHT_ATTACKS,
    PROMOTION,
    QUIET,
    DirectBackend,
    Move,
    _legal_children,
    encode_move,
    generate_legal,
    generate_pseudo_legal,
    in_check,
    make_move,
    perft,
    perft_divide,
)
from chesslut.position import (
    BISHOP,
    BLACK,
    CASTLE_BK,
    CASTLE_BQ,
    CASTLE_WK,
    CASTLE_WQ,
    KING,
    KNIGHT,
    PAWN,
    QUEEN,
    ROOK,
    STARTING_FEN,
    WHITE,
    Position,
    parse_fen,
    serialize_fen,
    startpos,
)
from chesslut.rays import bishop_rays, queen_rays, rook_rays
from chesslut.rotated import (
    bishop_attacks_rotated,
    make_rotated_state,
    queen_attacks_rotated,
    rook_attacks_rotated,
)
from chesslut.store import load_tables, save_tables
from chesslut.tables import bishop_attacks, queen_attacks, rook_attacks

KIWIPETE = "r3k2r/p1ppqpb1/bn2pnp1/3PN3/1p2P3/2N2Q1p/PPPBBPPP/R3K2R w KQkq - 0 1"
POS3 = "8/2p5/3p4/KP5r/1R3p1k/8/4P1P1/8 w - - 0 1"
POS4 = "r3k2r/Pppp1ppp/1b3nbN/nP6/BBP1P3/q4N2/Pp1P2PP/R2Q1RK1 w kq - 0 1"
POS5 = "rnbq1k1r/pp1Pbppp/2p5/8/2B5/8/PPP1NnPP/RNBQK2R w KQ - 1 8"
POS6 = "r4rk1/1pp1qppp/p1np1n2/2b1p1B1/2B1P1b1/P1NP1N2/1PP1QPPP/R4RK1 w - - 0 10"
PUBLISHED = (serialize_fen(startpos()), KIWIPETE, POS3, POS4, POS5, POS6)


def uci_set(moves):
    return {move.uci() for move in moves}


def ref_uci_set(fen):
    return {ref_move_uci(move) for move in ref_legal_moves(ref_parse_fen(fen))}


# -- leaper tables ------------------------------------------------------------


def test_knight_corner_geometry():
    expected = (1 << square_index("b3")) | (1 << square_index("c2"))
    assert KNIGHT_ATTACKS[square_index("a1")] == expected


def test_king_e4_has_eight_neighbors():
    assert KING_ATTACKS[square_index("e4")].bit_count() == 8


def test_knight_d4_has_eight_targets():
    assert KNIGHT_ATTACKS[square_index("d4")].bit_count() == 8


# -- generation basics --------------------------------------------------------


def test_startpos_has_twenty_moves(direct_backend):
    assert len(generate_pseudo_legal(startpos(), direct_backend)) == 20
    assert len(generate_legal(startpos(), direct_backend)) == 20


def test_lone_bishop_c4_has_eleven_moves(direct_backend):
    pos = parse_fen("8/8/8/8/2B5/8/8/8 w - -")
    assert len(generate_pseudo_legal(pos, direct_backend)) == 11
    assert len(generate_legal(pos, direct_backend)) == 11


def test_geometrically_frozen_side_has_no_moves(direct_backend):
    # A single pawn whose push square is occupied and with nothing to capture.
    pos = parse_fen("8/8/8/8/8/b7/P7/8 w - -")
    assert generate_pseudo_legal(pos, direct_backend) == []


def test_generation_is_deterministic(direct_backend):
    pos = parse_fen(KIWIPETE)
    first = generate_pseudo_legal(pos, direct_backend)
    second = generate_pseudo_legal(pos, direct_backend)
    assert first == second


def test_backends_generate_identical_move_lists(direct_backend, rotated_backend, playout_positions):
    for position, _ in playout_positions[:200]:
        direct_moves = generate_pseudo_legal(position, direct_backend)
        rotated_moves = generate_pseudo_legal(position, rotated_backend)
        assert direct_moves == rotated_moves


# -- agreement with the independent coordinate generator ----------------------


def test_legal_moves_match_reference_on_known_positions(direct_backend):
    for fen in (serialize_fen(startpos()), KIWIPETE, POS3, POS4):
        assert uci_set(generate_legal(parse_fen(fen), direct_backend)) == ref_uci_set(fen)


def test_legal_moves_match_reference_on_playouts(direct_backend, playout_positions):
    for position, _ in playout_positions[:60]:
        fen = serialize_fen(position)
        assert uci_set(generate_legal(position, direct_backend)) == ref_uci_set(fen)


# -- make_move ----------------------------------------------------------------


def test_make_move_leaves_original_untouched(direct_backend):
    pos = startpos()
    snapshot = parse_fen(serialize_fen(pos))
    move = generate_legal(pos, direct_backend)[0]
    child = make_move(pos, move)
    assert pos == snapshot
    assert child != pos
    assert child.side_to_move == BLACK


def test_double_push_sets_ep_square(direct_backend):
    pos = startpos()
    move = next(m for m in generate_legal(pos, direct_backend) if m.uci() == "e2e4")
    child = make_move(pos, move)
    assert child.ep_square == square_index("e3")


def test_ep_capture_removes_captured_pawn(direct_backend):
    pos = parse_fen("4k3/8/8/8/4pP2/8/8/4K3 b - f3")
    move = next(m for m in generate_legal(pos, direct_backend) if m.kind == EP_CAPTURE)
    assert move.uci() == "e4f3"
    child = make_move(pos, move)
    assert child.pieces[WHITE * 6 + PAWN] == 0
    assert child.pieces[BLACK * 6 + PAWN] == 1 << square_index("f3")


def test_castling_moves_king_and_rook(direct_backend):
    pos = parse_fen("4k3/8/8/8/8/8/8/4K2R w K -")
    move = next(m for m in generate_legal(pos, direct_backend) if m.kind == CASTLE)
    assert move.uci() == "e1g1"
    child = make_move(pos, move)
    assert child.pieces[WHITE * 6 + KING].bit_length() - 1 == square_index("g1")
    assert child.pieces[WHITE * 6 + ROOK] == 1 << square_index("f1")
    assert child.castling == 0


def test_castling_blocked_through_attacked_square(direct_backend):
    # Black rook covers f1, so kingside castling must not be generated.
    pos = parse_fen("4kr2/8/8/8/8/8/8/4K2R w K -")
    assert not any(m.kind == CASTLE for m in generate_pseudo_legal(pos, direct_backend))


ALL_RIGHTS = "r3k2r/8/8/8/8/8/8/R3K2R {side} KQkq -"


@pytest.mark.parametrize(
    "flag, side, castle, rook_to, must_be_empty, must_be_safe, may_be_attacked, king_step, rook_step",
    [
        (CASTLE_WK, "w", "e1g1", "f1", "f1 g1", "e1 f1 g1", "", "e1e2", "h1h2"),
        (CASTLE_WQ, "w", "e1c1", "d1", "b1 c1 d1", "e1 d1 c1", "b1", "e1e2", "a1a2"),
        (CASTLE_BK, "b", "e8g8", "f8", "f8 g8", "e8 f8 g8", "", "e8e7", "h8h7"),
        (CASTLE_BQ, "b", "e8c8", "d8", "b8 c8 d8", "e8 d8 c8", "b8", "e8e7", "a8a7"),
    ],
)
def test_castling_rules_for_each_right(
    direct_backend, rotated_backend, flag, side, castle, rook_to,
    must_be_empty, must_be_safe, may_be_attacked, king_step, rook_step,
):
    base = parse_fen(ALL_RIGHTS.format(side=side))
    us = base.side_to_move
    own_rights = CASTLE_WK | CASTLE_WQ if us == WHITE else CASTLE_BK | CASTLE_BQ

    def add(color, piece, name):
        pieces = list(base.pieces)
        pieces[color * 6 + piece] |= 1 << square_index(name)
        return parse_fen(serialize_fen(Position(tuple(pieces), us, base.castling, None)))

    def castles(pos):
        direct, rotated = (
            castle in uci_set(generate_pseudo_legal(pos, backend)) for backend in (direct_backend, rotated_backend)
        )
        assert direct == rotated
        return direct

    def play(uci):
        return make_move(base, next(m for m in generate_legal(base, direct_backend) if m.uci() == uci))

    # On an open board the king castles and the rook lands beside it.
    assert castles(base)
    child = play(castle)
    assert child.pieces[us * 6 + KING].bit_length() - 1 == square_index(castle[2:])
    assert child.pieces[us * 6 + ROOK] & (1 << square_index(rook_to))
    assert child.pieces[us * 6 + ROOK].bit_count() == 2
    assert child.castling == 0b1111 & ~own_rights

    # A piece of either colour on any square between king and rook blocks it.
    for name in must_be_empty.split():
        for color in (WHITE, BLACK):
            assert not castles(add(color, KNIGHT, name)), (name, color)

    # An enemy rook attacking the king's start, path or landing square blocks it;
    # one attacking only b1/b8, which the king never crosses, does not.
    rook_rank = "4" if us == WHITE else "5"
    for name in must_be_safe.split():
        assert not castles(add(1 - us, ROOK, name[0] + rook_rank)), name
    for name in may_be_attacked.split():
        assert castles(add(1 - us, ROOK, name[0] + rook_rank)), name

    # A king move loses both of its colour's rights; a rook move loses only its own.
    assert play(king_step).castling == 0b1111 & ~own_rights
    assert play(rook_step).castling == 0b1111 & ~flag


def test_promotion_generates_four_pieces(direct_backend):
    pos = parse_fen("8/P7/8/8/8/8/8/K6k w - -")
    promos = [m for m in generate_legal(pos, direct_backend) if m.kind == PROMOTION]
    assert sorted(m.uci() for m in promos) == ["a7a8b", "a7a8n", "a7a8q", "a7a8r"]
    queen = next(m for m in promos if m.promotion == QUEEN)
    child = make_move(pos, queen)
    assert child.pieces[WHITE * 6 + PAWN] == 0
    assert child.pieces[WHITE * 6 + QUEEN] == 1 << square_index("a8")


def test_capture_promotion(direct_backend):
    pos = parse_fen("1n2k3/P7/8/8/8/8/8/4K3 w - -")
    move = next(
        m for m in generate_legal(pos, direct_backend) if m.kind == PROMOTION and m.promotion == KNIGHT and m.to_square == square_index("b8")
    )
    child = make_move(pos, move)
    assert child.pieces[BLACK * 6 + KNIGHT] == 0
    assert child.pieces[WHITE * 6 + KNIGHT] == 1 << square_index("b8")


def test_rook_capture_revokes_castling_rights(direct_backend):
    pos = parse_fen("r3k2r/8/8/8/8/8/8/R3K2R w KQkq -")
    move = next(m for m in generate_legal(pos, direct_backend) if m.uci() == "a1a8")
    child = make_move(pos, move)
    # White queenside and black queenside rights both die with the rooks.
    assert child.castling == 0b0101


def test_random_playout_round_trips_through_fen(direct_backend):
    rng = random.Random(53)
    pos = startpos()
    for _ in range(60):
        moves = generate_legal(pos, direct_backend)
        if not moves:
            break
        pos = make_move(pos, rng.choice(moves))
        assert parse_fen(serialize_fen(pos)) == pos
        union = 0
        for board in pos.pieces:
            assert union & board == 0
            union |= board


def test_in_check_detection(direct_backend):
    pos = parse_fen("4k3/8/8/8/8/8/4R3/4K3 b - -")
    assert in_check(pos, BLACK, direct_backend, pos.occupied())
    assert not in_check(pos, WHITE, direct_backend, pos.occupied())


# -- slider queries of the backends -------------------------------------------


def seeded_boards():
    """Three seeded boards for each piece count 0..32, plus the empty and full boards."""
    rng = random.Random(606)
    boards = [0, FULL_BOARD]
    for count in range(33):
        for _ in range(3):
            occ = 0
            for sq in rng.sample(range(64), count):
                occ |= 1 << sq
            boards.append(occ)
    return boards


@pytest.mark.parametrize("source", ["built", "loaded"])
def test_direct_backend_matches_table_queries_and_rays(attack_tables, source):
    # The backend resolves each square's first level when it is built; a
    # table set read back from a file must resolve to the same answers.
    tables = attack_tables
    if source == "loaded":
        buffer = io.BytesIO()
        save_tables(attack_tables, buffer)
        buffer.seek(0)
        tables = load_tables(buffer)
    backend = DirectBackend(tables)
    for occ in seeded_boards():
        for sq in range(64):
            rook = backend.rook(occ, sq)
            bishop = backend.bishop(occ, sq)
            queen = backend.queen(occ, sq)
            assert rook == rook_attacks(tables, occ, sq) == rook_rays(occ, sq)
            assert bishop == bishop_attacks(tables, occ, sq) == bishop_rays(occ, sq)
            assert queen == queen_attacks(tables, occ, sq) == queen_rays(occ, sq)


def test_rotated_backend_matches_module_queries_and_rays(rotation, rotated_backend):
    # The backend resolves each square's shift and 64-entry table when it is
    # built; the module functions compose the first-rank walk with the line's
    # table on every query.  The full board puts the next diagonal's bits in
    # every short diagonal's window.
    maps, arrays = rotation
    backend = rotated_backend
    for occ in seeded_boards():
        state = make_rotated_state(occ, maps)
        for sq in range(64):
            rook = backend.rook(state, sq)
            bishop = backend.bishop(state, sq)
            queen = backend.queen(state, sq)
            assert rook == rook_attacks_rotated(state, maps, arrays, sq) == rook_rays(occ, sq)
            assert bishop == bishop_attacks_rotated(state, maps, arrays, sq) == bishop_rays(occ, sq)
            assert queen == queen_attacks_rotated(state, maps, arrays, sq) == queen_rays(occ, sq)


def test_rotated_backend_tables_share_line_ints(rotation, rotated_backend):
    # Every per-square entry is an int the line's line_to_board table already
    # holds, so the resolved tables cost tuple slots and no new ints.
    maps, _ = rotation
    backend = rotated_backend
    lines = (maps.rank_line, maps.file_line, maps.ne_line, maps.nw_line)
    for sq in range(64):
        resolved = backend._rook[sq] + backend._bishop[sq]
        assert backend._queen[sq] == resolved
        for line, table in zip(lines, resolved[1::2]):
            assert len(table) == 64
            line_ints = {id(bb) for bb in line.board[sq]}
            assert all(id(bb) in line_ints for bb in table)


@pytest.mark.parametrize("square", [-1, 64])
@pytest.mark.parametrize("piece", ["rook", "bishop", "queen"])
@pytest.mark.parametrize("backend_name", ["direct_backend", "rotated_backend"])
def test_backend_queries_raise_named_error_off_board(request, rotation, backend_name, piece, square):
    backend = request.getfixturevalue(backend_name)
    context = backend.context_from_state(make_rotated_state(0, rotation[0]))
    with pytest.raises(ValueError, match=f"square {square} is off the board"):
        getattr(backend, piece)(context, square)


# -- perft --------------------------------------------------------------------


def test_perft_depth_zero_is_one(direct_backend):
    assert perft(startpos(), 0, direct_backend) == 1


def test_perft_startpos_matches_reference_live(direct_backend):
    ref_start = ref_parse_fen(serialize_fen(startpos()))
    for depth in (1, 2, 3):
        assert perft(startpos(), depth, direct_backend) == ref_perft(ref_start, depth)


def test_perft_startpos_frozen_values(direct_backend):
    assert perft(startpos(), 1, direct_backend) == 20
    assert perft(startpos(), 2, direct_backend) == 400
    assert perft(startpos(), 3, direct_backend) == 8902


def test_perft_tactical_positions_match_reference(direct_backend):
    for fen, depth in ((KIWIPETE, 2), (POS3, 3), (POS4, 2)):
        expected = ref_perft(ref_parse_fen(fen), depth)
        assert perft(parse_fen(fen), depth, direct_backend) == expected


def test_perft_backends_agree(direct_backend, rotated_backend):
    """Published counts (chessprogramming.org, Perft Results) on both backends, at
    depths that reach promotions, en passant and castling through check."""
    for fen, depth, expected in (
        (KIWIPETE, 3, 97_862),
        (POS3, 4, 43_238),
        (POS4, 3, 9_467),
        (POS5, 3, 62_379),
        (POS6, 3, 89_890),
    ):
        pos = parse_fen(fen)
        assert perft(pos, depth, direct_backend) == expected, fen
        assert perft(pos, depth, rotated_backend) == expected, fen


@pytest.mark.parametrize("fen, depth, expected", [(KIWIPETE, 2, 2039), (STARTING_FEN, 3, 8902), (STARTING_FEN, 1, 20)])
def test_perft_divide_sums_to_perft(direct_backend, rotated_backend, fen, depth, expected):
    pos = parse_fen(fen)
    for backend in (direct_backend, rotated_backend):
        divide = perft_divide(pos, depth, backend)
        assert [move for move, _ in divide] == generate_legal(pos, backend)
        assert sum(count for _, count in divide) == expected == perft(pos, depth, backend)
        for move, count in divide:
            assert count == perft(make_move(pos, move), depth - 1, backend), move.uci()


@pytest.mark.parametrize("depth", [0, -1])
def test_perft_divide_rejects_depth_below_one(direct_backend, depth):
    with pytest.raises(ValueError, match="depth >= 1"):
        perft_divide(startpos(), depth, direct_backend)


# -- incremental context upkeep -----------------------------------------------

# Squares whose occupancy a move flips, by kind; a promotion counts as its
# capture or quiet counterpart.
CHANGED_SQUARES = {QUIET: 2, DOUBLE_PUSH: 2, CAPTURE: 1, EP_CAPTURE: 3, CASTLE: 4}


def walk_checking_upkeep(backend, seed, plies):
    """Random legal playouts from each published position.  At every ply, every
    child's context (derived from its parent's, as the search does) must equal
    the context built from scratch, and the move must flip the expected number
    of squares.  Returns the count of (kind, is capture) seen."""
    rng = random.Random(seed)
    seen = Counter()
    for fen in PUBLISHED:
        position = parse_fen(fen)
        for _ in range(plies):
            parent_occ = position.occupied()
            children = _legal_children(position, backend, backend.prepare(parent_occ))
            if not children:
                break
            for move, child, child_context in children:
                assert child_context == backend.prepare(child.occupied()), move.uci()
                is_capture = bool(parent_occ >> move.to_square & 1)
                kind = move.kind
                if kind == PROMOTION:
                    kind = CAPTURE if is_capture else QUIET
                assert (parent_occ ^ child.occupied()).bit_count() == CHANGED_SQUARES[kind], move.uci()
                seen[move.kind, is_capture] += 1
            position = rng.choice(children)[1]
    return seen


@settings(max_examples=6, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_derived_context_matches_scratch_on_playouts(direct_backend, rotated_backend, seed):
    for backend in (direct_backend, rotated_backend):
        walk_checking_upkeep(backend, seed, plies=16)


def test_upkeep_playouts_reach_every_move_kind(rotated_backend):
    seen = walk_checking_upkeep(rotated_backend, seed=0, plies=40)
    assert set(seen) == {
        (QUIET, False),
        (DOUBLE_PUSH, False),
        (CAPTURE, True),
        (EP_CAPTURE, False),
        (CASTLE, False),
        (PROMOTION, False),
        (PROMOTION, True),
    }


def test_rotated_upkeep_is_a_plain_int_equal_to_the_scratch_state(rotation, rotated_backend):
    """Every child of Kiwipete and CPW position 4 down to depth 2: the context
    the upkeep derives from the parent's is a plain int, the value of the
    state rotated from scratch."""
    maps, _ = rotation
    backend = rotated_backend
    kinds = Counter()
    for fen in (KIWIPETE, POS4):
        root = parse_fen(fen)
        for parent in [root] + [make_move(root, move) for move in generate_legal(root, backend)]:
            parent_occ = parent.occupied()
            parent_context = backend.prepare(parent_occ)
            assert type(parent_context) is int
            for move in generate_legal(parent, backend):
                child_occ = make_move(parent, move).occupied()
                context = backend.prepare(child_occ, parent_context, move)
                assert type(context) is int, move.uci()
                assert context == make_rotated_state(child_occ, maps), move.uci()
                kinds[move.kind, bool(parent_occ >> move.to_square & 1)] += 1
    assert {
        (QUIET, False),
        (CAPTURE, True),
        (PROMOTION, True),
        (CASTLE, False),
        (EP_CAPTURE, False),
    } <= set(kinds)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    parent_occ=st.integers(min_value=0, max_value=FULL_BOARD),
    child_occ=st.integers(min_value=0, max_value=FULL_BOARD),
    move=st.integers(min_value=0, max_value=2**21 - 1),
)
def test_rotated_upkeep_rotates_any_child_board_for_any_code(rotated_backend, parent_occ, child_occ, move):
    """The upkeep takes every square the move's from and to leave stale from
    the child's occupancy, so it rotates any child board, whatever the code."""
    backend = rotated_backend
    assert backend.prepare(child_occ, backend.prepare(parent_occ), move) == backend.prepare(child_occ)


def test_rotated_upkeep_reads_no_kind_field(rotated_backend):
    """Every child of Kiwipete and CPW positions 3 and 4 down to depth 2: the
    move with its kind field cleared derives the same context, castles and
    en-passant captures included."""
    backend = rotated_backend
    kinds = set()
    for fen in (KIWIPETE, POS3, POS4):
        root = parse_fen(fen)
        for parent in [root] + [make_move(root, move) for move in generate_legal(root, backend)]:
            parent_context = backend.prepare(parent.occupied())
            for move in generate_legal(parent, backend):
                child_occ = make_move(parent, move).occupied()
                expected = backend.prepare(child_occ)
                assert backend.prepare(child_occ, parent_context, move) == expected, move.uci()
                assert backend.prepare(child_occ, parent_context, move & ~(7 << 15)) == expected, move.uci()
                kinds.add(move.kind)
    assert kinds == {QUIET, CAPTURE, DOUBLE_PUSH, EP_CAPTURE, CASTLE, PROMOTION}


# -- packed move encoding -----------------------------------------------------

# sha256 of write_corpus(generate_corpus(200, seed=1)): the playouts pick moves by
# index, so this pins the generation order that every benchmark input comes from.
CORPUS_200_SEED_1_SHA256 = "eca0b39cee1a6a25424c5e9650633066ce29ee2427943b77054eeaa879df0bdc"


def test_generation_order_pinned_by_corpus_digest(direct_backend):
    sink = io.StringIO()
    write_corpus(generate_corpus(200, seed=1, backend=direct_backend), sink)
    assert hashlib.sha256(sink.getvalue().encode("utf-8")).hexdigest() == CORPUS_200_SEED_1_SHA256


def test_rotated_generation_order_matches_the_corpus_digest(rotated_backend):
    sink = io.StringIO()
    write_corpus(generate_corpus(200, seed=1, backend=rotated_backend), sink)
    assert hashlib.sha256(sink.getvalue().encode("utf-8")).hexdigest() == CORPUS_200_SEED_1_SHA256


def published_roots_and_children(backend):
    for fen in PUBLISHED:
        root = parse_fen(fen)
        yield root
        for move in generate_legal(root, backend):
            yield make_move(root, move)


def test_move_encoding_round_trips_on_published_positions(direct_backend):
    kinds = Counter()
    for position in published_roots_and_children(direct_backend):
        for move in generate_legal(position, direct_backend):
            fields = (move.from_square, move.to_square, move.piece, move.kind, move.promotion)
            encoded = encode_move(*fields)
            assert type(encoded) is Move and encoded == move, move
            assert (encoded.from_square, encoded.to_square, encoded.piece, encoded.kind, encoded.promotion) == fields
            assert position.piece_at(move.from_square) == (position.side_to_move, move.piece), move
            assert (move.promotion is None) == (move.kind != PROMOTION), move
            assert make_move(position, int(move)) == make_move(position, move), move
            kinds[move.kind] += 1
    assert set(kinds) == {QUIET, CAPTURE, DOUBLE_PUSH, EP_CAPTURE, CASTLE, PROMOTION}


def test_make_move_keeps_occupancy_consistent(direct_backend, rotated_backend):
    """Every legal move of the published roots and of their children, on both
    backends: the child's incrementally kept colour boards must equal those
    derived from its pieces, and the child must equal the Position rebuilt
    from its four public fields and the one read back from its FEN."""
    kinds = Counter()
    for backend in (direct_backend, rotated_backend):
        for position in published_roots_and_children(backend):
            parent_occ = position.occupied()
            for move, child, _ in _legal_children(position, backend, backend.prepare(parent_occ)):
                for color in (WHITE, BLACK):
                    derived = 0
                    for board in child.pieces[color * 6 : color * 6 + 6]:
                        derived |= board
                    assert child.color_bb(color) == derived, (move.uci(), color)
                assert child == Position(child.pieces, child.side_to_move, child.castling, child.ep_square), move.uci()
                assert child == parse_fen(serialize_fen(child)), move.uci()
                kinds[move.kind, bool(parent_occ >> move.to_square & 1)] += 1
    assert set(kinds) == {
        (QUIET, False),
        (DOUBLE_PUSH, False),
        (CAPTURE, True),
        (EP_CAPTURE, False),
        (CASTLE, False),
        (PROMOTION, False),
        (PROMOTION, True),
    }


def test_move_repr_names_its_fields(direct_backend):
    pos = parse_fen("8/4P3/8/8/8/8/8/K6k w - -")
    promotion = next(m for m in generate_legal(pos, direct_backend) if m.uci() == "e7e8q")
    assert repr(promotion) == "Move(e7e8q, piece=PAWN, kind=PROMOTION)"
    assert repr(encode_move(square_index("e1"), square_index("g1"), KING, CASTLE)) == "Move(e1g1, piece=KING, kind=CASTLE)"


# -- pin-aware king-safety filter ---------------------------------------------


def brute_force_children(position, backend):
    """The oracle for _legal_children: make every pseudo-legal move and keep the
    children whose mover's king is not attacked, each with its context built
    from scratch."""
    us = position.side_to_move
    children = []
    for move in generate_pseudo_legal(position, backend):
        child = make_move(position, move)
        child_context = backend.prepare(child.occupied())
        if not in_check(child, us, backend, child_context):
            children.append((move, child, child_context))
    return children


def assert_filter_matches_brute_force(position, backend):
    fast = _legal_children(position, backend, backend.prepare(position.occupied()))
    slow = brute_force_children(position, backend)
    assert [move.uci() for move, _, _ in fast] == [move.uci() for move, _, _ in slow], serialize_fen(position)
    assert fast == slow, serialize_fen(position)
    return fast


@settings(max_examples=4, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_legal_children_match_brute_force_on_playouts(direct_backend, rotated_backend, seed):
    rng = random.Random(seed)
    for fen in PUBLISHED:
        position = parse_fen(fen)
        for _ in range(24):
            children = assert_filter_matches_brute_force(position, direct_backend)
            assert_filter_matches_brute_force(position, rotated_backend)
            if not children:
                break
            position = rng.choice(children)[1]


# One position per case the filter must get right, with a pseudo-legal move
# the king-safety test rejects there (None: every pseudo-legal move is legal)
# and a legal move it keeps.
FILTER_CASES = [
    ("rook pin on a file", "4r2k/8/8/8/8/8/4B3/4K3 w - - 0 1", "e2d3", "e1d1"),
    ("bishop pin on a diagonal", "7k/8/8/8/1b6/8/3N4/4K3 w - - 0 1", "d2f3", "e1e2"),
    ("pinned piece moving along its pin line", "7k/4q3/8/8/8/4R3/8/4K3 w - - 0 1", "e3d3", "e3e7"),
    ("en-passant rank pin", "8/8/8/KPp4r/8/8/8/7k w - c6 0 1", "b5c6", "b5b6"),
    ("double check", "4r2k/8/8/8/8/R2n4/8/4K3 w - - 0 1", "a3d3", "e1d2"),
    ("king steps back along the checking ray", "4r2k/8/8/8/8/8/4K3/8 w - - 0 1", "e2e1", "e2d2"),
    ("castling next to an x-rayed square", "1r2k3/8/b7/8/8/8/1P6/R3K2R w KQ - 0 1", "e1f1", "e1c1"),
    ("side with no king", "7k/8/8/8/8/8/4P3/R7 w - - 0 1", None, "a1a8"),
]


@pytest.mark.parametrize(
    "fen, rejected, kept", [case[1:] for case in FILTER_CASES], ids=[case[0] for case in FILTER_CASES]
)
def test_legal_children_match_brute_force_on_hand_built_cases(
    direct_backend, rotated_backend, fen, rejected, kept
):
    position = parse_fen(fen)
    pseudo = uci_set(generate_pseudo_legal(position, direct_backend))
    for backend in (direct_backend, rotated_backend):
        legal = {move.uci() for move, _, _ in assert_filter_matches_brute_force(position, backend)}
        assert kept in legal
        if rejected is None:
            assert legal == pseudo
        else:
            assert rejected in pseudo - legal


# -- shared move objects ------------------------------------------------------


def target_move_tables():
    """{(piece, from-square, kind): tuple of tabled moves indexed by target square}."""
    tables = {(PAWN, sq, CAPTURE): moves for sq, moves in enumerate(movegen._PAWN_CAPTURES)}
    for piece, piece_moves in (
        (KNIGHT, movegen._KNIGHT_MOVES),
        (BISHOP, movegen._BISHOP_MOVES),
        (ROOK, movegen._ROOK_MOVES),
        (QUEEN, movegen._QUEEN_MOVES),
        (KING, movegen._KING_MOVES),
    ):
        for sq, (quiet, capture) in enumerate(piece_moves):
            tables[piece, sq, QUIET] = quiet
            tables[piece, sq, CAPTURE] = capture
    return tables


# (kind, step, tuple of one colour's tabled pawn pushes indexed by from-square)
PAWN_PUSH_TABLES = [
    (kind, step if color == WHITE else -step, pushes[color])
    for kind, step, pushes in ((QUIET, 8, movegen._PAWN_PUSHES), (DOUBLE_PUSH, 16, movegen._PAWN_DOUBLE_PUSHES))
    for color in (WHITE, BLACK)
]


def test_generated_moves_are_shared_and_tabled_once(direct_backend, rotated_backend):
    """Every tabled move decodes to the piece, from-square, kind and target it
    sits under, and over the digest corpus, on both backends and twice each,
    every quiet move, capture and double push is the table's own Move object."""
    tabled = []
    for (piece, sq, kind), moves in target_move_tables().items():
        assert type(moves) is tuple and len(moves) <= 64
        for to_sq, move in enumerate(moves):
            if move is not None:
                assert type(move) is Move, move
                fields = (move.piece, move.from_square, move.kind, move.to_square, move.promotion)
                assert fields == (piece, sq, kind, to_sq, None), move
                tabled.append(int(move))
    for kind, step, pushes in PAWN_PUSH_TABLES:
        assert type(pushes) is tuple and len(pushes) == 64
        for sq, move in enumerate(pushes):
            if move is not None:
                assert type(move) is Move, move
                fields = (move.piece, move.from_square, move.kind, move.to_square, move.promotion)
                assert fields == (PAWN, sq, kind, sq + step, None), move
                tabled.append(int(move))
    assert len(tabled) == len(set(tabled))

    corpus = [position for position, _ in generate_corpus(200, seed=1, backend=direct_backend)]
    tables = target_move_tables()
    kinds = Counter()
    for backend in (direct_backend, rotated_backend):
        for _ in range(2):
            for position in corpus:
                for move in generate_pseudo_legal(position, backend):
                    assert type(move) is Move, move
                    kinds[move.kind] += 1
                    if move.kind in (QUIET, DOUBLE_PUSH) and move.piece == PAWN:
                        pushes = movegen._PAWN_PUSHES if move.kind == QUIET else movegen._PAWN_DOUBLE_PUSHES
                        assert pushes[position.side_to_move][move.from_square] is move, move
                    elif move.kind in (QUIET, CAPTURE):
                        assert tables[move.piece, move.from_square, move.kind][move.to_square] is move, move
    assert {QUIET, CAPTURE, DOUBLE_PUSH} <= set(kinds)


def test_move_tables_fill_each_piece_reach_on_the_empty_board():
    """Tabled moves per piece and kind: every target each piece reaches from
    every square on the empty board, and no more.  Each pawn colour has 48
    pushes, 8 double pushes and 84 captures, none onto a promotion rank."""
    reach = {
        PAWN: {QUIET: 96, DOUBLE_PUSH: 16, CAPTURE: 168},
        KNIGHT: {QUIET: 336, CAPTURE: 336},
        BISHOP: {QUIET: 560, CAPTURE: 560},
        ROOK: {QUIET: 896, CAPTURE: 896},
        QUEEN: {QUIET: 1456, CAPTURE: 1456},
        KING: {QUIET: 420, CAPTURE: 420},
    }
    tabled = {piece: Counter() for piece in reach}
    for (piece, _, kind), moves in target_move_tables().items():
        tabled[piece][kind] += sum(move is not None for move in moves)
    for kind, _, pushes in PAWN_PUSH_TABLES:
        tabled[PAWN][kind] += sum(move is not None for move in pushes)
    assert tabled == reach
    assert sum(bb.bit_count() for bb in KNIGHT_ATTACKS) == 336
    assert sum(bb.bit_count() for bb in KING_ATTACKS) == 420
    assert sum(rook_rays(0, sq).bit_count() for sq in range(64)) == 896
    assert sum(bishop_rays(0, sq).bit_count() for sq in range(64)) == 560


# -- make_move against the reference engine -----------------------------------


def colour_mirrored_fen(fen):
    """The same position with the board flipped top to bottom and the colours swapped."""
    board, side, castling, ep, *counters = fen.split()
    board = "/".join(reversed(board.split("/"))).swapcase()
    side = "b" if side == "w" else "w"
    castling = "".join(sorted(castling.swapcase(), key="KQkq-".index))
    ep = ep if ep == "-" else ep[0] + str(9 - int(ep[1]))
    return " ".join([board, side, castling, ep, *counters])


def test_make_move_matches_reference_on_every_pseudo_legal_move(direct_backend):
    """Every pseudo-legal move of the published roots, of their colour
    mirrors (so that each colour moves at a root and in the children) and of
    their legal children: the child's placement, castling rights, en-passant
    square and side to move equal the reference engine's, and captures of
    each non-king piece type occur for both colours."""
    roots = [parse_fen(fen) for fen in PUBLISHED + tuple(colour_mirrored_fen(fen) for fen in PUBLISHED)]
    positions = [
        position
        for root in roots
        for position in [root] + [make_move(root, move) for move in generate_legal(root, direct_backend)]
    ]
    victims = Counter()
    for position in positions:
        fen = serialize_fen(position)
        ref = ref_parse_fen(fen)
        ref_moves = {ref_move_uci(move): move for move in _pseudo_moves(ref)}
        moves = generate_pseudo_legal(position, direct_backend)
        assert sorted(move.uci() for move in moves) == sorted(ref_moves), fen
        for move in moves:
            expected = ref_make(ref, ref_moves[move.uci()])
            child = ref_parse_fen(serialize_fen(make_move(position, move)))
            assert child.board == expected.board, (fen, move.uci())
            assert sorted(child.castling) == sorted(expected.castling), (fen, move.uci())
            assert child.ep == expected.ep, (fen, move.uci())
            assert child.white_to_move == expected.white_to_move, (fen, move.uci())
            victim = ref.board[move.to_square ^ 7]  # the reference numbers a1 as 0, h1 as 7
            assert (victim != ".") == bool(position.occupied() >> move.to_square & 1), (fen, move.uci())
            if victim != ".":
                victims[victim] += 1
    assert set("pnbrqPNBRQ") <= set(victims), victims


def test_importing_the_search_loads_neither_bench_nor_store():
    # The package root imports only what the search and the first three demos use.
    src = str(Path(movegen.__file__).resolve().parent.parent)
    code = "import chesslut.movegen, sys; print(sorted({'chesslut.bench', 'chesslut.store'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n", result.stdout


def test_each_backend_lives_with_its_tables():
    # Each backend is defined beside the data it resolves; the search only re-exports it.
    from chesslut import rotated, tables

    assert movegen.DirectBackend is tables.DirectBackend
    assert movegen.RotatedBackend is rotated.RotatedBackend
    assert tables.DirectBackend.__module__ == "chesslut.tables"
    assert rotated.RotatedBackend.__module__ == "chesslut.rotated"
    for name in ("LineLayout", "RotationMaps", "RotatedState", "make_rotated_state", "LineAttackArrays", "AttackTables"):
        assert not hasattr(movegen, name), name
