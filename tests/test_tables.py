import hashlib
import random

import pytest

from chesslut.bitboard import (
    A1, A2, A4, A6, A8,
    B3, B4, B5,
    C4, C6,
    D1, D3, D4, D5,
    E2, E6,
    F1, F3, F7,
    G1, G2, G8,
    H1, H2, H3, H6,
    bit_index,
    square_index,
)
from chesslut.rays import bishop_rays, queen_rays, rook_rays
from chesslut.tables import (
    FILE_LINES,
    NE_DIAGONALS,
    NW_DIAGONALS,
    RANK_LINES,
    RANK_TO_FILE,
    bishop_attacks,
    build_attack_table,
    build_file_attacks,
    build_file_attacks_generalized,
    build_line_attack_bytes,
    build_masks,
    build_rank_attacks,
    build_rank_attacks_generalized,
    line_to_board,
    queen_attacks,
    rook_attacks,
)


def line_tables(tables):
    return (
        ("rank", tables.rank_attacks, tables.masks.rank),
        ("file", tables.file_attacks, tables.masks.file),
        ("ne", tables.diag_attacks_ne, tables.masks.diag_ne),
        ("nw", tables.diag_attacks_nw, tables.masks.diag_nw),
    )


# -- masks --------------------------------------------------------------------


def test_diag_ne_mask_c4():
    masks = build_masks()
    assert masks.diag_ne[bit_index(C4)] == A2 | B3 | C4 | D5 | E6 | F7 | G8


def test_diag_ne_mask_h1_is_single_square():
    masks = build_masks()
    assert masks.diag_ne[bit_index(H1)] == H1


def test_rank_mask_c4_is_whole_fourth_rank():
    masks = build_masks()
    assert masks.rank[bit_index(C4)] == 0xFF << 24


def test_mask_popcounts_and_membership():
    masks = build_masks()
    for sq in range(64):
        own = 1 << sq
        assert masks.rank[sq] & own
        assert masks.file[sq] & own
        assert masks.diag_ne[sq] & own
        assert masks.diag_nw[sq] & own
        assert masks.rank[sq].bit_count() == 8
        assert masks.file[sq].bit_count() == 8
        assert 1 <= masks.diag_ne[sq].bit_count() <= 8
        assert 1 <= masks.diag_nw[sq].bit_count() <= 8


def test_mask_intersections_are_the_square_itself():
    masks = build_masks()
    for sq in range(64):
        own = 1 << sq
        assert masks.rank[sq] & masks.file[sq] == own
        assert masks.diag_ne[sq] & masks.diag_nw[sq] == own


# -- rank attacks -------------------------------------------------------------


def test_rank_attacks_h1_blocked_by_f1():
    table = build_rank_attacks()
    assert table[H1][F1] == G1 | F1 == 6


def test_rank_attacks_d1_open_rank():
    table = build_rank_attacks()
    assert table[D1][0] == 0xFF ^ D1 == 239


def test_rank_attacks_shifted_to_third_rank():
    table = build_rank_attacks()
    assert table[H3][F3] == (G1 | F1) << 16 == 393216


def test_rank_attacks_shape():
    table = build_rank_attacks()
    assert len(table) == 64
    assert all(len(entries) == 256 for entries in table.values())


def test_rank_attacks_match_oracle_everywhere():
    table = build_rank_attacks()
    masks = build_masks()
    for piece_key, entries in table.items():
        sq = bit_index(piece_key)
        for occ_key, value in entries.items():
            expected = rook_rays(occ_key, sq) & masks.rank[sq]
            assert value == expected


def test_file_attacks_match_oracle_everywhere(attack_tables):
    masks = attack_tables.masks
    for piece_key, entries in attack_tables.file_attacks.items():
        sq = bit_index(piece_key)
        for occ_key, value in entries.items():
            assert value == rook_rays(occ_key, sq) & masks.file[sq]


def test_diag_attacks_match_oracle_everywhere(attack_tables):
    for table, masks in (
        (attack_tables.diag_attacks_ne, attack_tables.masks.diag_ne),
        (attack_tables.diag_attacks_nw, attack_tables.masks.diag_nw),
    ):
        for piece_key, entries in table.items():
            if not piece_key:
                continue
            sq = bit_index(piece_key)
            for occ_key, value in entries.items():
                assert value == bishop_rays(occ_key, sq) & masks[sq]


def test_shift_covariance_all_first_rank_entries():
    table = build_rank_attacks()
    checks = 0
    for i in range(8):
        for occ in range(256):
            base = table[1 << i][occ]
            for k in range(1, 8):
                assert table[(1 << i) << (8 * k)][occ << (8 * k)] == base << (8 * k)
                checks += 1
    assert checks == 8 * 256 * 7


def test_line_attack_bytes_equal_a_ray_walk_on_the_first_rank():
    # Bit k of an occupancy byte is square k of the first rank, so each of the
    # 8 x 256 entries is the naive ray walk's first-rank attacks.
    walk = build_line_attack_bytes()
    assert len(walk) == 8
    for pos in range(8):
        assert len(walk[pos]) == 256
        for occ in range(256):
            assert walk[pos][occ] == rook_rays(occ, pos) & 0xFF, (pos, occ)


# -- rank to file reflection ---------------------------------------------------


def test_rank_to_file_fixed_point_h1():
    assert RANK_TO_FILE[1] == 1


def test_rank_to_file_g1_to_h2():
    assert RANK_TO_FILE[2] == 256
    assert RANK_TO_FILE[2] == H2


def test_rank_to_file_f1_to_h3():
    assert RANK_TO_FILE[4] == 65536
    assert RANK_TO_FILE[4] == H3


def test_line_to_board_drops_bits_past_line_end():
    for length in range(1, 9):
        line = NE_DIAGONALS[length - 1]
        assert len(line) == length
        board = line_to_board(line)
        assert len(board) == 256
        for k in range(8):
            assert board[1 << k] == (line[k] if k < length else 0)
        for byte in range(256):  # the repeats share the line's own int objects
            assert board[byte] is board[byte & ((1 << length) - 1)]
    with pytest.raises(ValueError, match="at most 8 squares"):
        line_to_board(RANK_LINES[0] + (H2,))


# -- file attacks -------------------------------------------------------------


def test_file_attacks_h4_blocked_above():
    table = build_file_attacks(build_rank_attacks())
    h4 = 1 << square_index("h4")
    assert table[h4][H6] == H1 | H2 | H3 | (1 << 32) | H6


def test_file_attacks_a1_open_file():
    table = build_file_attacks(build_rank_attacks())
    expected = 0
    for name in ("a2", "a3", "a4", "a5", "a6", "a7", "a8"):
        expected |= 1 << square_index(name)
    assert table[A1][0] == expected


def test_file_attacks_h1_immediate_blocker():
    table = build_file_attacks(build_rank_attacks())
    assert table[H1][H2] == H2


def test_file_attacks_requires_rank_table():
    with pytest.raises(ValueError, match="rank table missing"):
        build_file_attacks({})


def test_file_attacks_shape(attack_tables):
    assert len(attack_tables.file_attacks) == 64
    assert all(len(entries) == 256 for entries in attack_tables.file_attacks.values())


# -- generalized builder ------------------------------------------------------


def test_builder_ne_diagonal_c4_blocked_at_e6():
    table = build_attack_table(NE_DIAGONALS)
    assert table[C4][E6] == B3 | A2 | D5 | E6


def test_builder_single_square_line():
    # One square, two occupancy patterns, nothing to attack either way.
    table = build_attack_table(((H1,),))
    assert table[H1] == {0: 0, H1: 0}
    assert table[0] == {0: 0}


def test_builder_line_end_all_occupied():
    # Mover at one end, every other square occupied: only the neighbor.
    diagonal = NE_DIAGONALS[7]  # h8 g7 f6 e5 d4 c3 b2 a1
    table = build_attack_table((diagonal,))
    others = 0
    for square in diagonal[1:]:
        others |= square
    assert table[diagonal[0]][others] == diagonal[1]


def test_builder_rejects_duplicate_squares():
    with pytest.raises(ValueError, match="duplicate"):
        build_attack_table(((H1, G1), (G1,)))


def test_builder_base_entry_present():
    table = build_attack_table(NW_DIAGONALS)
    assert table[0] == {0: 0}


def test_diagonal_table_cardinalities(attack_tables):
    for table in (attack_tables.diag_attacks_ne, attack_tables.diag_attacks_nw):
        movers = [key for key in table if key]
        assert len(movers) == 64
        assert sum(len(table[key]) for key in movers) == 5124


def test_nw_mover_h8_has_two_entries(attack_tables):
    assert len(attack_tables.diag_attacks_nw[1 << 56]) == 2
    assert set(attack_tables.diag_attacks_nw[1 << 56].values()) == {0}


def test_degenerate_diagonals_have_two_zero_entries(attack_tables):
    for table, corners in (
        (attack_tables.diag_attacks_ne, (H1, A8)),
        (attack_tables.diag_attacks_nw, (A1, 1 << 56)),
    ):
        for corner in corners:
            assert table[corner] == {0: 0, corner: 0}


def test_generalized_rank_table_equals_direct_construction():
    assert build_rank_attacks_generalized() == build_rank_attacks()


def test_generalized_file_table_equals_direct_construction():
    assert build_file_attacks_generalized() == build_file_attacks(build_rank_attacks())


def test_rank_and_file_movers_share_key_objects(attack_tables):
    # One board tuple per rank and per file: a line's 8 inner dicts hold the same
    # key ints, not 8 equal copies.
    for lines, table in ((RANK_LINES, attack_tables.rank_attacks), (FILE_LINES, attack_tables.file_attacks)):
        for line in lines:
            first = list(table[line[0]])
            for square_bb in line[1:]:
                keys = list(table[square_bb])
                assert len(keys) == len(first) and all(a is b for a, b in zip(keys, first)), hex(square_bb)


def test_generalized_rank_example_case():
    table = build_rank_attacks_generalized()
    assert table[H1][F1] == G1 | F1


# -- table-wide invariants ----------------------------------------------------


def test_values_exclude_mover_square(attack_tables):
    for _, table, _ in line_tables(attack_tables):
        for piece_key, entries in table.items():
            for value in entries.values():
                assert value & piece_key == 0


def test_values_confined_to_line(attack_tables):
    for _, table, masks in line_tables(attack_tables):
        for piece_key, entries in table.items():
            if not piece_key:
                continue
            mask = masks[bit_index(piece_key)]
            for occ_key, value in entries.items():
                assert occ_key & mask == occ_key
                assert value & mask == value


def test_mover_bit_is_irrelevant(attack_tables):
    for _, table, _ in line_tables(attack_tables):
        for piece_key, entries in table.items():
            if not piece_key:
                continue
            for occ_key, value in entries.items():
                assert entries[occ_key | piece_key] == value


def test_added_blocker_never_extends_attacks(attack_tables):
    rng = random.Random(17)
    for _, table, masks in line_tables(attack_tables):
        for _ in range(500):
            piece_key = 1 << rng.randrange(64)
            mask = masks[bit_index(piece_key)]
            occ = rng.getrandbits(64) & mask
            extra = 1 << rng.choice(list(range(64)))
            if not extra & mask:
                continue
            before = table[piece_key][occ]
            after = table[piece_key][occ | extra]
            assert after & ~(before | extra) == 0
            assert after & ~before & ~extra == 0


# -- piece attack queries -----------------------------------------------------


def test_rook_d4_empty_board(attack_tables):
    attacks = rook_attacks(attack_tables, 0, bit_index(D4))
    assert attacks == rook_rays(0, bit_index(D4))
    assert attacks.bit_count() == 14


def test_rook_h1_with_blockers(attack_tables):
    assert rook_attacks(attack_tables, F1 | H3, bit_index(H1)) == G1 | F1 | H2 | H3


def test_rook_own_square_never_blocks(attack_tables):
    attacks = rook_attacks(attack_tables, A8, bit_index(A8))
    assert attacks == rook_rays(0, bit_index(A8))
    assert attacks.bit_count() == 14


def test_bishop_c4_empty_board(attack_tables):
    expected = (A2 | B3 | D5 | E6 | F7 | G8) | (F1 | E2 | D3 | B5 | A6)
    attacks = bishop_attacks(attack_tables, 0, bit_index(C4))
    assert attacks == expected
    assert attacks.bit_count() == 11


def test_bishop_h1_empty_board(attack_tables):
    attacks = bishop_attacks(attack_tables, 0, bit_index(H1))
    assert attacks == bishop_rays(0, bit_index(H1))
    assert attacks.bit_count() == 7


def test_bishop_c4_blocked_at_e6(attack_tables):
    attacks = bishop_attacks(attack_tables, E6, bit_index(C4))
    assert attacks == (A2 | B3 | D5 | E6) | (F1 | E2 | D3 | B5 | A6)


def test_queen_d4_empty_board(attack_tables):
    assert queen_attacks(attack_tables, 0, bit_index(D4)).bit_count() == 27


def test_queen_h1_full_board(attack_tables):
    full = (1 << 64) - 1
    assert queen_attacks(attack_tables, full, bit_index(H1)) == G1 | H2 | G2


def test_queen_is_rook_or_bishop(attack_tables):
    rng = random.Random(23)
    for _ in range(1000):
        occ = rng.getrandbits(64)
        sq = rng.randrange(64)
        assert queen_attacks(attack_tables, occ, sq) == (
            rook_attacks(attack_tables, occ, sq) | bishop_attacks(attack_tables, occ, sq)
        )
        assert queen_attacks(attack_tables, occ, sq) == queen_rays(occ, sq)


def test_legal_targets():
    assert (G1 | F1) & ~F1 == G1
    assert (B4 | A4) & ~0 == B4 | A4
    assert C6 & ~C6 == 0


def test_line_lists_partition_the_board():
    for lines in (RANK_LINES, FILE_LINES, NE_DIAGONALS, NW_DIAGONALS):
        union = 0
        total = 0
        for line in lines:
            for square in line:
                union |= square
                total += 1
        assert union == (1 << 64) - 1
        assert total == 64


def test_line_families_are_pinned():
    # The table file's digest pins only the file and diagonal walk orders;
    # this also pins RANK_LINES', which build_rotation_maps reverses into the rank layout.
    families = repr((RANK_LINES, FILE_LINES, NE_DIAGONALS, NW_DIAGONALS)).encode()
    assert hashlib.sha256(families).hexdigest() == "58a39bd041074d723a00bffbe72cf2adaee13b2cee4c59bf6c5c7868c296a270"
