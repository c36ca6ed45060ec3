import random

import pytest

from chesslut.bitboard import (
    A2, A8, B3, C4, D4, D5, E6, G1, H1, H2,
    bit_index,
    popcount,
    square_index,
)
from chesslut.rays import bishop_rays, queen_rays, rook_rays
from chesslut.rotated import (
    bishop_attacks_rotated,
    build_line_attack_bytes,
    make_rotated_state,
    queen_attacks_rotated,
    rook_attacks_rotated,
    rotate_occupancy,
    toggle_square,
)
from chesslut.tables import bishop_attacks, queen_attacks, rook_attacks


def test_all_maps_are_permutations(rotation):
    maps, _ = rotation
    for mapping in (maps.r90, maps.r45_ne, maps.r45_nw):
        assert sorted(mapping) == list(range(64))
        images = {rotate_occupancy(1 << sq, mapping) for sq in range(64)}
        assert len(images) == 64
        assert all(popcount(image) == 1 for image in images)


def test_r90_fixed_points_on_mirror_line(rotation):
    maps, _ = rotation
    for name in ("h1", "g2", "f3", "e4", "d5", "c6", "b7", "a8"):
        sq = square_index(name)
        assert maps.r90[sq] == sq


def test_r90_reflects_g1_to_h2(rotation):
    maps, _ = rotation
    assert maps.r90[bit_index(G1)] == bit_index(H2)
    assert rotate_occupancy(G1, maps.r90) == H2


def test_r90_reflects_f1_to_h3(rotation):
    maps, _ = rotation
    assert maps.r90[square_index("f1")] == square_index("h3")


def test_ne_map_packs_diagonals_by_prefix_sums(rotation):
    maps, _ = rotation
    assert maps.r45_ne[bit_index(H1)] == 0
    assert maps.r45_ne[bit_index(H2)] == 1
    assert maps.r45_ne[bit_index(G1)] == 2
    # First square of the long diagonal: offsets 1+2+...+7 = 28.
    assert maps.r45_ne[square_index("h8")] == 28
    assert maps.r45_ne[bit_index(A8)] == 63


def test_nw_map_starts_at_a1(rotation):
    maps, _ = rotation
    assert maps.r45_nw[square_index("a1")] == 0
    assert maps.r45_nw[square_index("h8")] == 63


def test_rotate_occupancy_edge_cases(rotation):
    maps, _ = rotation
    full = (1 << 64) - 1
    for mapping in (maps.r90, maps.r45_ne, maps.r45_nw):
        assert rotate_occupancy(0, mapping) == 0
        assert rotate_occupancy(full, mapping) == full


def test_rotation_preserves_popcount(rotation):
    maps, _ = rotation
    rng = random.Random(31)
    for _ in range(200):
        occ = rng.getrandbits(64)
        for mapping in (maps.r90, maps.r45_ne, maps.r45_nw):
            assert popcount(rotate_occupancy(occ, mapping)) == popcount(occ)


def test_toggle_is_an_involution(rotation):
    maps, _ = rotation
    state = make_rotated_state(0x1234_5678_9ABC_DEF0, maps)
    for sq in (0, 17, 42, 63):
        assert toggle_square(toggle_square(state, maps, sq), maps, sq) == state


def test_toggle_c4_from_empty_sets_mapped_bits(rotation):
    maps, _ = rotation
    state = toggle_square(make_rotated_state(0, maps), maps, bit_index(C4))
    assert state.occ == C4
    assert state.occ90 == 1 << maps.r90[bit_index(C4)]
    assert state.occ45_ne == 1 << maps.r45_ne[bit_index(C4)]
    assert state.occ45_nw == 1 << maps.r45_nw[bit_index(C4)]


def test_incremental_toggles_match_from_scratch(rotation):
    maps, _ = rotation
    rng = random.Random(37)
    state = make_rotated_state(0, maps)
    occ = 0
    for _ in range(500):
        sq = rng.randrange(64)
        state = toggle_square(state, maps, sq)
        occ ^= 1 << sq
        assert state == make_rotated_state(occ, maps)


def test_line_attack_bytes_exclude_own_position():
    arrays = build_line_attack_bytes()
    for pos in range(8):
        for occ in range(256):
            assert not arrays[pos][occ] & (1 << pos)


def test_rook_d4_empty_board(rotation):
    maps, arrays = rotation
    state = make_rotated_state(0, maps)
    attacks = rook_attacks_rotated(state, maps, arrays, bit_index(D4))
    assert attacks == rook_rays(0, bit_index(D4))
    assert popcount(attacks) == 14


def test_rook_h1_with_blockers_matches_direct(attack_tables, rotation):
    maps, arrays = rotation
    occ = (1 << square_index("f1")) | (1 << square_index("h3"))
    state = make_rotated_state(occ, maps)
    sq = bit_index(H1)
    assert rook_attacks_rotated(state, maps, arrays, sq) == rook_attacks(attack_tables, occ, sq)


def test_bishop_c4_blocked_at_e6_matches_direct(attack_tables, rotation):
    maps, arrays = rotation
    state = make_rotated_state(E6, maps)
    sq = bit_index(C4)
    assert bishop_attacks_rotated(state, maps, arrays, sq) == bishop_attacks(
        attack_tables, E6, sq
    )
    assert bishop_attacks_rotated(state, maps, arrays, sq) == (A2 | B3 | D5 | E6) | (
        bishop_rays(E6, sq) & ~(A2 | B3 | D5 | E6)
    )


def test_backends_agree_with_oracle_on_random_boards(attack_tables, rotation):
    maps, arrays = rotation
    rng = random.Random(41)
    for _ in range(2000):
        occ = rng.getrandbits(64)
        if rng.random() < 0.5:
            occ &= rng.getrandbits(64)
        sq = rng.randrange(64)
        state = make_rotated_state(occ, maps)
        assert rook_attacks_rotated(state, maps, arrays, sq) == rook_rays(occ, sq)
        assert bishop_attacks_rotated(state, maps, arrays, sq) == bishop_rays(occ, sq)
        assert queen_attacks_rotated(state, maps, arrays, sq) == queen_rays(occ, sq)
        assert queen_attacks_rotated(state, maps, arrays, sq) == queen_attacks(
            attack_tables, occ, sq
        )


@pytest.mark.parametrize("square", [-1, 64])
@pytest.mark.parametrize(
    "query",
    [
        rook_attacks,
        bishop_attacks,
        queen_attacks,
        rook_attacks_rotated,
        bishop_attacks_rotated,
        queen_attacks_rotated,
    ],
)
def test_off_board_square_raises_named_error(attack_tables, rotation, query, square):
    maps, arrays = rotation
    if query in (rook_attacks, bishop_attacks, queen_attacks):
        args = (attack_tables, 0)
    else:
        args = (make_rotated_state(0, maps), maps, arrays)
    with pytest.raises(ValueError, match=f"square {square} is off the board"):
        query(*args, square)
