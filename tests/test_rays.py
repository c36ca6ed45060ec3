import random

import pytest

from chesslut.bitboard import (
    A2, A6, A8, B3, B5, B7, C4, C6, D3, D5, E2, E4, E6, F1, F3, F7, G1, G2, G8, H1, H2, H3,
    bit_index,
)
from chesslut.rays import (
    BISHOP_DIRECTIONS,
    QUEEN_DIRECTIONS,
    ROOK_DIRECTIONS,
    bishop_rays,
    queen_rays,
    ray_attacks,
    rook_rays,
)

C4_DIAGONAL_ATTACKS = (A2 | B3 | D5 | E6 | F7 | G8) | (F1 | E2 | D3 | B5 | A6)


def test_bishop_c4_empty_board():
    attacks = bishop_rays(0, bit_index(C4))
    assert attacks == C4_DIAGONAL_ATTACKS
    assert attacks.bit_count() == 11


def test_rook_h1_with_blockers():
    attacks = rook_rays(F1 | H3, bit_index(H1))
    assert attacks == G1 | F1 | H2 | H3


def test_bishop_h1_empty_board():
    attacks = bishop_rays(0, bit_index(H1))
    assert attacks == G2 | F3 | E4 | D5 | C6 | B7 | A8


def test_full_board_stops_at_neighbors():
    full = (1 << 64) - 1
    for sq in range(64):
        for directions in (ROOK_DIRECTIONS, BISHOP_DIRECTIONS, QUEEN_DIRECTIONS):
            attacks = ray_attacks(full, sq, directions)
            for target in (t for t in range(64) if attacks >> t & 1):
                df = abs((7 - (target & 7)) - (7 - (sq & 7)))
                dr = abs((target >> 3) - (sq >> 3))
                assert max(df, dr) == 1


def test_origin_never_included():
    rng = random.Random(3)
    for _ in range(200):
        occ = rng.getrandbits(64)
        sq = rng.randrange(64)
        assert not ray_attacks(occ, sq, QUEEN_DIRECTIONS) & (1 << sq)


def test_mutual_visibility():
    # Every attacked square sees the attacker back: the walk guarantees the
    # squares between them are empty.
    rng = random.Random(5)
    for _ in range(300):
        occ = rng.getrandbits(64) & rng.getrandbits(64)
        sq = rng.randrange(64)
        attacks = ray_attacks(occ, sq, QUEEN_DIRECTIONS)
        for target in (t for t in range(64) if attacks >> t & 1):
            assert ray_attacks(occ, target, QUEEN_DIRECTIONS) & (1 << sq)


def test_monotonicity_under_added_blockers():
    rng = random.Random(9)
    for _ in range(300):
        occ = rng.getrandbits(64) & rng.getrandbits(64)
        extra = rng.getrandbits(64) & rng.getrandbits(64)
        sq = rng.randrange(64)
        before = ray_attacks(occ, sq, QUEEN_DIRECTIONS)
        after = ray_attacks(occ | extra, sq, QUEEN_DIRECTIONS)
        assert after & ~(before | extra) == 0


@pytest.mark.parametrize("oracle", [rook_rays, bishop_rays, queen_rays])
@pytest.mark.parametrize("square", [-1, 64])
def test_rays_reject_off_board_squares(oracle, square):
    with pytest.raises(ValueError, match=f"square {square} is off the board"):
        oracle(0, square)
