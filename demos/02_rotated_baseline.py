"""The rotated-bitboard baseline: what direct lookup makes unnecessary.

Run:  python demos/02_rotated_baseline.py
"""

from chesslut import (
    build_line_attack_bytes,
    build_rotation_maps,
    make_rotated_state,
    pretty,
    rook_attacks_rotated,
    startpos,
)
from chesslut.bitboard import square_index, square_name

maps = build_rotation_maps()
arrays = build_line_attack_bytes()

print("The 90 degree map reflects across the a8-h1 line:")
for name in ("g1", "f1", "h1", "c4"):
    print(f"  {name} -> {square_name(maps.r90[square_index(name)])}")

print("\nThe starting position and its three rotated occupancy boards")
position = startpos()
state = make_rotated_state(position.occupied(), maps)
for label, board in (
    ("main", state.occ),
    ("rot 90", state.occ90),
    ("rot 45 ne", state.occ45_ne),
    ("rot 45 nw", state.occ45_nw),
):
    print(f"\n{label}: {board:#018x}")

print("\nA file lookup needs shift + mask + byte table + map back to board squares:")
a1 = square_index("a1")
file_byte = (state.occ90 >> maps.file_line.shift[a1]) & 0xFF
print(f"  a-file occupancy byte from the rotated board: {file_byte:#04x}")
attacks = rook_attacks_rotated(state, maps, arrays, a1)
print(pretty(attacks))
print("\nThe direct tables skip the rotation bookkeeping entirely: the masked")
print("occupancy bitboard is itself the hash key.")
