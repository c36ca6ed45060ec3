"""The rotated-bitboard baseline: what direct lookup makes unnecessary.

Run:  python demos/02_rotated_baseline.py
"""

from chesslut import (
    RotatedBackend,
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

print("\nThe composed lookup: shift + mask out the a-file's byte from the packed")
print("state (the shift includes the 90 degree board's offset, 64), index the")
print("first-rank walk with a1's position in the file, map the attack byte back:")
a1 = square_index("a1")
file = maps.file_line
file_byte = (state >> file.shift[a1]) & 0xFF
composed = file.board[a1][arrays[file.pos[a1]][file_byte]]
print(f"  a-file occupancy byte from the rotated board: {file_byte:#04x}")

print("\nCrafty's per-square form does the indexing and the map-back once, when")
print("the backend is built.  A line's end squares cannot block anything, so a1")
print("gets a 64-entry table indexed by the file's six inner bits, and a query is")
print("one shift, one mask and one index:")
table = tuple(file.board[a1][arrays[file.pos[a1]][inner << 1]] for inner in range(64))
inner_bits = (state >> (file.shift[a1] + 1)) & 63
resolved = table[inner_bits]
print(f"  a-file inner bits: {inner_bits:#04x}")
print(f"  composed {composed:#018x}, resolved {resolved:#018x}: {'same' if composed == resolved else 'MISMATCH'}")

print("\nRotatedBackend resolves every square and line that way; its rook query")
print("ORs the rank's and the file's entries (the module function composes both):")
backend = RotatedBackend(maps, arrays)
attacks = backend.rook(state, a1)
if attacks != rook_attacks_rotated(state, maps, arrays, a1):
    print("MISMATCH")
print(pretty(attacks))
print("\nThe direct tables skip the rotation bookkeeping entirely: the masked")
print("occupancy bitboard is itself the hash key.")
