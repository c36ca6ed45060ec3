"""Direct lookup in action: mask the occupancy, index two hash tables, OR.

Run:  python demos/01_direct_lookup.py
"""

from chesslut import bishop_attacks, build_attack_tables, pretty
from chesslut.bitboard import C4, E2, E6, bit_index, square_name

tables = build_attack_tables()
c4 = bit_index(C4)

print("A bishop on c4, an enemy piece on e6, a friendly pawn on e2.\n")
occupied = C4 | E6 | E2
print(pretty(occupied), "\n")

print("Step 1: confine the occupancy to the two diagonals through c4.")
ne_occ = occupied & tables.masks.diag_ne[c4]
nw_occ = occupied & tables.masks.diag_nw[c4]
print(f"  northeast diagonal occupancy: {ne_occ:#x}")
print(f"  northwest diagonal occupancy: {nw_occ:#x}\n")

print("Step 2: one dict lookup per diagonal, keyed by the piece square bitboard")
print("        and the masked occupancy, then OR the two attack sets.")
ne_attacks = tables.diag_attacks_ne[C4][ne_occ]
nw_attacks = tables.diag_attacks_nw[C4][nw_occ]
attacks = ne_attacks | nw_attacks
print(pretty(attacks), "\n")

print("Both blockers are attacked, nothing beyond either of them is, and the")
print("squares behind e2 (f1) never appear.")
print("bishop_attacks() wraps both lookups:",
      bishop_attacks(tables, occupied, c4) == attacks, "\n")

print("Step 3: drop friendly pieces to get move targets; e2 falls out.")
targets = attacks & ~(C4 | E2)
print(sorted(square_name(s) for s in range(64) if targets >> s & 1))
