"""Bitboard move generation with direct hash-table lookup of sliding-piece
attacks, a rotated-bitboard baseline, and a benchmark harness.

The package root holds what the first three demos and README's library
example use, and ``FenError``; everything else is imported from its
module, so importing the search loads neither ``bench`` nor ``store``."""

from .bitboard import pretty
from .position import FenError, parse_fen, startpos
from .tables import bishop_attacks, build_attack_tables, build_line_attack_bytes
from .rotated import build_rotation_maps, make_rotated_state, rook_attacks_rotated
from .movegen import DirectBackend, RotatedBackend, generate_legal, perft

__version__ = "0.1.0"
