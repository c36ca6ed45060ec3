"""Bitboard move generation with direct hash-table lookup of sliding-piece
attacks, a rotated-bitboard baseline, and a benchmark harness."""

from .bitboard import (
    Bitboard,
    Square,
    bit_index,
    clear_lsb,
    lsb,
    popcount,
    pretty,
    square_bb,
    square_index,
    square_name,
)
from .position import (
    BLACK,
    STARTING_FEN,
    WHITE,
    FenError,
    Position,
    parse_epd_line,
    parse_fen,
    serialize_fen,
    startpos,
)
from .rays import bishop_rays, queen_rays, ray_attacks, rook_rays
from .tables import (
    AttackTables,
    MaskTables,
    bishop_attacks,
    build_attack_table,
    build_attack_tables,
    build_line_attack_bytes,
    build_masks,
    legal_targets,
    queen_attacks,
    rook_attacks,
)
from .store import TableLoadError, load_tables, save_tables
from .rotated import (
    RotatedState,
    RotationMaps,
    bishop_attacks_rotated,
    build_rotation_maps,
    derive_rotated_state,
    make_rotated_state,
    queen_attacks_rotated,
    rook_attacks_rotated,
    rotate_occupancy,
    toggle_square,
)
from .movegen import (
    DirectBackend,
    Move,
    RotatedBackend,
    generate_legal,
    generate_pseudo_legal,
    make_move,
    perft,
)
from .bench import BenchConfig, BenchReport, emit_report, load_corpus, precompute_boards, run_bench
from .corpus import generate_corpus, write_corpus

__version__ = "0.1.0"
