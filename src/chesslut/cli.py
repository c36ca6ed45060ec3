"""Command line interface.

Subcommands: ``tables build|save|load``, ``perft``, ``bench``, ``verify``
and ``corpus generate``.  Reports go to stdout, diagnostics to stderr;
exit code is 0 on success and nonzero on any error.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from .bench import BACKENDS, REPORT_FORMATS, emit_report, run_bench
from .bitboard import square_name
from .corpus import DEFAULT_COUNT, generate_corpus, write_corpus
from .movegen import perft, perft_divide
from .position import STARTING_FEN, parse_fen
from .rays import bishop_rays, queen_rays, rook_rays
from .store import load_tables, save_tables
from .tables import AttackTables, build_attack_tables


def _table_summary(tables: AttackTables) -> str:
    lines = []
    for label, table in (
        ("rank attacks", tables.rank_attacks),
        ("file attacks", tables.file_attacks),
        ("diag attacks ne", tables.diag_attacks_ne),
        ("diag attacks nw", tables.diag_attacks_nw),
    ):
        entries = sum(len(v) for v in table.values())
        lines.append(f"{label}: {len(table)} piece keys, {entries} entries")
    return "\n".join(lines)


def cmd_tables(args: argparse.Namespace) -> int:
    if args.table_action == "load":
        tables = load_tables(args.path)
        print(_table_summary(tables))
        return 0
    start = time.perf_counter()
    tables = build_attack_tables()
    print(f"built in {time.perf_counter() - start:.3f} s", file=sys.stderr)
    print(_table_summary(tables))
    if args.table_action == "save":
        save_tables(tables, args.path)
        print(f"saved to {args.path}")
    return 0


def cmd_perft(args: argparse.Namespace) -> int:
    if args.depth < 0 and not args.divide:  # perft_divide names its own limit
        print("error: depth must be >= 0", file=sys.stderr)
        return 1
    position = parse_fen(args.fen)
    backend = BACKENDS[args.backend]()
    start = time.perf_counter()
    if args.divide:
        divide = perft_divide(position, args.depth, backend)
        for move, count in divide:
            print(f"{move.uci()}: {count}")
        nodes = sum(count for _, count in divide)
    else:
        nodes = perft(position, args.depth, backend)
    elapsed = time.perf_counter() - start
    print(f"perft({args.depth}) = {nodes} [{args.backend}, {elapsed:.3f} s]", file=sys.stderr)
    print(nodes)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    backends = tuple(BACKENDS) if args.backend == "both" else (args.backend,)
    report = run_bench(args.corpus, backends, args.reps, args.warmup, args.strict)
    print(f"benchmarked {report.corpus_size} positions x {report.repetitions} reps", file=sys.stderr)
    print(emit_report(report, args.format), end="")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise ValueError("trials must be >= 1")
    direct_backend = BACKENDS["direct"]()
    rotated_backend = BACKENDS["rotated"]()
    rng = random.Random(args.seed)

    mismatches = 0
    for trial in range(args.trials):
        occupied = rng.getrandbits(64)
        if trial % 2:
            occupied &= rng.getrandbits(64)  # mix in sparser boards
        square = rng.randrange(64)
        direct_context = direct_backend.prepare(occupied)
        rotated_context = rotated_backend.prepare(occupied)
        for piece, oracle in (("rook", rook_rays), ("bishop", bishop_rays), ("queen", queen_rays)):
            expected = oracle(occupied, square)
            direct = getattr(direct_backend, piece)(direct_context, square)
            rotated = getattr(rotated_backend, piece)(rotated_context, square)
            if direct != expected or rotated != expected:
                mismatches += 1
                print(
                    f"mismatch: {piece} on {square_name(square)} occ={occupied:#018x} "
                    f"oracle={expected:#x} direct={direct:#x} rotated={rotated:#x}",
                    file=sys.stderr,
                )
    print(f"{args.trials} trials, {mismatches} mismatches")
    return 0 if mismatches == 0 else 1


def cmd_corpus(args: argparse.Namespace) -> int:
    entries = generate_corpus(count=args.count, seed=args.seed)
    if args.corpus:
        write_corpus(entries, args.corpus)
        print(f"wrote {len(entries)} positions to {args.corpus}", file=sys.stderr)
    else:
        write_corpus(entries, sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chesslut",
        description="Sliding-piece attack tables: direct lookup, rotated baseline, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tables = sub.add_parser("tables", help="build, save or load the attack tables")
    tables_sub = p_tables.add_subparsers(dest="table_action", required=True)
    tables_sub.add_parser("build", help="build tables and print a summary")
    p_save = tables_sub.add_parser("save", help="build tables and save them")
    p_save.add_argument("path")
    p_load = tables_sub.add_parser("load", help="load tables and print a summary")
    p_load.add_argument("path")
    p_tables.set_defaults(func=cmd_tables)

    p_perft = sub.add_parser("perft", help="count legal move-tree leaves")
    p_perft.add_argument("--fen", default=STARTING_FEN)
    p_perft.add_argument("--depth", type=int, required=True)
    p_perft.add_argument("--backend", choices=tuple(BACKENDS), default="direct")
    p_perft.add_argument("--divide", action="store_true", help="print each root move's count, then the total")
    p_perft.set_defaults(func=cmd_perft)

    p_bench = sub.add_parser("bench", help="time move generation per backend over a corpus")
    p_bench.add_argument("--corpus", required=True, help="EPD or FEN file, one record per line")
    p_bench.add_argument("--backend", choices=(*BACKENDS, "both"), default="both")
    p_bench.add_argument("--reps", type=int, default=10)
    p_bench.add_argument("--warmup", type=int, default=2)
    p_bench.add_argument("--format", choices=tuple(REPORT_FORMATS), default="text")
    p_bench.add_argument("--strict", action="store_true", help="fail on malformed corpus lines")
    p_bench.set_defaults(func=cmd_bench)

    p_verify = sub.add_parser("verify", help="spot-check both search backends against the ray oracle")
    p_verify.add_argument("--trials", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=1)
    p_verify.set_defaults(func=cmd_verify)

    p_corpus = sub.add_parser("corpus", help="corpus utilities")
    corpus_sub = p_corpus.add_subparsers(dest="corpus_action", required=True)
    p_generate = corpus_sub.add_parser("generate", help="write a seeded random EPD corpus")
    p_generate.add_argument("--corpus", default=None, help="output path (default: stdout)")
    p_generate.add_argument("--count", type=int, default=DEFAULT_COUNT)
    p_generate.add_argument("--seed", type=int, default=1)
    p_corpus.set_defaults(func=cmd_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:  # FenError, CorpusError and TableLoadError included
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
