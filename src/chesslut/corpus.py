"""Deterministic pseudo-random position corpus.

Seeded random playouts from the starting position yield legal midgame-like
positions; every position from a fixed ply onward is recorded until
the requested count is reached.  The same seed always produces the same
corpus, so benchmark runs are reproducible without shipping any copyrighted
test suite.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import TextIO

from .movegen import AttackBackend, DirectBackend, generate_legal, make_move
from .position import Position, serialize_fen, startpos
from .tables import build_attack_tables

DEFAULT_COUNT = 879
# Each playout records every position from MIN_PLIES on and stops after MAX_PLIES.
MIN_PLIES = 12
MAX_PLIES = 60


def generate_corpus(
    count: int = DEFAULT_COUNT,
    seed: int = 1,
    backend: AttackBackend | None = None,
) -> list[tuple[Position, str]]:
    """Generate *count* legal positions from seeded random playouts."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if backend is None:
        backend = DirectBackend(build_attack_tables())

    rng = random.Random(seed)
    entries: list[tuple[Position, str]] = []
    while len(entries) < count:
        position = startpos()
        for ply in range(1, MAX_PLIES + 1):
            moves = generate_legal(position, backend)
            if not moves:
                break
            position = make_move(position, rng.choice(moves))
            if ply >= MIN_PLIES:
                entries.append((position, f"rnd-{len(entries) + 1:04d}"))
                if len(entries) == count:
                    break
    return entries


def write_corpus(entries: list[tuple[Position, str]], sink: TextIO | str | Path) -> None:
    """Write positions as EPD lines with ``id`` opcodes."""
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8") as handle:
            write_corpus(entries, handle)
        return
    for position, record_id in entries:
        board_fields = " ".join(serialize_fen(position).split()[:4])
        sink.write(f'{board_fields} id "{record_id}";\n')
