"""Versioned binary persistence for the attack tables.

The paper builds its tables once and serves every query from them; this
module keeps them in a file.  The format is fixed width, little endian:

    offset 0   magic, 8 bytes (``SLIDELUT``)
    offset 8   format version, u32
    offset 12  four tables in order rank, file, diag ne, diag nw; each is
               a u64 triple count followed by count * 24 bytes of
               (piece key, occupancy key, attack value) u64 triples
    ...        masks: rank, file, diag ne, diag nw, 64 u64 words each
    trailer    crc32 of everything before it, u32, the last bytes of the stream

Loads are verified against magic, version and checksum and fail with an
error naming the byte offset of the problem.  The file must also hold the
very bytes ``save_tables`` writes for a fresh build: a load builds the
tables, compares each mover's triples and then each mask block with that
build's encoding, and returns the built tables.  So in CPython a checked
load cannot beat a build.  A failure names the table and, for a wrong
mover, its square; a table whose triple count is not the build's is read
for its piece keys only, to report the key or entry counts.
"""

from __future__ import annotations

import struct
import zlib
from collections.abc import Iterator
from itertools import repeat
from pathlib import Path
from typing import BinaryIO

from .bitboard import square_name
from .tables import AttackTable, AttackTables, build_attack_tables

MAGIC = b"SLIDELUT"
VERSION = 1

_TABLE_FIELDS = ("rank_attacks", "file_attacks", "diag_attacks_ne", "diag_attacks_nw")
_MASK_FIELDS = ("rank", "file", "diag_ne", "diag_nw")
_TRIPLE = struct.Struct("<QQQ")
_COUNT = struct.Struct("<Q")
_MASKS = struct.Struct("<64Q")
_TRIPLES_PER_READ = 4096


class TableLoadError(ValueError):
    """Raised when a saved table stream cannot be decoded."""


def _encode_movers(table: AttackTable) -> Iterator[tuple[int, bytes]]:
    """(piece key, that mover's triples as saved) for each mover, in file order."""
    pack = _TRIPLE.pack
    for piece_key, entries in table.items():
        yield piece_key, b"".join(map(pack, repeat(piece_key), entries, entries.values()))


def save_tables(tables: AttackTables, sink: BinaryIO | str | Path) -> None:
    """Write *tables* to a binary stream or path."""
    if isinstance(sink, (str, Path)):
        with open(sink, "wb") as handle:
            save_tables(tables, handle)
        return

    def blocks() -> Iterator[bytes]:  # each at most one mover's triples, so a save never holds the file
        yield MAGIC + struct.pack("<I", VERSION)
        for field in _TABLE_FIELDS:
            table = getattr(tables, field)
            yield _COUNT.pack(sum(map(len, table.values())))
            yield from (block for _, block in _encode_movers(table))
        for field in _MASK_FIELDS:
            yield _MASKS.pack(*getattr(tables.masks, field))

    crc = 0
    for block in blocks():
        sink.write(block)
        crc = zlib.crc32(block, crc)
    sink.write(struct.pack("<I", crc))


def load_tables(source: BinaryIO | str | Path) -> AttackTables:
    """Read a file written by save_tables for built tables, and return built tables.

    The stream is read a mover (at most 6 KB) at a time, so its bytes are
    never all held at once.  A read that returns fewer bytes than asked for
    is taken as the end of the stream.  A structural fault is raised only
    once the checksum and the trailer have passed.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as handle:
            return load_tables(handle)

    offset = crc = 0

    def read(size: int) -> bytes:
        nonlocal offset, crc
        block = source.read(size)
        if len(block) < size:
            raise TableLoadError(f"truncated stream at offset {offset + len(block)}")
        offset += size
        crc = zlib.crc32(block, crc)
        return block

    magic = read(8)
    if magic != MAGIC:
        raise TableLoadError(f"version mismatch at offset 0: unrecognized magic {magic!r}")
    (version,) = struct.unpack("<I", read(4))
    if version != VERSION:
        raise TableLoadError(f"version mismatch at offset 8: got {version}, expected {VERSION}")

    built = build_attack_tables()
    fault = ""
    for field in _TABLE_FIELDS:
        table = getattr(built, field)
        (count,) = _COUNT.unpack(read(8))
        expected = sum(map(len, table.values()))
        if count == expected:
            for piece_key, block in _encode_movers(table):
                if read(len(block)) != block and not fault:
                    wrong = f"attacks from {square_name(piece_key.bit_length() - 1)}" if piece_key else "base entry"
                    fault = f"bad structure in {field}: wrong {wrong}"
            continue
        keys: set[int] = set()
        for start in range(0, count, _TRIPLES_PER_READ):  # so that a corrupt count reads to the end, no further
            triples = _TRIPLE.iter_unpack(read(24 * min(count - start, _TRIPLES_PER_READ)))
            keys.update(key for key, _, _ in triples)
        if len(keys) != len(table):
            base = " plus the [0][0] = 0 base entry" if 0 in table else ""
            problem = f"{len(keys)} keys, expected the 64 movers{base}"
        else:
            problem = f"{count} entries, expected {expected}"
        fault = fault or f"bad structure in {field}: {problem}"

    for field in _MASK_FIELDS:
        if read(_MASKS.size) != _MASKS.pack(*getattr(built.masks, field)):
            fault = fault or f"bad structure in masks.{field}: not the {field} line masks"

    computed, trailer = crc, offset
    (stored,) = struct.unpack("<I", read(4))
    if stored != computed:
        raise TableLoadError(
            f"checksum failure at offset {trailer}: stored {stored:#010x}, computed {computed:#010x}"
        )
    if source.read(1):
        raise TableLoadError(f"trailing data at offset {offset}")
    if fault:
        raise TableLoadError(fault)
    return built
