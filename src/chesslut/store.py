"""Versioned binary persistence for the attack tables.

Building the tables is a startup cost that can be skipped entirely by
saving them once and loading the file afterwards.  The format is fixed
width, little endian:

    offset 0   magic, 8 bytes (``SLIDELUT``)
    offset 8   format version, u32
    offset 12  four tables in order rank, file, diag ne, diag nw; each is
               a u64 triple count followed by count * 24 bytes of
               (piece key, occupancy key, attack value) u64 triples
    ...        masks: rank, file, diag ne, diag nw, 64 u64 words each
    trailer    crc32 of everything before it, u32

Loads are verified against magic, version and checksum and fail with an
error naming the byte offset of the problem.  A file that passes the
checksum is then checked for structure: the masks must equal freshly built
ones, every table must have its exact cardinality, and a seeded spot check
compares each table against the ray oracle; a failure names the table.
"""

from __future__ import annotations

import random
import struct
import zlib
from pathlib import Path
from typing import BinaryIO

from .bitboard import square_name
from .rays import bishop_rays, rook_rays
from .tables import AttackTable, AttackTables, MaskTables, build_masks

MAGIC = b"SLIDELUT"
VERSION = 1

_TABLE_FIELDS = ("rank_attacks", "file_attacks", "diag_attacks_ne", "diag_attacks_nw")
_MASK_FIELDS = ("rank", "file", "diag_ne", "diag_nw")
# (table, its mask, the oracle that walks its lines), in _TABLE_FIELDS order.
_TABLE_LINES = tuple(
    zip(_TABLE_FIELDS, _MASK_FIELDS, (rook_rays, rook_rays, bishop_rays, bishop_rays))
)
_SPOT_CHECK_SEED = 0
_SPOT_CHECK_QUERIES = 256


class TableLoadError(ValueError):
    """Raised when a saved table stream cannot be decoded."""


def _pack_table(table: AttackTable) -> bytes:
    chunks = [struct.pack("<Q", sum(len(entries) for entries in table.values()))]
    for piece_key, entries in table.items():
        for occ_key, value in entries.items():
            chunks.append(struct.pack("<QQQ", piece_key, occ_key, value))
    return b"".join(chunks)


def save_tables(tables: AttackTables, sink: BinaryIO | str | Path) -> None:
    """Write *tables* to a binary stream or path."""
    if isinstance(sink, (str, Path)):
        with open(sink, "wb") as handle:
            save_tables(tables, handle)
        return

    payload = [MAGIC, struct.pack("<I", VERSION)]
    for field in _TABLE_FIELDS:
        payload.append(_pack_table(getattr(tables, field)))
    for field in _MASK_FIELDS:
        masks = getattr(tables.masks, field)
        payload.append(struct.pack("<64Q", *masks))
    body = b"".join(payload)
    sink.write(body)
    sink.write(struct.pack("<I", zlib.crc32(body)))


class _Reader:
    def __init__(self, stream: BinaryIO) -> None:
        self.stream = stream
        self.offset = 0
        self.crc = 0

    def take(self, count: int) -> bytes:
        data = self.stream.read(count)
        if len(data) < count:
            raise TableLoadError(f"truncated stream at offset {self.offset + len(data)}")
        self.crc = zlib.crc32(data, self.crc)
        self.offset += count
        return data

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]


def load_tables(source: BinaryIO | str | Path) -> AttackTables:
    """Read tables produced by save_tables; bit-exact round trip."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as handle:
            return load_tables(handle)

    reader = _Reader(source)
    magic = reader.take(8)
    if magic != MAGIC:
        raise TableLoadError(f"version mismatch at offset 0: unrecognized magic {magic!r}")
    version = reader.u32()
    if version != VERSION:
        raise TableLoadError(f"version mismatch at offset 8: got {version}, expected {VERSION}")

    loaded: dict[str, AttackTable] = {}
    for field in _TABLE_FIELDS:
        count = reader.u64()
        table: AttackTable = {}
        for _ in range(count):
            piece_key, occ_key, value = struct.unpack("<QQQ", reader.take(24))
            table.setdefault(piece_key, {})[occ_key] = value
        loaded[field] = table

    mask_arrays = {
        field: struct.unpack("<64Q", reader.take(64 * 8)) for field in _MASK_FIELDS
    }

    expected_crc = reader.crc
    checksum_offset = reader.offset
    stored = struct.unpack("<I", reader.take(4))[0]
    if stored != expected_crc:
        raise TableLoadError(
            f"checksum failure at offset {checksum_offset}: "
            f"stored {stored:#010x}, computed {expected_crc:#010x}"
        )

    tables = AttackTables(
        rank_attacks=loaded["rank_attacks"],
        file_attacks=loaded["file_attacks"],
        diag_attacks_ne=loaded["diag_attacks_ne"],
        diag_attacks_nw=loaded["diag_attacks_nw"],
        masks=MaskTables(**mask_arrays),
    )
    _check_structure(tables)
    return tables


def _check_structure(tables: AttackTables) -> None:
    """Reject a well-formed file whose tables could not serve every query correctly."""
    expected_masks = build_masks()
    for field in _MASK_FIELDS:
        if getattr(tables.masks, field) != getattr(expected_masks, field):
            raise TableLoadError(f"bad structure in masks.{field}: not the {field} line masks")
    for field in ("rank_attacks", "file_attacks"):
        table: AttackTable = getattr(tables, field)
        if len(table) != 64 or any(len(entries) != 256 for entries in table.values()):
            raise TableLoadError(f"bad structure in {field}: expected 64 movers x 256 entries")
    for field in ("diag_attacks_ne", "diag_attacks_nw"):
        table = getattr(tables, field)
        if len(table) != 65 or table.get(0) != {0: 0} or sum(map(len, table.values())) != 5125:
            raise TableLoadError(
                f"bad structure in {field}: expected 64 movers with 5124 entries "
                "plus the [0][0] = 0 base entry"
            )
    rng = random.Random(_SPOT_CHECK_SEED)
    for query in range(_SPOT_CHECK_QUERIES):
        occupied = rng.getrandbits(64)
        if query % 2:
            occupied &= rng.getrandbits(64)  # mix in sparser boards
        square = rng.randrange(64)
        for field, mask_field, rays in _TABLE_LINES:
            mask = getattr(tables.masks, mask_field)[square]
            found = getattr(tables, field).get(1 << square, {}).get(occupied & mask)
            if found != rays(occupied, square) & mask:
                raise TableLoadError(
                    f"bad structure in {field}: wrong attacks from {square_name(square)} "
                    f"with occupancy {occupied & mask:#x}"
                )
