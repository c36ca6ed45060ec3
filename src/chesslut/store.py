"""Versioned binary persistence for the attack tables.

The paper builds its tables once and serves every query from them; this
module keeps them in a file.  Loading a file is not a shortcut: in CPython
it takes longer than building the tables afresh, mostly to decode 43,000
dict entries and to check them.  The format is fixed width, little endian:

    offset 0   magic, 8 bytes (``SLIDELUT``)
    offset 8   format version, u32
    offset 12  four tables in order rank, file, diag ne, diag nw; each is
               a u64 triple count followed by count * 24 bytes of
               (piece key, occupancy key, attack value) u64 triples
    ...        masks: rank, file, diag ne, diag nw, 64 u64 words each
    trailer    crc32 of everything before it, u32, the last bytes of the stream

Loads are verified against magic, version and checksum and fail with an
error naming the byte offset of the problem.  A file that passes the
checksum is then checked entry by entry: the masks must equal freshly built
ones, and each mover's entries must equal what the generalized builder
makes for that mover's line, built one line at a time so that no second
set of tables is held.  The diagonal tables must also hold their
[0][0] = 0 base entry, and no table may hold any other key.  A failure
names the table and, for a wrong mover, its square.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path
from typing import BinaryIO

from .bitboard import square_name
from .tables import (
    FILE_LINES, NE_DIAGONALS, NW_DIAGONALS, RANK_LINES, AttackTable, AttackTables, MaskTables, _attack_table,
    build_line_attack_bytes, build_masks,
)

MAGIC = b"SLIDELUT"
VERSION = 1

_TABLE_FIELDS = ("rank_attacks", "file_attacks", "diag_attacks_ne", "diag_attacks_nw")
_MASK_FIELDS = ("rank", "file", "diag_ne", "diag_nw")
# (table, the lines the generalized builder walks for it), in _TABLE_FIELDS order.
_TABLE_LINES = tuple(zip(_TABLE_FIELDS, (RANK_LINES, FILE_LINES, NE_DIAGONALS, NW_DIAGONALS)))
_TRIPLES_PER_READ = 4096


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


def load_tables(source: BinaryIO | str | Path) -> AttackTables:
    """Read tables produced by save_tables; bit-exact round trip.

    The stream is read and decoded a block at a time, so its bytes are never
    all held at once.  A read that returns fewer bytes than asked for is
    taken as the end of the stream.
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

    loaded: dict[str, AttackTable] = {}
    # Equal keys and values share one int object, as in built tables.
    shared = {}.setdefault
    for field in _TABLE_FIELDS:
        (count,) = struct.unpack("<Q", read(8))
        table: AttackTable = {}
        while count:  # in chunks, so that a corrupt count reads to the end and no further
            chunk = min(count, _TRIPLES_PER_READ)
            count -= chunk
            for piece_key, occ_key, value in struct.iter_unpack("<QQQ", read(24 * chunk)):
                table.setdefault(piece_key, {})[shared(occ_key, occ_key)] = shared(value, value)
        loaded[field] = table

    data = read(4 * 512)
    masks = MaskTables(**{field: struct.unpack_from("<64Q", data, 512 * k) for k, field in enumerate(_MASK_FIELDS)})

    computed, trailer = crc, offset
    (stored,) = struct.unpack("<I", read(4))
    if stored != computed:
        raise TableLoadError(
            f"checksum failure at offset {trailer}: stored {stored:#010x}, computed {computed:#010x}"
        )
    if source.read(1):
        raise TableLoadError(f"trailing data at offset {offset}")

    tables = AttackTables(masks=masks, **loaded)
    _check_structure(tables)
    return tables


def _check_structure(tables: AttackTables) -> None:
    """Reject a well-formed file whose tables differ from a fresh build in any entry."""
    expected_masks = build_masks()
    for field in _MASK_FIELDS:
        if getattr(tables.masks, field) != getattr(expected_masks, field):
            raise TableLoadError(f"bad structure in masks.{field}: not the {field} line masks")
    walk = build_line_attack_bytes()
    for field, lines in _TABLE_LINES:
        table: AttackTable = getattr(tables, field)
        base = field.startswith("diag")  # only the diagonal tables keep the [0][0] = 0 base entry
        if len(table) != 64 + base or base and table.get(0) != {0: 0}:
            raise TableLoadError(
                f"bad structure in {field}: {len(table)} keys, expected the 64 movers"
                + (" plus the [0][0] = 0 base entry" if base else "")
            )
        for line in lines:
            for mover, entries in _attack_table((line,), walk).items():
                if mover and table.get(mover) != entries:
                    raise TableLoadError(
                        f"bad structure in {field}: wrong attacks from {square_name(mover.bit_length() - 1)}"
                    )
