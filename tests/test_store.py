import dataclasses
import hashlib
import io
import tracemalloc
import types

import pytest

from chesslut.bitboard import A1, A3, B1, B2, E4, H1, H8
from chesslut.store import MAGIC, TableLoadError, load_tables, save_tables
from chesslut.tables import build_attack_tables


# sha256 of save_tables(build_attack_tables()): pins the table contents and their key order.
TABLE_FILE_SHA256 = "2ca30b60ac14d83faad1a26f9aaee5cbe2c90fa427d85a3cc7da3b3321e34c02"


def saved_bytes(attack_tables) -> bytes:
    buffer = io.BytesIO()
    save_tables(attack_tables, buffer)
    return buffer.getvalue()


def test_round_trip_is_bit_exact(attack_tables):
    data = saved_bytes(attack_tables)
    loaded = load_tables(io.BytesIO(data))
    assert loaded == attack_tables
    assert loaded.rank_attacks == attack_tables.rank_attacks
    assert loaded.file_attacks == attack_tables.file_attacks
    assert loaded.diag_attacks_ne == attack_tables.diag_attacks_ne
    assert loaded.diag_attacks_nw == attack_tables.diag_attacks_nw
    assert loaded.masks == attack_tables.masks


def test_round_trip_preserves_entry_counts(attack_tables):
    loaded = load_tables(io.BytesIO(saved_bytes(attack_tables)))
    for table in (loaded.rank_attacks, loaded.file_attacks):
        assert len(table) == 64
        assert sum(len(v) for v in table.values()) == 64 * 256
    for table in (loaded.diag_attacks_ne, loaded.diag_attacks_nw):
        assert len(table) == 65  # 64 movers plus the zero base key
        assert sum(len(v) for v in table.values()) == 5125


def test_path_round_trip(attack_tables, tmp_path):
    target = tmp_path / "tables.bin"
    save_tables(attack_tables, target)
    assert load_tables(target) == attack_tables


def test_empty_stream_is_truncated():
    with pytest.raises(TableLoadError, match="truncated stream at offset 0"):
        load_tables(io.BytesIO(b""))


def test_flipped_magic_is_version_mismatch(attack_tables):
    data = bytearray(saved_bytes(attack_tables))
    data[0] ^= 0xFF
    with pytest.raises(TableLoadError, match="version mismatch"):
        load_tables(io.BytesIO(bytes(data)))


def test_wrong_version_is_version_mismatch(attack_tables):
    data = bytearray(saved_bytes(attack_tables))
    data[8] ^= 0x01
    with pytest.raises(TableLoadError, match="version mismatch at offset 8"):
        load_tables(io.BytesIO(bytes(data)))


def test_truncation_mid_stream_names_offset(attack_tables):
    data = saved_bytes(attack_tables)
    cut = len(data) // 2
    with pytest.raises(TableLoadError, match="truncated stream at offset"):
        load_tables(io.BytesIO(data[:cut]))


# Offsets in a saved file: the rank table's 64 x 256 triples follow magic, version and their u64 count.
_FIRST_BLOCK = 12 + 8
_FIRST_BLOCK_END = _FIRST_BLOCK + 24 * 64 * 256
_MASKS_SIZE = 4 * 64 * 8


@pytest.mark.parametrize(
    "cut",
    [
        0, 5, 8, 10, 12, 15,
        _FIRST_BLOCK + 24 * 100 + 7,
        _FIRST_BLOCK_END,
        -4 - _MASKS_SIZE + 3 * 64 * 8 + 5,
        -4,
        -1,
    ],
    ids=lambda cut: f"cut{cut}",
)
def test_truncation_reports_the_stream_length(attack_tables, cut):
    data = saved_bytes(attack_tables)
    cut %= len(data)  # a negative cut counts from the end
    with pytest.raises(TableLoadError) as excinfo:
        load_tables(io.BytesIO(data[:cut]))
    assert str(excinfo.value) == f"truncated stream at offset {cut}"


def test_corrupt_count_reads_to_the_end_of_the_stream(attack_tables):
    # The rank table's count, all ones: the loader must read to the end and stop, not ask for 2^64 triples.
    data = bytearray(saved_bytes(attack_tables))
    data[12:20] = b"\xff" * 8
    with pytest.raises(TableLoadError) as excinfo:
        load_tables(io.BytesIO(bytes(data)))
    assert str(excinfo.value) == f"truncated stream at offset {len(data)}"


def test_bytes_after_the_trailer_are_rejected(attack_tables):
    data = saved_bytes(attack_tables)
    with pytest.raises(TableLoadError) as excinfo:
        load_tables(io.BytesIO(data + bytes(700)))
    assert str(excinfo.value) == f"trailing data at offset {len(data)}"


def test_flipped_table_byte_fails_checksum_at_the_trailer(attack_tables):
    data = bytearray(saved_bytes(attack_tables))
    data[_FIRST_BLOCK + 24 * 100 + 11] ^= 0x10
    with pytest.raises(TableLoadError) as excinfo:
        load_tables(io.BytesIO(bytes(data)))
    assert str(excinfo.value).startswith(f"checksum failure at offset {len(data) - 4}: ")


def test_corrupted_payload_fails_checksum(attack_tables):
    data = bytearray(saved_bytes(attack_tables))
    data[len(data) // 2] ^= 0x04
    with pytest.raises(TableLoadError, match="checksum failure"):
        load_tables(io.BytesIO(bytes(data)))


def test_magic_prefix_is_stable(attack_tables):
    assert saved_bytes(attack_tables)[:8] == MAGIC


def test_saved_file_digest_is_pinned(attack_tables):
    data = saved_bytes(attack_tables)
    assert len(data) == 1_034_528
    assert hashlib.sha256(data).hexdigest() == TABLE_FILE_SHA256


def _zero_values(table):
    for entries in table.values():
        for occ_key in entries:
            entries[occ_key] = 0


G3 = 1 << 17


def _zero_g3_mover(table):
    table[G3] = dict.fromkeys(table[G3], 0)


@pytest.mark.parametrize(
    "field, mutate",
    [
        pytest.param("rank_attacks", lambda table: table[1].pop(0), id="rank-entry-dropped"),
        pytest.param("rank_attacks", _zero_values, id="rank-values-zeroed"),
        pytest.param("file_attacks", lambda table: table.pop(1), id="file-mover-dropped"),
        pytest.param("diag_attacks_ne", lambda table: table.pop(0), id="ne-base-entry-dropped"),
        pytest.param("diag_attacks_nw", _zero_values, id="nw-values-zeroed"),
        pytest.param("rank_attacks", _zero_g3_mover, id="rank-g3-mover-zeroed"),
        pytest.param("diag_attacks_ne", _zero_g3_mover, id="ne-g3-mover-zeroed"),
    ],
)
def test_checksum_valid_but_malformed_table_rejected(attack_tables, field, mutate):
    table = {piece: dict(entries) for piece, entries in getattr(attack_tables, field).items()}
    mutate(table)
    data = saved_bytes(dataclasses.replace(attack_tables, **{field: table}))
    with pytest.raises(TableLoadError, match=f"bad structure in {field}"):
        load_tables(io.BytesIO(data))


def test_checksum_valid_but_wrong_mask_rejected(attack_tables):
    file_masks = list(attack_tables.masks.file)
    file_masks[0] = 0
    masks = dataclasses.replace(attack_tables.masks, file=tuple(file_masks))
    data = saved_bytes(dataclasses.replace(attack_tables, masks=masks))
    with pytest.raises(TableLoadError, match="bad structure in masks.file"):
        load_tables(io.BytesIO(data))


def _drop_farthest(mover, dropped):
    """One-entry edit: at occupancy = the mover's own bit, drop *dropped*, a farthest attacked square."""

    def mutate(table):
        assert table[mover][mover] & dropped
        table[mover][mover] &= ~dropped

    return mutate


@pytest.mark.parametrize(
    "field, mutate, message",
    [
        pytest.param("rank_attacks", _drop_farthest(H1, A1), "wrong attacks from h1", id="rank-h1"),
        pytest.param("file_attacks", _drop_farthest(H1, H8), "wrong attacks from h1", id="file-h1"),
        pytest.param("diag_attacks_nw", _drop_farthest(B2, A3), "wrong attacks from b2", id="nw-b2"),
        pytest.param("diag_attacks_ne", _drop_farthest(E4, B1), "wrong attacks from e4", id="ne-e4"),
        pytest.param("rank_attacks", lambda table: table.setdefault(0, {0: 0}), "65 keys", id="rank-base-entry-added"),
    ],
)
def test_checksum_valid_table_with_one_wrong_entry_rejected(attack_tables, field, mutate, message):
    table = {piece: dict(entries) for piece, entries in getattr(attack_tables, field).items()}
    mutate(table)
    data = saved_bytes(dataclasses.replace(attack_tables, **{field: table}))
    with pytest.raises(TableLoadError, match=f"^bad structure in {field}: {message}"):
        load_tables(io.BytesIO(data))


def _reverse_h1(table):
    table[H1] = dict(reversed(table[H1].items()))


def _swap_first_two_movers(table):
    first, second, *rest = table.items()
    table.clear()
    table.update([second, first, *rest])


@pytest.mark.parametrize(
    "mutate",
    [
        pytest.param(_reverse_h1, id="h1-entries-reversed"),
        pytest.param(_swap_first_two_movers, id="h1-h2-movers-swapped"),
    ],
)
def test_checksum_valid_file_with_the_right_entries_in_another_order_rejected(attack_tables, mutate):
    # The same pairs as a build, saved in another order: a file must hold save_tables' bytes for a build.
    table = {piece: dict(entries) for piece, entries in attack_tables.rank_attacks.items()}
    mutate(table)
    assert table == attack_tables.rank_attacks
    data = saved_bytes(dataclasses.replace(attack_tables, rank_attacks=table))
    with pytest.raises(TableLoadError, match="^bad structure in rank_attacks: wrong attacks from h1$"):
        load_tables(io.BytesIO(data))


def test_dropped_entry_with_every_key_kept_gives_both_entry_counts(attack_tables):
    table = {piece: dict(entries) for piece, entries in attack_tables.file_attacks.items()}
    table[H1].pop(0)
    data = saved_bytes(dataclasses.replace(attack_tables, file_attacks=table))
    with pytest.raises(TableLoadError, match="^bad structure in file_attacks: 16383 entries, expected 16384$"):
        load_tables(io.BytesIO(data))


def traced_memory_mb(build):
    """(held after the call, peak during it) in MB, by tracemalloc, the result kept alive."""
    tracemalloc.start()
    try:
        result = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return held / 2**20, peak / 2**20


def test_loaded_tables_hold_no_more_memory_than_built_ones(attack_tables):
    # Equal keys and values share one int object in built tables; a load must
    # share them too, not hold a fresh int per decoded entry.
    data = saved_bytes(attack_tables)
    built_held, built_peak = traced_memory_mb(build_attack_tables)
    loaded_held, loaded_peak = traced_memory_mb(lambda: load_tables(io.BytesIO(data)))
    assert loaded_held <= 1.2 * built_held, (loaded_held, built_held)
    assert loaded_peak <= 1.2 * built_peak, (loaded_peak, built_peak)


def test_tables_loaded_from_a_path_peak_no_higher_than_built_ones(attack_tables, tmp_path):
    # A load from a path decodes the file a block at a time, never holding all its bytes.
    target = tmp_path / "tables.bin"
    save_tables(attack_tables, target)
    _, built_peak = traced_memory_mb(build_attack_tables)
    _, loaded_peak = traced_memory_mb(lambda: load_tables(target))
    assert loaded_peak <= 1.2 * built_peak, (loaded_peak, built_peak)


def test_save_holds_one_block_at_a_time(attack_tables):
    # The file is 1.03 MB; a save into a sink that discards its bytes holds at most one mover's 6 KB.
    sink = types.SimpleNamespace(write=len)
    _, peak = traced_memory_mb(lambda: save_tables(attack_tables, sink))
    assert peak < 0.1, peak
