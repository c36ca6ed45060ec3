import dataclasses
import hashlib
import io

import pytest

from chesslut.store import MAGIC, TableLoadError, load_tables, save_tables


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


@pytest.mark.parametrize(
    "field, mutate",
    [
        pytest.param("rank_attacks", lambda table: table[1].pop(0), id="rank-entry-dropped"),
        pytest.param("rank_attacks", _zero_values, id="rank-values-zeroed"),
        pytest.param("file_attacks", lambda table: table.pop(1), id="file-mover-dropped"),
        pytest.param("diag_attacks_ne", lambda table: table.pop(0), id="ne-base-entry-dropped"),
        pytest.param("diag_attacks_nw", _zero_values, id="nw-values-zeroed"),
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
