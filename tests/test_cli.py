import pytest

from chesslut.cli import main
from chesslut.movegen import DirectBackend, RotatedBackend
from chesslut.corpus import generate_corpus, write_corpus
from chesslut.store import save_tables
from chesslut.tables import build_attack_tables


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory, direct_backend):
    path = tmp_path_factory.mktemp("cli") / "corpus.epd"
    write_corpus(generate_corpus(count=12, seed=3, backend=direct_backend), path)
    return path


def test_tables_build_prints_summary(capsys):
    assert main(["tables", "build"]) == 0
    out = capsys.readouterr().out
    assert "rank attacks: 64 piece keys, 16384 entries" in out
    assert "diag attacks ne: 65 piece keys, 5125 entries" in out


def test_tables_save_and_load(tmp_path, capsys):
    path = tmp_path / "tables.bin"
    assert main(["tables", "save", str(path)]) == 0
    assert path.exists()
    capsys.readouterr()
    assert main(["tables", "load", str(path)]) == 0
    assert "file attacks: 64 piece keys, 16384 entries" in capsys.readouterr().out


def test_tables_load_bad_file_fails(tmp_path, capsys):
    path = tmp_path / "garbage.bin"
    path.write_bytes(b"\x00" * 32)
    assert main(["tables", "load", str(path)]) == 1
    assert "version mismatch" in capsys.readouterr().err


def test_perft_prints_node_count(capsys):
    assert main(["perft", "--depth", "2"]) == 0
    assert capsys.readouterr().out.strip() == "400"


def test_perft_rotated_backend(capsys):
    assert main(["perft", "--depth", "2", "--backend", "rotated"]) == 0
    assert capsys.readouterr().out.strip() == "400"


def test_perft_with_fen(capsys):
    assert main(["perft", "--depth", "1", "--fen", "8/8/8/8/2B5/8/8/8 w - -"]) == 0
    assert capsys.readouterr().out.strip() == "11"


def test_perft_negative_depth_fails(capsys):
    assert main(["perft", "--depth", "-1"]) == 1
    assert "depth" in capsys.readouterr().err


def test_perft_divide_prints_each_root_move_then_total(capsys):
    assert main(["perft", "--depth", "2", "--divide"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 21
    assert "e2e4: 20" in lines
    assert sum(int(line.split(": ")[1]) for line in lines[:-1]) == int(lines[-1]) == 400


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_perft_divide_depth_below_one_fails(capsys, depth):
    assert main(["perft", "--depth", depth, "--divide"]) == 1
    assert "depth" in capsys.readouterr().err


def test_corpus_generate_to_file(tmp_path, capsys):
    path = tmp_path / "gen.epd"
    assert main(["corpus", "generate", "--corpus", str(path), "--count", "15", "--seed", "9"]) == 0
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 15
    assert all('id "rnd-' in line for line in lines)


def test_corpus_generate_to_stdout(capsys):
    assert main(["corpus", "generate", "--count", "3", "--seed", "9"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 3


def test_corpus_generation_is_seed_deterministic(tmp_path):
    a, b = tmp_path / "a.epd", tmp_path / "b.epd"
    main(["corpus", "generate", "--corpus", str(a), "--count", "10", "--seed", "4"])
    main(["corpus", "generate", "--corpus", str(b), "--count", "10", "--seed", "4"])
    assert a.read_text() == b.read_text()


def test_bench_text_output(small_corpus, capsys):
    assert main(["bench", "--corpus", str(small_corpus), "--reps", "2", "--warmup", "0"]) == 0
    out = capsys.readouterr().out
    assert "direct" in out and "rotated" in out
    assert "ratio rotated/direct" in out


def test_bench_markdown_single_backend(small_corpus, capsys):
    code = main(
        [
            "bench",
            "--corpus",
            str(small_corpus),
            "--backend",
            "direct",
            "--reps",
            "1",
            "--warmup",
            "0",
            "--format",
            "markdown",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Direct Lookup Time (s)" in out
    assert "Rotated" not in out


def test_bench_csv_parses_back(small_corpus, capsys):
    from chesslut.bench import parse_csv_report

    assert (
        main(
            ["bench", "--corpus", str(small_corpus), "--reps", "1", "--warmup", "0", "--format", "csv"]
        )
        == 0
    )
    report = parse_csv_report(capsys.readouterr().out)
    assert report.corpus_size == 12
    assert {t.backend for t in report.timings} == {"direct", "rotated"}


def test_bench_missing_corpus_fails(tmp_path, capsys):
    assert main(["bench", "--corpus", str(tmp_path / "missing.epd")]) == 1
    assert "error:" in capsys.readouterr().err


def test_bench_strict_rejects_bad_lines(tmp_path, capsys):
    path = tmp_path / "bad.epd"
    path.write_text("not a position\n8/8/8/8/2B5/8/8/8 w - -\n")
    assert main(["bench", "--corpus", str(path), "--reps", "1", "--strict"]) == 1
    err = capsys.readouterr().err
    assert "line 1" in err


def test_bench_checks_its_input_before_building_tables(small_corpus, tmp_path, capsys, monkeypatch):
    import chesslut.bench as bench_module
    import chesslut.cli as cli_module

    def no_build():
        pytest.fail("bench built tables before checking its configuration and corpus")

    monkeypatch.setattr(bench_module, "build_attack_tables", no_build)
    monkeypatch.setattr(cli_module, "build_attack_tables", no_build)
    assert main(["bench", "--corpus", str(small_corpus), "--reps", "0", "--backend", "direct"]) == 1
    assert "repetitions must be >= 1" in capsys.readouterr().err
    missing = tmp_path / "missing.epd"
    assert main(["bench", "--corpus", str(missing), "--backend", "direct"]) == 1
    assert "cannot read corpus" in capsys.readouterr().err


def test_perft_and_bench_take_no_tables_option(tmp_path, capsys):
    path = str(tmp_path / "t.bin")
    for args in (["perft", "--depth", "1", "--tables", path], ["bench", "--corpus", "c.epd", "--tables", path]):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert "unrecognized arguments: --tables" in capsys.readouterr().err


def test_bench_rotated_backend_builds_no_tables(small_corpus, capsys, monkeypatch):
    import chesslut.bench as bench_module
    import chesslut.cli as cli_module

    def no_build():
        pytest.fail("bench built the direct tables for the rotated backend alone")

    monkeypatch.setattr(bench_module, "build_attack_tables", no_build)
    monkeypatch.setattr(cli_module, "build_attack_tables", no_build)
    assert main(["bench", "--corpus", str(small_corpus), "--backend", "rotated", "--reps", "1", "--warmup", "0"]) == 0
    captured = capsys.readouterr()
    assert "tables" not in captured.err
    assert "rotated" in captured.out and "direct" not in captured.out


def test_verify_reports_zero_mismatches(capsys):
    assert main(["verify", "--trials", "60", "--seed", "2"]) == 0
    assert "60 trials, 0 mismatches" in capsys.readouterr().out


def test_tables_load_refuses_a_one_entry_edit_and_verify_takes_no_tables_option(tmp_path, capsys):
    # The h1 rook's rank entry for occupancy {h1} loses a1; save_tables writes a valid crc32.
    tables = build_attack_tables()
    tables.rank_attacks[1][1] = 0x7E
    path = str(tmp_path / "bad.bin")
    save_tables(tables, path)
    assert main(["tables", "load", path]) == 1
    assert "error: bad structure in rank_attacks: wrong attacks from h1" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--tables", path])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tables" in capsys.readouterr().err


@pytest.mark.parametrize("backend", [DirectBackend, RotatedBackend])
def test_verify_fails_when_a_search_backend_is_wrong(monkeypatch, capsys, backend):
    rook = backend.rook
    monkeypatch.setattr(backend, "rook", lambda self, context, square: rook(self, context, square) ^ 1)
    assert main(["verify", "--trials", "20", "--seed", "2"]) == 1
    captured = capsys.readouterr()
    assert "mismatch: rook" in captured.err
    assert "mismatch: bishop" not in captured.err
    assert "20 trials, 20 mismatches" in captured.out


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_without_trials_fails(capsys, trials):
    # A check that checked nothing must not report success.
    assert main(["verify", "--trials", trials]) == 1
    captured = capsys.readouterr()
    assert "trials must be >= 1" in captured.err
    assert "mismatches" not in captured.out
