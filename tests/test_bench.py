import re

import pytest

from chesslut.bench import (
    BenchReport,
    CorpusError,
    _timed_passes,
    describe_environment,
    emit_report,
    load_corpus,
    parse_csv_report,
    precompute_boards,
    run_bench,
)
from chesslut.corpus import generate_corpus, write_corpus
from chesslut.position import STARTING_FEN, startpos
from chesslut.rotated import make_rotated_state

GOOD_LINE = '8/8/8/8/2B5/8/8/8 w - - id "bishop";'
BAD_LINE = "this is not a position"


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory, direct_backend):
    path = tmp_path_factory.mktemp("corpus") / "small.epd"
    write_corpus(generate_corpus(count=25, seed=5, backend=direct_backend), path)
    return path


# -- corpus loading -----------------------------------------------------------


def test_load_corpus_counts_every_line(tmp_path):
    path = tmp_path / "three.epd"
    path.write_text("\n".join([GOOD_LINE, STARTING_FEN, GOOD_LINE]) + "\n")
    entries = load_corpus(path)
    assert len(entries) == 3
    assert entries[0][1] == "bishop"
    assert entries[1][0] == startpos()


def test_load_corpus_skips_bad_lines_with_warning(tmp_path, capsys):
    path = tmp_path / "mixed.epd"
    # A skip count that str.isdigit accepts but int() does not is one more bad line.
    path.write_text("\n".join([GOOD_LINE] * 9 + [BAD_LINE, "8/8/8/8/8/8/8/7\u00b2 w - -"]) + "\n")
    entries = load_corpus(path)
    assert len(entries) == 9
    err = capsys.readouterr().err
    assert "line 10" in err
    assert "warning: skipping line 11: bad skip count" in err


def test_load_corpus_strict_mode_raises(tmp_path):
    path = tmp_path / "mixed.epd"
    path.write_text(BAD_LINE + "\n" + GOOD_LINE + "\n")
    with pytest.raises(CorpusError, match="line 1"):
        load_corpus(path, strict=True)


def test_load_corpus_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.epd"
    path.write_text("")
    with pytest.raises(CorpusError, match="empty corpus"):
        load_corpus(path)
    path.write_text("# only a comment\n\n")
    with pytest.raises(CorpusError, match="empty corpus"):
        load_corpus(path)


def test_load_corpus_missing_file_rejected(tmp_path):
    with pytest.raises(CorpusError, match="cannot read"):
        load_corpus(tmp_path / "nope.epd")


def test_load_corpus_undecodable_file_rejected(tmp_path):
    path = tmp_path / "binary.epd"
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(CorpusError, match="cannot read corpus: 'utf-8' codec"):
        load_corpus(path)


def test_generate_corpus_rejects_a_count_below_one():
    with pytest.raises(ValueError, match="count must be >= 1"):
        generate_corpus(0)


def test_load_corpus_tolerates_crlf(tmp_path):
    path = tmp_path / "crlf.epd"
    path.write_bytes((GOOD_LINE + "\r\n" + STARTING_FEN + "\r\n").encode())
    assert len(load_corpus(path)) == 2


# -- precompute ---------------------------------------------------------------


def test_precompute_preserves_popcount_and_length(rotation):
    maps, _ = rotation
    corpus = [(startpos(), None)] * 3
    boards = precompute_boards(corpus, maps)
    assert len(boards) == 3
    for position, state in boards:
        assert state.occ.bit_count() == 32
        assert state.occ90.bit_count() == 32
        assert state.occ45_ne.bit_count() == 32
        assert state.occ45_nw.bit_count() == 32
        assert state == make_rotated_state(position.occupied(), maps)


# -- run_bench ----------------------------------------------------------------


def test_run_bench_reports_identical_counts(corpus_file):
    report = run_bench(corpus_file, repetitions=3, warmup=1)
    assert report.corpus_size == 25
    assert report.repetitions == 3
    direct = report.timing("direct")
    rotated = report.timing("rotated")
    assert direct is not None and rotated is not None
    assert direct.moves_per_pass == rotated.moves_per_pass > 0
    assert direct.total_seconds > 0
    assert direct.mean_pass_seconds == pytest.approx(direct.total_seconds / 3)
    assert direct.mean_position_seconds == pytest.approx(direct.total_seconds / (3 * 25))
    assert report.ratio() == pytest.approx(rotated.total_seconds / direct.total_seconds)


@pytest.mark.parametrize("backend", ["direct", "rotated"])
def test_run_bench_single_backend(corpus_file, backend):
    report = run_bench(corpus_file, backends=(backend,), repetitions=1, warmup=0)
    assert [t.backend for t in report.timings] == [backend]
    assert report.ratio() is None


def test_run_bench_direct_only_rotates_nothing(corpus_file, monkeypatch):
    # The direct backend's context is the occupancy: no rotation maps, no rotated board.
    import chesslut.bench as bench_module

    def forbidden(*args, **kwargs):
        raise AssertionError("rotation work for the direct backend")

    monkeypatch.setattr(bench_module, "build_rotation_maps", forbidden)
    monkeypatch.setattr(bench_module, "make_rotated_state", forbidden)
    report = run_bench(corpus_file, backends=("direct",), repetitions=1, warmup=0)
    assert report.timing("direct").moves_per_pass > 0


def test_run_bench_validates_config(corpus_file):
    with pytest.raises(ValueError, match="repetitions"):
        run_bench(corpus_file, repetitions=0)
    with pytest.raises(ValueError, match="warmup"):
        run_bench(corpus_file, warmup=-3)
    with pytest.raises(ValueError, match="backend"):
        run_bench(corpus_file, backends=())
    with pytest.raises(ValueError, match="unknown backend"):
        run_bench(corpus_file, backends=("magic",))


def test_timed_region_contains_no_table_construction(
    corpus_file, attack_tables, rotation, monkeypatch
):
    # Prove the timed core never touches a builder: make every builder of both
    # designs blow up, then run the timed passes with prebuilt resources.  The
    # jobs are made first, because prepare(occupied) rotates the board afresh.
    import chesslut.bench as bench_module
    import chesslut.rotated as rotated_module
    import chesslut.tables as tables_module
    from chesslut.movegen import DirectBackend, RotatedBackend

    maps, arrays = rotation
    corpus = load_corpus(corpus_file)
    runs = [
        (backend, [(position, backend.prepare(position.occupied())) for position, _ in corpus])
        for backend in (DirectBackend(attack_tables), RotatedBackend(maps, arrays))
    ]

    def forbidden(*args, **kwargs):
        raise AssertionError("table construction inside the timed region")

    for name in (
        "build_attack_tables",
        "build_rank_attacks",
        "build_file_attacks",
        "build_attack_table",
        "build_masks",
        "build_line_attack_bytes",
    ):
        monkeypatch.setattr(tables_module, name, forbidden)
    for name in ("build_rotation_maps", "make_rotated_state", "build_line_attack_bytes"):
        monkeypatch.setattr(rotated_module, name, forbidden)
    for name in ("build_attack_tables", "build_rotation_maps", "make_rotated_state", "build_line_attack_bytes"):
        monkeypatch.setattr(bench_module, name, forbidden)

    for backend, jobs in runs:
        elapsed, counts = _timed_passes(backend, jobs, 2)
        assert elapsed > 0
        assert counts[0] == counts[1] > 0


def test_run_bench_builds_tables_exactly_once(corpus_file, monkeypatch):
    import chesslut.bench as bench_module
    from chesslut.tables import build_attack_tables as real_build

    calls = []

    def counting_build():
        calls.append(1)
        return real_build()

    monkeypatch.setattr(bench_module, "build_attack_tables", counting_build)
    run_bench(corpus_file, repetitions=1, warmup=0)
    assert len(calls) == 1


def test_generation_call_count_is_reps_times_corpus(corpus_file, monkeypatch):
    import chesslut.bench as bench_module
    from chesslut.movegen import generate_pseudo_legal as real_generate

    calls = {"n": 0}

    def counting_generate(position, backend, context=None):
        calls["n"] += 1
        return real_generate(position, backend, context)

    monkeypatch.setattr(bench_module, "generate_pseudo_legal", counting_generate)
    run_bench(corpus_file, backends=("direct",), repetitions=4, warmup=0)
    assert calls["n"] == 4 * 25


def test_run_bench_refuses_move_counts_that_change_between_passes(corpus_file, monkeypatch):
    import chesslut.bench as bench_module
    from chesslut.movegen import generate_pseudo_legal as real_generate

    calls = []

    def drifting_generate(position, backend, context=None):
        # One extra move on the very first call, so only the first pass counts it.
        calls.append(position)
        return real_generate(position, backend, context) + [None] * (len(calls) == 1)

    monkeypatch.setattr(bench_module, "generate_pseudo_legal", drifting_generate)
    with pytest.raises(RuntimeError) as info:
        run_bench(corpus_file, backends=("direct",), repetitions=2, warmup=0)
    found = re.fullmatch(r"nondeterministic move counts for backend direct: \[(\d+), (\d+)\]", str(info.value))
    assert found, info.value
    first, second = map(int, found.groups())
    assert first == second + 1


def _rotated_sees_one_more_move(monkeypatch):
    import chesslut.bench as bench_module
    from chesslut.movegen import generate_pseudo_legal as real_generate

    def biased_generate(position, backend, context=None):
        moves = real_generate(position, backend, context)
        return moves + [None] if backend.name == "rotated" else moves

    monkeypatch.setattr(bench_module, "generate_pseudo_legal", biased_generate)


def test_run_bench_refuses_backends_that_disagree(corpus_file, monkeypatch):
    _rotated_sees_one_more_move(monkeypatch)
    with pytest.raises(RuntimeError) as info:
        run_bench(corpus_file, repetitions=1, warmup=0)
    found = re.fullmatch(r"backends disagree on generated moves: \[(\d+), (\d+)\]", str(info.value))
    assert found, info.value
    direct, rotated = map(int, found.groups())
    assert rotated == direct + 25  # one extra move per corpus position


def test_cli_bench_fails_when_backends_disagree(corpus_file, monkeypatch, capsys):
    from chesslut.cli import main

    _rotated_sees_one_more_move(monkeypatch)
    assert main(["bench", "--corpus", str(corpus_file), "--reps", "1", "--warmup", "0"]) == 1
    assert capsys.readouterr().err.startswith("error: backends disagree on generated moves: ")


def test_counts_stable_across_repetitions(corpus_file):
    one = run_bench(corpus_file, backends=("direct",), repetitions=1, warmup=0)
    five = run_bench(corpus_file, backends=("direct",), repetitions=5, warmup=0)
    assert one.timing("direct").moves_per_pass == five.timing("direct").moves_per_pass


def test_environment_names_the_running_interpreter(monkeypatch):
    import platform

    monkeypatch.setattr(platform, "python_implementation", lambda: "PyPy")
    assert "PyPy" in describe_environment()
    assert "CPython" not in describe_environment()


# -- report emission ----------------------------------------------------------


def sample_report():
    from chesslut.bench import BackendTiming

    return BenchReport(
        environment="TestOS 1.0 cpu0",
        corpus_size=879,
        repetitions=10,
        timings=(
            BackendTiming("direct", 6.42, 0.642, 6.42 / 8790, 31040),
            BackendTiming("rotated", 7.29, 0.729, 7.29 / 8790, 31040),
        ),
    )


def test_csv_round_trip_is_exact():
    report = sample_report()
    assert parse_csv_report(emit_report(report, "csv")) == report


def test_csv_parse_rejects_a_wrong_header_or_no_rows():
    header, *rows = emit_report(sample_report(), "csv").splitlines(keepends=True)
    with pytest.raises(ValueError, match="unrecognized report header"):
        parse_csv_report(header.replace("backend", "engine") + "".join(rows))
    with pytest.raises(ValueError, match="no data rows"):
        parse_csv_report(header)
    with pytest.raises(ValueError, match="shorter"):  # a row missing its last column
        parse_csv_report(header + rows[0].rsplit(",", 1)[0] + "\n")


@pytest.mark.parametrize("column", ["environment", "corpus_size", "repetitions", "moves_per_pass"])
def test_csv_parse_rejects_rows_that_disagree(column):
    # run_bench times every backend on one corpus, so a report's rows share these fields.
    header, first, second = emit_report(sample_report(), "csv").splitlines(keepends=True)
    fields = second.rstrip("\n").split(",")
    index = header.rstrip("\n").split(",").index(column)
    fields[index] += "0"
    with pytest.raises(ValueError, match="line 3: environment, corpus size, repetitions or moves per pass differ"):
        parse_csv_report(header + first + ",".join(fields) + "\n")


def test_csv_round_trip_on_real_run(corpus_file):
    report = run_bench(corpus_file, repetitions=1, warmup=0)
    assert parse_csv_report(emit_report(report, "csv")) == report


def test_markdown_report_shape_both_backends():
    text = emit_report(sample_report(), "markdown")
    lines = text.strip().splitlines()
    header = lines[-3]
    row = lines[-1]
    assert "Rotated Bitboards Time (s)" in header
    assert "Direct Lookup Time (s)" in header
    assert header.count("|") == row.count("|") == 6
    assert "1.136" in row  # 7.29 / 6.42 to three decimals
    assert "31040 / 31040" in row


def test_markdown_report_single_backend_omits_ratio():
    report = sample_report()
    solo = BenchReport(
        report.environment, report.corpus_size, report.repetitions, report.timings[:1]
    )
    text = emit_report(solo, "markdown")
    assert "Rotated" not in text
    assert "Direct Lookup Time (s)" in text


def test_text_report_ratio_three_decimals():
    text = emit_report(sample_report(), "text")
    assert "ratio rotated/direct: 1.136" in text


def test_unknown_format_rejected():
    with pytest.raises(ValueError, match="unknown report format"):
        emit_report(sample_report(), "xml")
