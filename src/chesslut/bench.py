"""Benchmark harness: time move generation per backend over a corpus.

For every corpus position the main occupancy and its three rotated boards
are precalculated once and shared, so the timed region contains nothing but
repeated full generation passes on a monotonic wall clock.  Table and map
construction, corpus parsing and report emission all happen outside it.
"""

from __future__ import annotations

import csv
import io
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

from .movegen import AttackBackend, DirectBackend, RotatedBackend, generate_pseudo_legal
from .position import FenError, Position, parse_epd_line
from .rotated import RotatedState, build_line_attack_bytes, build_rotation_maps, make_rotated_state
from .store import load_tables
from .tables import AttackTables, build_attack_tables

BACKEND_NAMES = ("direct", "rotated")
_BACKEND_TITLES = {"direct": "Direct Lookup", "rotated": "Rotated Bitboards"}


class CorpusError(ValueError):
    """Raised for unusable corpus files."""


@dataclass(frozen=True)
class BenchConfig:
    corpus_path: str | Path
    backends: tuple[str, ...] = BACKEND_NAMES
    repetitions: int = 10
    warmup: int = 2
    tables_path: str | Path | None = None
    strict: bool = False


@dataclass(frozen=True)
class BackendTiming:
    backend: str
    total_seconds: float
    mean_pass_seconds: float
    mean_position_seconds: float
    moves_per_pass: int


@dataclass(frozen=True)
class BenchReport:
    environment: str
    corpus_size: int
    repetitions: int
    timings: tuple[BackendTiming, ...]

    def timing(self, backend: str) -> BackendTiming | None:
        for entry in self.timings:
            if entry.backend == backend:
                return entry
        return None

    def ratio(self) -> float | None:
        """rotated total / direct total, when both backends were timed."""
        direct = self.timing("direct")
        rotated = self.timing("rotated")
        if direct is None or rotated is None or direct.total_seconds == 0:
            return None
        return rotated.total_seconds / direct.total_seconds


def load_corpus(
    path: str | Path, strict: bool = False, err: TextIO | None = None
) -> list[tuple[Position, str | None]]:
    """Read an EPD or FEN file, one record per line, in file order.

    Malformed lines are skipped with a warning naming the line number, or
    raise when *strict* is set.  Blank and ``#`` comment lines are ignored.
    """
    err = err if err is not None else sys.stderr
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise CorpusError(f"cannot read corpus: {exc}") from exc

    entries: list[tuple[Position, str | None]] = []
    for lineno, line in enumerate(lines, start=1):
        try:
            parsed = parse_epd_line(line)
        except FenError as exc:
            if strict:
                raise CorpusError(f"line {lineno}: {exc}") from exc
            print(f"warning: skipping line {lineno}: {exc}", file=err)
            continue
        if parsed is not None:
            entries.append(parsed)
    if not entries:
        raise CorpusError("empty corpus")
    return entries


def precompute_boards(
    corpus: list[tuple[Position, str | None]], maps
) -> list[tuple[Position, RotatedState]]:
    """Main occupancy plus the three rotated boards for every position."""
    return [(position, make_rotated_state(position.occupied(), maps)) for position, _ in corpus]


def _timed_passes(
    backend: AttackBackend, jobs: list[tuple[Position, object]], repetitions: int
) -> tuple[float, list[int]]:
    # The timed region: generation calls only.
    counts = []
    start = time.perf_counter()
    for _ in range(repetitions):
        generated = 0
        for position, context in jobs:
            generated += len(generate_pseudo_legal(position, backend, context))
        counts.append(generated)
    elapsed = time.perf_counter() - start
    return elapsed, counts


def describe_environment() -> str:
    return " ".join(
        (platform.system(), platform.release(), platform.machine(), "CPython", platform.python_version())
    )


def run_bench(config: BenchConfig, tables: AttackTables | None = None) -> BenchReport:
    if config.repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if not config.backends:
        raise ValueError("at least one backend must be selected")
    for name in config.backends:
        if name not in BACKEND_NAMES:
            raise ValueError(f"unknown backend {name!r}")

    corpus = load_corpus(config.corpus_path, strict=config.strict)
    if tables is None:
        tables = load_tables(config.tables_path) if config.tables_path else build_attack_tables()
    maps = build_rotation_maps()
    arrays = build_line_attack_bytes()
    boards = precompute_boards(corpus, maps)
    backends: dict[str, AttackBackend] = {
        "direct": DirectBackend(tables),
        "rotated": RotatedBackend(maps, arrays),
    }

    timings = []
    for name in config.backends:
        backend = backends[name]
        jobs = [(position, backend.context_from_state(state)) for position, state in boards]
        if config.warmup:
            _timed_passes(backend, jobs, config.warmup)
        elapsed, counts = _timed_passes(backend, jobs, config.repetitions)
        if len(set(counts)) != 1:
            raise RuntimeError(f"nondeterministic move counts for backend {name}: {counts}")
        timings.append(
            BackendTiming(
                backend=name,
                total_seconds=elapsed,
                mean_pass_seconds=elapsed / config.repetitions,
                mean_position_seconds=elapsed / (config.repetitions * len(corpus)),
                moves_per_pass=counts[0],
            )
        )

    move_counts = {t.moves_per_pass for t in timings}
    if len(move_counts) != 1:
        raise RuntimeError(f"backends disagree on generated moves: {sorted(move_counts)}")

    return BenchReport(describe_environment(), len(corpus), config.repetitions, tuple(timings))


_CSV_HEADER = [
    "environment",
    "corpus_size",
    "repetitions",
    "backend",
    "total_seconds",
    "mean_pass_seconds",
    "mean_position_seconds",
    "moves_per_pass",
]


def _emit_text(report: BenchReport) -> str:
    lines = [
        f"environment: {report.environment}",
        f"corpus: {report.corpus_size} positions, repetitions: {report.repetitions}",
    ]
    for t in report.timings:
        lines.append(
            f"{t.backend:>8}: total {t.total_seconds:.3f} s, "
            f"mean/pass {t.mean_pass_seconds:.4f} s, "
            f"mean/position {t.mean_position_seconds * 1e6:.1f} us, "
            f"moves/pass {t.moves_per_pass}"
        )
    ratio = report.ratio()
    if ratio is not None:
        lines.append(f"ratio rotated/direct: {ratio:.3f}")
    return "\n".join(lines) + "\n"


def _emit_csv(report: BenchReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    for t in report.timings:
        writer.writerow(
            [
                report.environment,
                report.corpus_size,
                report.repetitions,
                t.backend,
                repr(t.total_seconds),
                repr(t.mean_pass_seconds),
                repr(t.mean_position_seconds),
                t.moves_per_pass,
            ]
        )
    return buffer.getvalue()


def _emit_markdown(report: BenchReport) -> str:
    preamble = f"{report.corpus_size} positions, {report.repetitions} repetitions\n\n"
    direct = report.timing("direct")
    rotated = report.timing("rotated")
    if direct is not None and rotated is not None:
        ratio = report.ratio()
        header = (
            "| OS and CPU | Rotated Bitboards Time (s) | Direct Lookup Time (s) "
            "| Rotated/Direct | Moves per Pass |"
        )
        divider = "|---|---|---|---|---|"
        row = (
            f"| {report.environment} | {rotated.total_seconds:.2f} | {direct.total_seconds:.2f} "
            f"| {ratio:.3f} | {rotated.moves_per_pass} / {direct.moves_per_pass} |"
        )
    else:
        only = report.timings[0]
        header = f"| OS and CPU | {_BACKEND_TITLES[only.backend]} Time (s) | Moves per Pass |"
        divider = "|---|---|---|"
        row = f"| {report.environment} | {only.total_seconds:.2f} | {only.moves_per_pass} |"
    return preamble + "\n".join((header, divider, row)) + "\n"


def emit_report(report: BenchReport, output_format: str = "text") -> str:
    if output_format == "text":
        return _emit_text(report)
    if output_format == "csv":
        return _emit_csv(report)
    if output_format == "markdown":
        return _emit_markdown(report)
    raise ValueError(f"unknown report format {output_format!r}")


def parse_csv_report(text: str) -> BenchReport:
    """Inverse of the csv emitter; numeric fields round trip exactly."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != _CSV_HEADER:
        raise ValueError("unrecognized report header")
    if len(rows) < 2:
        raise ValueError("report has no data rows")
    environment = rows[1][0]
    corpus_size = int(rows[1][1])
    repetitions = int(rows[1][2])
    timings = tuple(
        BackendTiming(
            backend=row[3],
            total_seconds=float(row[4]),
            mean_pass_seconds=float(row[5]),
            mean_position_seconds=float(row[6]),
            moves_per_pass=int(row[7]),
        )
        for row in rows[1:]
    )
    return BenchReport(environment, corpus_size, repetitions, timings)
