"""Benchmark harness: time move generation per backend over a corpus.

``BACKENDS`` builds each backend by name, for this harness and the CLI.
Once the configuration is checked and the corpus read, each selected
backend builds only what it reads (the direct backend its tables, the
rotated one its rotation maps) and makes every corpus position's context
once with ``prepare``, so the timed region contains nothing but repeated
full generation passes on a monotonic wall clock.  Table and map
construction, context making, corpus parsing and report emission all
happen outside it.
"""

from __future__ import annotations

import csv
import io
import platform
import sys
import time
from dataclasses import astuple, dataclass, fields
from pathlib import Path

from .movegen import AttackBackend, DirectBackend, RotatedBackend, generate_pseudo_legal
from .position import FenError, Position, parse_epd_line
from .rotated import RotatedState, build_line_attack_bytes, build_rotation_maps, make_rotated_state
from .tables import build_attack_tables

# Each backend's builder, by name; a run calls only the ones it selects.
BACKENDS = {
    "direct": lambda: DirectBackend(build_attack_tables()),
    "rotated": lambda: RotatedBackend(build_rotation_maps(), build_line_attack_bytes()),
}
_BACKEND_TITLES = {"direct": "Direct Lookup", "rotated": "Rotated Bitboards"}


class CorpusError(ValueError):
    """Raised for unusable corpus files."""


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


def load_corpus(path: str | Path, strict: bool = False) -> list[tuple[Position, str | None]]:
    """Read an EPD or FEN file, one record per line, in file order.

    Malformed lines are skipped with a warning naming the line number, or
    raise when *strict* is set.  Blank and ``#`` comment lines are ignored.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CorpusError(f"cannot read corpus: {exc}") from exc

    entries: list[tuple[Position, str | None]] = []
    for lineno, line in enumerate(lines, start=1):
        try:
            parsed = parse_epd_line(line)
        except FenError as exc:
            if strict:
                raise CorpusError(f"line {lineno}: {exc}") from exc
            print(f"warning: skipping line {lineno}: {exc}", file=sys.stderr)
            continue
        if parsed is not None:
            entries.append(parsed)
    if not entries:
        raise CorpusError("empty corpus")
    return entries


def precompute_boards(
    corpus: list[tuple[Position, str | None]], maps
) -> list[tuple[Position, RotatedState]]:
    """Main occupancy plus the three rotated boards for every position; perfbench's input."""
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
    uname = platform.uname()
    return f"{uname.system} {uname.release} {uname.machine} {platform.python_implementation()} {platform.python_version()}"


def run_bench(
    corpus_path: str | Path,
    backends: tuple[str, ...] = tuple(BACKENDS),
    repetitions: int = 10,
    warmup: int = 2,
    strict: bool = False,
) -> BenchReport:
    """Time each selected backend over the corpus, building only what it reads.

    The settings are checked and the corpus read first; then each selected
    backend is built from ``BACKENDS``.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    if not backends:
        raise ValueError("at least one backend must be selected")
    for name in backends:
        if name not in BACKENDS:
            raise ValueError(f"unknown backend {name!r}")

    corpus = load_corpus(corpus_path, strict=strict)

    timings = []
    for name in backends:
        backend = BACKENDS[name]()
        jobs = [(position, backend.prepare(position.occupied())) for position, _ in corpus]
        if warmup:
            _timed_passes(backend, jobs, warmup)
        elapsed, counts = _timed_passes(backend, jobs, repetitions)
        if len(set(counts)) != 1:
            raise RuntimeError(f"nondeterministic move counts for backend {name}: {counts}")
        timings.append(
            BackendTiming(
                backend=name,
                total_seconds=elapsed,
                mean_pass_seconds=elapsed / repetitions,
                mean_position_seconds=elapsed / (repetitions * len(corpus)),
                moves_per_pass=counts[0],
            )
        )

    move_counts = {t.moves_per_pass for t in timings}
    if len(move_counts) != 1:
        raise RuntimeError(f"backends disagree on generated moves: {sorted(move_counts)}")

    return BenchReport(describe_environment(), len(corpus), repetitions, tuple(timings))


_CSV_HEADER = ["environment", "corpus_size", "repetitions", *(field.name for field in fields(BackendTiming))]
# One per BackendTiming field, turning its CSV text back into the value.
_CSV_CONVERTERS = (str, float, float, float, int)


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
        writer.writerow([report.environment, report.corpus_size, report.repetitions, *astuple(t)])
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


# Each report format's emitter, by name, for ``emit_report`` and the CLI.
REPORT_FORMATS = {"text": _emit_text, "csv": _emit_csv, "markdown": _emit_markdown}


def emit_report(report: BenchReport, output_format: str = "text") -> str:
    if output_format not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {output_format!r}")
    return REPORT_FORMATS[output_format](report)


def parse_csv_report(text: str) -> BenchReport:
    """Inverse of the csv emitter; numeric fields round trip exactly.

    Every row must share the first row's environment, corpus size and
    repetitions, and its moves per pass, as every report of ``run_bench`` does.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != _CSV_HEADER:
        raise ValueError("unrecognized report header")
    if len(rows) < 2:
        raise ValueError("report has no data rows")
    environment, corpus_size, repetitions = rows[1][:3]
    timings = tuple(
        BackendTiming(*(convert(value) for convert, value in zip(_CSV_CONVERTERS, row[3:], strict=True)))
        for row in rows[1:]
    )
    for lineno, (row, timing) in enumerate(zip(rows[1:], timings), start=2):
        if row[:3] != rows[1][:3] or timing.moves_per_pass != timings[0].moves_per_pass:
            raise ValueError(f"line {lineno}: environment, corpus size, repetitions or moves per pass differ from line 2")
    return BenchReport(environment, int(corpus_size), int(repetitions), timings)
