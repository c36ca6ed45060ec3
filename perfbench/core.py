"""Workloads, the interleaved measurement loop and the metrics it yields.

One process, one thread, one caller: every pass is a closed loop over a
fixed list of inputs.  Work is measured in *pairs*: one pass per backend
over the same item, direct first on even pairs and rotated first on odd
ones.  Each workload runs three kinds of pass, all on inputs made from the
seed outside the timed region:

* ``queries`` (L0): rook, bishop and queen on every square of a slice of
  boards, half corpus occupancies and half random boards of 2 to 32 pieces;
* ``moves`` (L1): ``generate_pseudo_legal`` over a slice of the corpus,
  with the occupancy boards precomputed by ``bench.precompute_boards``;
* ``nodes`` (L2/L3): perft of the published positions, split into the
  depth-1 perfts of the positions one ply above the leaves, a slice of
  those per pass.

A workload's own kind takes most of the time; the other two run at a
smaller share so that every end-to-end metric is measured on every
workload.  The traced run traces passes of the workload's own kind only.

On a shared 2-core VM the same pass runs up to 2x slower for seconds at a
time, from outside the program, so each throughput is read from the fast
tail of many short passes (the 99th percentile of per-pass rates), not from
their median.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import random
import resource
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from chesslut import bench, corpus, movegen, rays, rotated, store, tables
from chesslut.position import parse_fen

from tracing import Instrumentation, TracedBackend, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench_out"

BACKENDS = ("direct", "rotated")
KINDS = ("queries", "moves", "nodes")
WORKLOADS = {"slider-queries": "queries", "corpus-movegen": "moves", "perft-suite": "nodes"}

# Time shares of the kinds: the workload's own kind, then each other kind.
OWN_SHARE, OTHER_SHARE = 0.5, 0.25
# In the traced run the own kind is split between traced and untraced passes.
TRACED_SHARE = 0.3

FAST_TAIL = 99  # percentile of per-pass rates reported as the throughput

SQUARES = tuple(range(64))

# Published perft counts, depth 1 first (chessprogramming.org, Perft Results).
PERFT_POSITIONS = {
    "start": (
        "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - 0 1",
        (20, 400, 8902, 197281),
    ),
    "kiwipete": (
        "r3k2r/p1ppqpb1/bn2pnp1/3PN3/1p2P3/2N2Q1p/PPPBBPPP/R3K2R w KQkq - 0 1",
        (48, 2039, 97862),
    ),
    "pos3": ("8/2p5/3p4/KP5r/1R3p1k/8/4P1P1/8 w - - 0 1", (14, 191, 2812, 43238)),
    "pos4": (
        "r3k2r/Pppp1ppp/1b3nbN/nP6/BBP1P3/q4N2/Pp1P2PP/R2Q1RK1 w kq - 0 1",
        (6, 264, 9467),
    ),
    "pos5": ("rnbq1k1r/pp1Pbppp/2p5/8/2B5/8/PPP1NnPP/RNBQK2R w KQ - 1 8", (44, 1486, 62379)),
    "pos6": (
        "r4rk1/1pp1qppp/p1np1n2/2b1p1B1/2B1P1b1/P1NP1N2/1PP1QPPP/R4RK1 w - - 0 10",
        (46, 2079, 89890),
    ),
}


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark, smaller ones the smoke test."""

    corpus: int = corpus.DEFAULT_COUNT
    query_slices: int = 256
    move_slices: int = 64
    perft_slices: int = 128
    # Depths reach castling through check, promotions and en passant.
    perft_depths: tuple[tuple[str, int], ...] = (
        ("start", 3),
        ("kiwipete", 2),
        ("pos3", 3),
        ("pos4", 2),
        ("pos5", 2),
        ("pos6", 2),
    )
    oracle_samples: int = 2000
    setup_builds: int = 13
    layer_builds: int = 5


@dataclass
class Stream:
    """Pairs of one kind of pass, traced or not, cycling over fixed items."""

    kind: str
    traced: bool
    share: float
    items: dict[str, list]  # backend name -> per-item pass input
    run: dict[str, Callable[[Any], Any]]  # backend name -> pass function
    spent: float = 0.0
    pairs: int = 0
    rates: dict[str, list[float]] = field(default_factory=lambda: {b: [] for b in BACKENDS})
    ratios: list[float] = field(default_factory=list)

    @property
    def n_items(self) -> int:
        return len(self.items["direct"])

    def cycle_done(self) -> bool:
        """At least one pass per item, and traced streams stop on a cycle boundary."""
        if self.pairs < self.n_items:
            return False
        return not self.traced or self.pairs % self.n_items == 0


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    expected: dict = field(default_factory=dict)

    def same_as_first(self, key: Any, result: Any) -> None:
        """Every pass over an item must reproduce the first pass, on either backend."""
        self.record(self.expected.setdefault(key, result) == result)

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def build_setup() -> tuple[Any, Any, Any]:
    """The cold start before the first query: both backends' tables."""
    return tables.build_attack_tables(), rotated.build_rotation_maps(), rotated.build_line_attack_bytes()


def timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def calibration_ns() -> int:
    """A fixed pure-Python loop; a slowed machine shows as a larger value."""
    start = time.perf_counter_ns()
    x = 0
    for i in range(500):
        x = (x * 31 + i) & 0xFFFFFFFF
    return time.perf_counter_ns() - start


def fast_tail(rates: list[float]) -> float:
    if len(rates) < 2:
        return rates[0]
    return statistics.quantiles(rates, n=100, method="inclusive")[FAST_TAIL - 1]


def rate_summary(rates: list[float]) -> dict[str, float]:
    """The reported fast tail beside the median and the slow tail (the p90 pass time)."""
    slow = statistics.quantiles(rates, n=10, method="inclusive")[0] if len(rates) > 1 else rates[0]
    return {
        "fast_tail": fast_tail(rates),
        "median": statistics.median(rates),
        "slow_tail": slow,
        "passes": len(rates),
    }


def random_boards(count: int, seed: int) -> list[int]:
    """Boards of 2 to 32 pieces on random squares, the piece counts a chess position can have."""
    rng = random.Random(f"perfbench-boards-{seed}")
    boards = []
    for _ in range(count):
        occ = 0
        for sq in rng.sample(SQUARES, rng.randint(2, 32)):
            occ |= 1 << sq
        boards.append(occ)
    return boards


# Pass functions.  Module attributes are looked up on every pass so that the
# traced run's rebinding of movegen takes effect.


def query_pass(backend: Any, contexts: list) -> int:
    rook, bishop, queen = backend.rook, backend.bishop, backend.queen
    checksum = 0
    for context in contexts:
        for sq in SQUARES:
            checksum += rook(context, sq) + bishop(context, sq) + queen(context, sq)
    return checksum


def movegen_pass(backend: Any, jobs: list) -> int:
    generate = movegen.generate_pseudo_legal
    moves = 0
    for position, context in jobs:
        moves += len(generate(position, backend, context))
    return moves


def perft_pass(backend: Any, jobs: list) -> tuple[int, ...]:
    perft = movegen.perft
    return tuple(perft(position, depth, backend) for position, depth in jobs)


def perft_frontier(position: Any, depth: int, backend: Any) -> list:
    """Positions one ply above the leaves: their depth-1 perfts sum to perft(position, depth)."""
    if depth <= 1:
        return [position]
    return [
        leaf
        for move in movegen.generate_legal(position, backend)
        for leaf in perft_frontier(movegen.make_move(position, move), depth - 1, backend)
    ]


PASSES = {"queries": query_pass, "moves": movegen_pass, "nodes": perft_pass}


def pass_work(kind: str, item: list, result: Any) -> int:
    if kind == "queries":
        return 3 * len(SQUARES) * len(item)
    if kind == "moves":
        return result
    return sum(result)


class Bench:
    """Inputs, backends and results of one run of one workload."""

    def __init__(self, workload: str, seed: int, sizes: Sizes, published: dict, setup_builds: int) -> None:
        self.workload = workload
        self.own_kind = WORKLOADS[workload]
        self.seed = seed
        self.sizes = sizes
        self.published = published
        self.checks = Checks()
        self.layers: dict[str, float] = {}
        self.setup_times: list[float] = []
        self.calibration: list[int] = []
        OUT_DIR.mkdir(exist_ok=True)
        self.stem = f"{workload}-seed{seed}"

        # The set-up is repeated back to back before any input exists, and each
        # build is dropped before the next starts, so that only one table set
        # is ever live and peak_rss_mb counts the program's tables once.
        for _ in range(setup_builds):
            built = None
            elapsed, built = timed(build_setup)
            self.setup_times.append(elapsed)
        self.tables, self.maps, self.arrays = built
        self.backends = {
            "direct": movegen.DirectBackend(self.tables),
            "rotated": movegen.RotatedBackend(self.maps, self.arrays),
        }
        self._make_inputs()

    # -- inputs --------------------------------------------------------------

    def _make_inputs(self) -> None:
        sizes = self.sizes
        direct = self.backends["direct"]
        generate_s, entries = timed(lambda: corpus.generate_corpus(sizes.corpus, seed=self.seed, backend=direct))
        self.layers["corpus.generate_s"] = generate_s
        epd = OUT_DIR / f"{self.stem}.epd"
        corpus.write_corpus(entries, epd)
        self.corpus_sha256 = hashlib.sha256(epd.read_bytes()).hexdigest()
        load_s, records = timed(lambda: bench.load_corpus(epd, strict=True))
        self.layers["position.parse_us"] = load_s / len(records) * 1e6
        self.checks.record(len(records) == sizes.corpus)
        precompute_s, boards = timed(lambda: bench.precompute_boards(records, self.maps))
        self.layers["bench.precompute_ns"] = precompute_s / len(boards) * 1e9

        # Slices are dealt from inputs sorted by occupancy, so every slice spans
        # the same range of densities and passes over different slices cost alike.
        by_density = sorted(boards, key=lambda entry: entry[1].occ.bit_count())
        corpus_states = [state for _, state in by_density]
        random_states = sorted(
            (rotated.make_rotated_state(occ, self.maps) for occ in random_boards(len(boards), self.seed)),
            key=lambda state: state.occ.bit_count(),
        )
        self.slider_states = corpus_states + random_states
        n = sizes.query_slices
        mixed = [corpus_states[i::n] + random_states[i::n] for i in range(n)]

        # Perft items: every published root split into depth-1 perfts of
        # similar size, so that slices mixing the roots cost alike per node.
        items = []
        for name, depth in sizes.perft_depths:
            root = parse_fen(self.published[name][0])
            items += [(name, position, 1) for position in perft_frontier(root, depth, direct)]
        m = sizes.perft_slices
        self.perft_slices = [items[i::m] for i in range(m)]

        self.inputs: dict[str, dict[str, list]] = {kind: {} for kind in KINDS}
        for name, backend in self.backends.items():
            context = backend.context_from_state
            self.inputs["queries"][name] = [[context(s) for s in chunk] for chunk in mixed]
            jobs = [(position, context(state)) for position, state in by_density]
            self.inputs["moves"][name] = [jobs[i :: sizes.move_slices] for i in range(sizes.move_slices)]
            self.inputs["nodes"][name] = [
                [(position, depth) for _, position, depth in chunk] for chunk in self.perft_slices
            ]

    # -- checks outside the timed region ------------------------------------

    def oracle_check(self) -> None:
        """A seeded sample of slider queries against the naive ray walker."""
        rng = random.Random(f"perfbench-oracle-{self.seed}")
        oracle = {"rook": rays.rook_rays, "bishop": rays.bishop_rays, "queen": rays.queen_rays}
        mismatches = 0
        checks = 0
        for _ in range(self.sizes.oracle_samples):
            state = rng.choice(self.slider_states)
            sq = rng.randrange(64)
            piece = rng.choice(tuple(oracle))
            want = oracle[piece](state.occ, sq)
            for backend in self.backends.values():
                got = getattr(backend, piece)(backend.context_from_state(state), sq)
                checks += 1
                mismatches += got != want
                self.checks.record(got == want)
        self.layers["rays.checks"] = checks
        self.layers["rays.mismatches"] = mismatches

    def published_check(self) -> None:
        """Per-root sums of the first perft results against the published counts."""
        totals: dict[str, int] = {}
        for index, chunk in enumerate(self.perft_slices):
            for (name, _, _), count in zip(chunk, self.checks.expected[("nodes", index)]):
                totals[name] = totals.get(name, 0) + count
        for name, depth in self.sizes.perft_depths:
            self.checks.record(totals.get(name) == self.published[name][1][depth - 1])

    # -- the measurement loop -----------------------------------------------

    def _streams(self, trace: bool) -> list[Stream]:
        def plain(kind: str, share: float) -> Stream:
            fn = PASSES[kind]
            run = {name: (lambda item, b=backend: fn(b, item)) for name, backend in self.backends.items()}
            return Stream(kind, False, share, self.inputs[kind], run)

        own_share = OWN_SHARE - (TRACED_SHARE if trace else 0.0)
        streams = [plain(k, own_share if k == self.own_kind else OTHER_SHARE) for k in KINDS]
        if trace:
            streams.append(self._traced_stream())
        return streams

    def _traced_stream(self) -> Stream:
        tracer = Tracer()
        self.tracer = tracer
        instrumentation = Instrumentation(tracer)
        kind = self.own_kind
        fn = PASSES[kind]
        run = {}
        for name, backend in self.backends.items():
            layer = "tables" if name == "direct" else "rotated"
            wrapped = TracedBackend(backend, layer, tracer)
            traced_fn = tracer.wrap(f"pass.{name}", lambda item, b=wrapped: fn(b, item))

            def run_traced(item: list, call: Callable = traced_fn) -> Any:
                with instrumentation.active():
                    return call(item)

            run[name] = run_traced
        return Stream(kind, True, TRACED_SHARE, self.inputs[kind], run)

    def _pair(self, stream: Stream) -> None:
        index = stream.pairs % stream.n_items
        order = BACKENDS if stream.pairs % 2 == 0 else BACKENDS[::-1]
        times = {}
        for name in order:
            item = stream.items[name][index]
            run = stream.run[name]
            start = time.perf_counter()
            result = run(item)
            elapsed = time.perf_counter() - start
            times[name] = elapsed
            stream.rates[name].append(pass_work(stream.kind, item, result) / elapsed)
            self.checks.same_as_first((stream.kind, index), result)
        stream.spent += times["direct"] + times["rotated"]
        stream.ratios.append(times["rotated"] / times["direct"])
        stream.pairs += 1

    def measure(self, seconds: float, trace: bool) -> list[Stream]:
        """Interleave pairs of every stream for *seconds*, each at its time share."""
        streams = self._streams(trace)
        deadline = time.perf_counter() + seconds
        while True:
            now = time.perf_counter()
            pending = streams if now < deadline else [s for s in streams if not s.cycle_done()]
            if not pending:
                break
            stream = min(pending, key=lambda s: s.spent / s.share)
            self._pair(stream)
            self.calibration.append(calibration_ns())
        self.published_check()
        return streams

    # -- metrics --------------------------------------------------------------

    def end_to_end(self, streams: list[Stream]) -> dict[str, float]:
        metrics = {"setup_s": statistics.median(self.setup_times)}
        for stream in streams:
            for name in BACKENDS:
                metrics[f"{name}.{stream.kind}_per_s"] = fast_tail(stream.rates[name])
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return metrics

    def setup_layers(self) -> None:
        """Per-layer set-up costs, measured outside the loop in the traced run."""
        builds = self.sizes.layer_builds
        self.layers["tables.build_s"] = statistics.median(
            timed(tables.build_attack_tables)[0] for _ in range(builds)
        )
        self.layers["rotated.build_s"] = statistics.median(
            timed(lambda: (rotated.build_rotation_maps(), rotated.build_line_attack_bytes()))[0]
            for _ in range(builds)
        )
        tracemalloc.start()
        try:
            tables.build_attack_tables()
            self.layers["tables.alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

        path = OUT_DIR / f"{self.stem}-tables.bin"
        self.layers["store.save_s"] = statistics.median(
            timed(lambda: store.save_tables(self.tables, path))[0] for _ in range(3)
        )
        self.layers["store.bytes"] = path.stat().st_size
        load_times = []
        for _ in range(3):
            elapsed, loaded = timed(lambda: store.load_tables(path))
            load_times.append(elapsed)
            self.checks.record(loaded == self.tables)
        self.layers["store.load_s"] = statistics.median(load_times)

    def per_layer(self, streams: list[Stream]) -> dict[str, float]:
        metrics = dict(self.layers)
        plain = {s.kind: s for s in streams if not s.traced}
        traced = next(s for s in streams if s.traced)
        for kind in KINDS:
            metrics[f"ratio.{kind}"] = statistics.median(plain[kind].ratios)
        own = plain[self.own_kind]
        metrics["trace.overhead"] = math.sqrt(
            math.prod(fast_tail(traced.rates[b]) / fast_tail(own.rates[b]) for b in BACKENDS)
        )

        counts = self.tracer.counts
        cycles = traced.pairs / traced.n_items  # whole cycles, per backend
        passes = 2 * cycles  # both backends run every movegen hook

        for layer, backend in (("tables", "direct"), ("rotated", "rotated")):
            query_self = 0
            queries = 0
            for piece in ("rook", "bishop", "queen"):
                stat = self.tracer.stat(f"{layer}.{piece}")
                metrics[f"{layer}.{piece}_ns"] = stat.mean_ns()
                query_self += stat.self_ns
                queries += stat.calls
            metrics[f"{layer}.queries"] = queries / cycles
            pass_ns = self.tracer.stat(f"pass.{backend}").total_ns
            metrics[f"{layer}.self_share"] = query_self / pass_ns
        prepare = self.tracer.stat("rotated.prepare")
        metrics["rotated.prepare_ns"] = prepare.mean_ns()
        metrics["rotated.prepare_calls"] = prepare.calls / cycles

        generate = self.tracer.stat("movegen.generate")
        make_move = self.tracer.stat("movegen.make_move")
        in_check = self.tracer.stat("movegen.in_check")
        metrics["movegen.generate_calls"] = generate.calls / passes
        metrics["movegen.generate_self_ns"] = generate.self_ns / generate.calls if generate.calls else 0.0
        metrics["movegen.moves"] = counts["movegen.moves"] / passes
        metrics["movegen.make_move_calls"] = make_move.calls / passes
        metrics["movegen.make_move_ns"] = make_move.mean_ns()
        metrics["movegen.in_check_calls"] = in_check.calls / passes
        metrics["movegen.in_check_ns"] = in_check.mean_ns()
        metrics["movegen.check_reject_ratio"] = (
            counts["movegen.check_rejects"] / in_check.calls if in_check.calls else 0.0
        )
        metrics["position.color_bb_calls"] = counts["position.color_bb_calls"] / passes
        return metrics

    def common_layers(self) -> dict[str, float]:
        return {
            "env.calibration_ns": statistics.median(self.calibration),
            "failed_ratio": self.checks.failed / self.checks.attempted,
        }


def git_revision(root: Path) -> str:
    """The checked-out commit, read from .git without running git; 'unknown' outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def source_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "chesslut").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(bench_run: Bench, trace: bool) -> dict[str, Any]:
    return {
        "workload": bench_run.workload,
        "seed": bench_run.seed,
        "trace": trace,
        "git_rev": git_revision(ROOT),
        "src_sha256": source_sha256(ROOT),
        "corpus_sha256": bench_run.corpus_sha256,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
    }


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes: Sizes = Sizes(),
    published: dict = PERFT_POSITIONS,
) -> dict[str, Any]:
    """One run: inputs, checks, the interleaved loop and every metric it yields."""
    bench_run = Bench(workload, seed, sizes, published, setup_builds=1 if trace else sizes.setup_builds)
    bench_run.oracle_check()
    if trace:
        bench_run.setup_layers()
    streams = bench_run.measure(seconds, trace)
    metrics = bench_run.per_layer(streams) if trace else bench_run.end_to_end(streams)
    metrics.update(bench_run.common_layers())
    if trace:
        bench_run.tracer.write(OUT_DIR / f"{bench_run.stem}-spans.jsonl")
    passes = {
        f"{'traced.' if s.traced else ''}{s.kind}.{b}": rate_summary(s.rates[b])
        for s in streams
        for b in BACKENDS
    }
    return {
        "env": environment(bench_run, trace),
        "checks": {"attempted": bench_run.checks.attempted, "failed": bench_run.checks.failed},
        "metrics": metrics,
        "passes": passes,
        "setup_times": bench_run.setup_times,
    }

