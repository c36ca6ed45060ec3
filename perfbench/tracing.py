"""Span tracing for the traced benchmark run.

Everything here wraps the program from the outside: a backend wrapper that
implements the ``AttackBackend`` protocol around a real backend, and a
context manager that rebinds ``movegen.make_move``, ``movegen.in_check``,
``movegen.generate_pseudo_legal`` and ``Position.color_bb`` for the length
of one traced pass and restores them afterwards.  Nothing is left patched
while an untraced pass runs.

A span is (id, name, start ns, end ns, parent id).  Calls are synchronous
and single threaded, so child spans nest inside their parent and never
overlap; a span's self time is its duration minus the summed durations of
its direct children.  Per-name totals are kept for every span.  The raw
spans are kept in memory and written out when the run ends, but only the
first ``KEEP_SPANS`` of them in the order they end: a traced run can make
millions.  The file's first line says how many there were and how many
were kept.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

from chesslut import movegen
from chesslut.position import Position

KEEP_SPANS = 100_000


class SpanStat:
    """Running totals for one span name."""

    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0

    def mean_ns(self) -> float:
        return self.total_ns / self.calls if self.calls else 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, int]] = []
        self.stats: dict[str, SpanStat] = {}
        self.counts: Counter[str] = Counter()
        self._stack: list[list[int]] = []  # [span id, ns covered by children]
        self._ids = itertools.count()

    def stat(self, name: str) -> SpanStat:
        return self.stats.setdefault(name, SpanStat())

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """*fn* with a span named *name* around every call."""
        stack = self._stack
        spans = self.spans
        ids = self._ids
        stat = self.stat(name)
        clock = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [next(ids), 0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stat.calls += 1
                stat.total_ns += duration
                stat.self_ns += duration - frame[1]
                if len(spans) < KEEP_SPANS:
                    spans.append((frame[0], name, start, end, parent))

        return traced

    def write(self, path: Path) -> None:
        """A header line, then the kept spans as JSON lines: [id, name, start_ns, end_ns, parent_id]."""
        total = sum(stat.calls for stat in self.stats.values())
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"spans": total, "kept": len(self.spans)}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class TracedBackend:
    """AttackBackend wrapper: one span per hook call, named ``<layer>.<hook>``."""

    def __init__(self, inner: Any, layer: str, tracer: Tracer) -> None:
        self.name = inner.name
        self.context_from_state = inner.context_from_state
        self.prepare = tracer.wrap(f"{layer}.prepare", inner.prepare)
        self.rook = tracer.wrap(f"{layer}.rook", inner.rook)
        self.bishop = tracer.wrap(f"{layer}.bishop", inner.bishop)
        self.queen = tracer.wrap(f"{layer}.queen", inner.queen)


class Instrumentation:
    """Traced replacements for the movegen entry points and Position.color_bb."""

    def __init__(self, tracer: Tracer) -> None:
        counts = tracer.counts
        self._originals = (
            movegen.make_move,
            movegen.in_check,
            movegen.generate_pseudo_legal,
            Position.color_bb,
        )
        make_move, in_check, generate, color_bb = self._originals
        traced_generate = tracer.wrap("movegen.generate", generate)
        traced_in_check = tracer.wrap("movegen.in_check", in_check)

        def counted_generate(*args: Any, **kwargs: Any) -> list:
            moves = traced_generate(*args, **kwargs)
            counts["movegen.moves"] += len(moves)
            return moves

        def counted_in_check(*args: Any, **kwargs: Any) -> bool:
            attacked = traced_in_check(*args, **kwargs)
            counts["movegen.check_rejects"] += attacked
            return attacked

        def counted_color_bb(position: Position, color: int) -> int:
            counts["position.color_bb_calls"] += 1
            return color_bb(position, color)

        self._replacements = (
            tracer.wrap("movegen.make_move", make_move),
            counted_in_check,
            counted_generate,
            counted_color_bb,
        )

    def _bind(self, functions: tuple) -> None:
        movegen.make_move, movegen.in_check, movegen.generate_pseudo_legal, color_bb = functions
        Position.color_bb = color_bb

    @contextmanager
    def active(self) -> Iterator[None]:
        self._bind(self._replacements)
        try:
            yield
        finally:
            self._bind(self._originals)
