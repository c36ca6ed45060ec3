"""Smoke test of the benchmark itself at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric BENCHMARK.json declares is emitted, that a wrong
expected perft count shows up as a failure, and that the benchmark refuses
to run, without printing a result, when the program's sources are missing.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import core  # noqa: E402

TINY = core.Sizes(
    corpus=12,
    query_slices=2,
    move_slices=2,
    perft_slices=2,
    perft_depths=(("kiwipete", 1), ("pos4", 2)),
    oracle_samples=50,
    setup_builds=2,
    layer_builds=1,
)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", sorted(core.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_is_emitted(workload, trace):
    result = core.run(workload, seed=3, seconds=0.05, trace=trace, sizes=TINY)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    for metric in declared:
        assert metric["name"] in metrics, metric["name"]
        assert math.isfinite(metrics[metric["name"]]), metric["name"]
    assert result["checks"]["failed"] == 0
    assert metrics["failed_ratio"] == 0
    if not trace:
        assert all(metrics[m["name"]] > 0 for m in declared)


def test_movegen_workload_trace_has_no_make_move_or_upkeep():
    metrics = core.run("corpus-movegen", seed=3, seconds=0.05, trace=True, sizes=TINY)["metrics"]
    assert metrics["movegen.make_move_calls"] == 0
    assert metrics["rotated.prepare_calls"] == 0
    assert metrics["movegen.generate_calls"] == TINY.corpus


def test_wrong_expected_count_is_a_failure():
    published = dict(core.PERFT_POSITIONS)
    fen, counts = published["pos4"]
    published["pos4"] = (fen, (counts[0], counts[1] + 1, *counts[2:]))
    result = core.run("perft-suite", seed=3, seconds=0.05, trace=False, sizes=TINY, published=published)
    assert result["checks"]["failed"] == 1
    assert result["metrics"]["failed_ratio"] == 1 / result["checks"]["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    # No PYTHONPATH, so that no chesslut outside the copy can be imported.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "slider-queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
