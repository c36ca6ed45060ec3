"""Direct-vs-rotated benchmark of chesslut, run from the root of a checkout.

    python3 perfbench/run.py --workload slider-queries --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists): slider-queries,
corpus-movegen, perft-suite.  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` is the separate traced run that gives the per-layer metrics.
Both print a provenance header and a table of every metric with its unit,
then, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

The full report, the generated corpus and (traced run) the spans are written
to ``perfbench_out/`` in the checkout.  The exit code is 1 when any check
fails and 2 when the program cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def format_table(result: dict, declared: list[dict], units: dict[str, str], fast_tail: int) -> str:
    env = result["env"]
    lines = [f"# {key}: {value}" for key, value in env.items()]
    lines.append(f"# checks: {result['checks']['attempted']} attempted, {result['checks']['failed']} failed")
    lines.append(
        f"# per-pass rates (work/s): fast tail = p{fast_tail} (reported) | median | slow tail = p10 | passes"
    )
    for name, row in result["passes"].items():
        lines.append(
            f"#   {name:<24} {row['fast_tail']:>14.1f} | {row['median']:>14.1f} "
            f"| {row['slow_tail']:>14.1f} | {row['passes']}"
        )
    values = result["metrics"]
    shown = [m["name"] for m in declared] + ["env.calibration_ns", "failed_ratio"]
    lines.append("# metric                        value  unit")
    for name in dict.fromkeys(shown):
        lines.append(f"#   {name:<28} {values[name]:>14.6g}  {units[name]}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    try:
        import chesslut  # the program under test, from src/
    except ImportError as exc:
        print(f"perfbench: cannot import chesslut from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(chesslut.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: chesslut was imported from {chesslut.__file__}, not from {src}", file=sys.stderr)
        return 2
    import core

    if args.workload not in core.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = core.run(args.workload, args.seed, args.seconds, trace)
    (core.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8"
    )
    checks = result["checks"]
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in declared}
    correct = checks["failed"] == 0
    print(format_table(result, declared, units, core.FAST_TAIL))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": checks["attempted"],
                "failed": checks["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
