"""The backend comparison end to end: corpus, precomputed boards, timed passes.

Run:  python demos/04_benchmark.py  (a few seconds)
"""

import tempfile
from pathlib import Path

from chesslut.bench import emit_report, run_bench
from chesslut.corpus import generate_corpus, write_corpus

COUNT = 879
REPS = 10

with tempfile.TemporaryDirectory() as tmp:
    corpus_path = Path(tmp) / "corpus.epd"
    print(f"generating a deterministic {COUNT}-position corpus (seed 1)...")
    write_corpus(generate_corpus(count=COUNT, seed=1), corpus_path)

    print(f"timing {REPS} full generation passes per backend...\n")
    report = run_bench(corpus_path, repetitions=REPS, warmup=2)

    print(emit_report(report, "text"))
    print(emit_report(report, "markdown"))
