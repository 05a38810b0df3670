#!/usr/bin/env python3
"""Run the whole pipeline end to end on the bundled 12-post fixture.

Artifacts land in runs/demo/: the adaptation checkpoint, five task
checkpoints, metrics, and predictions. Everything is seeded, so reruns
reproduce the same bytes on the same machine, with the same
numpy/OpenBLAS build and the same BLAS thread count. On this desk
profile the thread count changes the bytes of `tapt` and of the
`finetune --tapt on` after it; on the paper profile it changes every
stage's, scoring included (ROADMAP item 5 would lift the condition).
"""

import sys
from pathlib import Path

from hostility.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


def run(*args):
    argv = [str(a) for a in args]
    print(f"\n$ hostility {' '.join(argv)}")
    code = main(argv)
    if code != 0:
        sys.exit(code)


if __name__ == "__main__":
    out = ROOT / "runs" / "demo"
    common = [
        "--data", DATA / "tiny_posts.csv",
        "--dict", DATA / "word_freq.tsv",
        "--emoji", DATA / "emoji_300d.txt",
        "--out", out,
        "--profile", "desk",
        "--seed", "0",
        "--max-len", "32",
    ]
    run("preprocess", *common)
    run("tapt", *common, "--tapt-epochs", "5")
    run("finetune", *common, "--tapt", "on", "--epochs", "5")
    run("evaluate", *common)
    run("predict", *common)
    print(f"\nartifacts in {out}")
