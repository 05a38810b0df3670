#!/usr/bin/env python3
"""Check that two checkouts of this repository write the same bytes.

    python scripts/same_bytes.py BASE CHANGE

Each argument is a checkout. The five stages (`preprocess`, `tapt
--tapt-epochs 2`, `finetune --tapt on --epochs 2`, `evaluate`,
`predict`) run with `--seed 3 --max-len 32` from each tree's own `src/`,
on one BLAS thread, over two inputs: the `tests/data` fixture and 300
`mixed` posts from `perfbench/workload_gen.py`, each with three flag
sets, plus one `--profile paper` run on the fixture with the default
flags, which reaches the 768-d shared layers and 12-head attention at
the paper's shapes (per tree on a 2-vCPU VM: about 26 s, 0.6 GB peak
RSS and 0.8 GB of artifacts). A run matches when
both trees write the same files with the same sha256 and each stage
prints the same stdout, with the output directory masked. One line is
printed per run; the exit code is 1 if any run differs or any stage
exits non-zero. `python scripts/same_bytes.py . .` checks that reruns
are byte-identical.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workload_gen import write_inputs  # noqa: E402

FLAG_SETS = {
    "defaults": [],
    "tapt-corpus-all-no-clean-dup": ["--tapt-corpus", "all", "--no-clean-dup"],
    "fine-scope-hostile": ["--fine-scope", "hostile"],
}
STAGES = [
    ["preprocess"],
    ["tapt", "--tapt-epochs", "2"],
    ["finetune", "--tapt", "on", "--epochs", "2"],
    ["evaluate"],
    ["predict"],
]
# The one run outside the product of inputs and flag sets: (name, input, flags).
PAPER_RUN = ("fixture-paper", "fixture", ["--profile", "paper"])
ONE_BLAS_THREAD = {
    name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}


def inputs(scratch: Path) -> dict[str, list[str]]:
    """The --data, --dict and --emoji flags of each input."""
    fixture = ROOT / "tests" / "data"
    mixed = scratch / "mixed300"
    write_inputs(mixed, "mixed", 300, 7)
    return {
        "fixture": [
            "--data", fixture / "tiny_posts.csv",
            "--dict", fixture / "word_freq.tsv",
            "--emoji", fixture / "emoji_300d.txt",
        ],
        "mixed300": [
            "--data", mixed / "posts.csv",
            "--dict", mixed / "freq.tsv",
            "--emoji", mixed / "emoji.txt",
        ],
    }


def run_tree(tree: Path, out: Path, args: list) -> tuple[dict[str, str], list[str], str | None]:
    """(sha256 per artifact, masked stdout per stage, the first failure)."""
    env = {**os.environ, **ONE_BLAS_THREAD, "PYTHONPATH": str(tree / "src")}
    common = [*args, "--out", out, "--seed", "3", "--max-len", "32"]
    stdouts = []
    for stage in STAGES:
        proc = subprocess.run(
            [sys.executable, "-m", "hostility", *stage, *map(str, common)],
            env=env,
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            return {}, stdouts, f"{stage[0]} exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
        stdouts.append(proc.stdout.replace(str(out), "<out>"))
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(out.iterdir())
    }
    return digests, stdouts, None


def compare(base: Path, change: Path, scratch: Path, name: str, args: list) -> tuple[bool, str]:
    """Whether the two trees' runs match, and a one-line account."""
    sides = {"base": base, "change": change}
    runs = {side: run_tree(tree, scratch / side / name, args) for side, tree in sides.items()}
    failures = [f"{side}: {failure}" for side, (_, _, failure) in runs.items() if failure]
    if failures:
        return False, "; ".join(failures)
    (base_digests, base_stdouts, _), (change_digests, change_stdouts, _) = runs.values()
    differences = [
        file
        for file in sorted(base_digests.keys() | change_digests.keys())
        if base_digests.get(file) != change_digests.get(file)
    ]
    differences += [
        f"{stage[0]} stdout"
        for stage, a, b in zip(STAGES, base_stdouts, change_stdouts)
        if a != b
    ]
    if differences:
        return False, "differ: " + ", ".join(differences)
    return True, f"same: {len(base_digests)} artifacts and {len(STAGES)} stdouts"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: same_bytes.py BASE CHANGE", file=sys.stderr)
        return 2
    base, change = (Path(arg).resolve() for arg in argv)
    all_same = True
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        args = inputs(scratch)
        runs = [
            (f"{input_name}-{flag_name}", [*input_args, *flags])
            for input_name, input_args in args.items()
            for flag_name, flags in FLAG_SETS.items()
        ]
        name, input_name, flags = PAPER_RUN
        runs.append((name, [*args[input_name], *flags]))
        for name, run_args in runs:
            same, account = compare(base, change, scratch, name, run_args)
            all_same &= same
            print(f"{name}: {account}", flush=True)
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
