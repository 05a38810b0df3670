"""Checks on the files the hostility CLI writes.

Each check returns a list of problems; an empty list means the output is
correct. The benchmark counts an operation as failed when the command
exits non-zero or a check on its output reports a problem.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

TASKS = ("coarse", "fake", "hate", "offensive", "defamation")
FINE_TAGS = ("fake", "hate", "offensive", "defamation")
# metrics.kv reports these per class and per task, in percent.
_CLASS_KEYS = ("precision", "recall", "f1")


def read_ids(csv_path: Path) -> list[str]:
    with open(csv_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return [row[0] for row in rows[1:] if row]


def check_tag_set(field: str) -> str | None:
    """None if field is a legal tag set: non-hostile alone, or one or more
    distinct fine tags in the CLI's fixed order."""
    tags = field.split("|")
    if tags == ["non-hostile"]:
        return None
    if any(t not in FINE_TAGS for t in tags):
        return f"illegal tag set {field!r}"
    if tags != sorted(set(tags), key=FINE_TAGS.index):
        return f"tags repeated or out of order in {field!r}"
    return None


def check_predictions(path: Path, ids: list[str]) -> list[str]:
    """One line per input id, in input order, each with a legal tag set."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return [f"cannot read {path.name}: {exc}"]
    problems = []
    if len(lines) != len(ids):
        problems.append(f"{path.name}: {len(lines)} lines for {len(ids)} posts")
    for n, (line, want) in enumerate(zip(lines, ids), start=1):
        post_id, sep, field = line.partition("\t")
        if not sep or post_id != want:
            problems.append(f"{path.name}: line {n} is {line!r}, expected id {want!r}")
            continue
        bad = check_tag_set(field)
        if bad:
            problems.append(f"{path.name}: line {n}: {bad}")
    return problems


def expected_kv_keys() -> set[str]:
    keys = {"weighted_fine.f1"}
    for task in TASKS:
        keys.update({f"{task}.macro_f1", f"{task}.weighted_f1"})
        for cls in ("class0", "class1"):
            keys.update(f"{task}.{cls}.{k}" for k in _CLASS_KEYS + ("support",))
    return keys


def check_metrics_kv(path: Path, n_posts: int) -> list[str]:
    """Every key present once; scores in [0, 100]; each task's two class
    supports are whole numbers that sum to the number of posts."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return [f"cannot read {path.name}: {exc}"]
    values: dict[str, float] = {}
    problems = []
    for line in lines:
        key, sep, raw = line.partition("=")
        try:
            value = float(raw)
        except ValueError:
            problems.append(f"{path.name}: bad line {line!r}")
            continue
        if not sep or key in values:
            problems.append(f"{path.name}: bad or repeated line {line!r}")
        values[key] = value
    missing = expected_kv_keys() - set(values)
    extra = set(values) - expected_kv_keys()
    if missing or extra:
        problems.append(f"{path.name}: missing {sorted(missing)}, unexpected {sorted(extra)}")
    for key, value in values.items():
        if key.endswith(".support"):
            if value != int(value) or value < 0:
                problems.append(f"{path.name}: {key}={value} is not a count")
        elif not 0 <= value <= 100:
            problems.append(f"{path.name}: {key}={value} outside [0, 100]")
    for task in TASKS:
        support = values.get(f"{task}.class0.support", 0) + values.get(f"{task}.class1.support", 0)
        if support != n_posts:
            problems.append(f"{path.name}: {task} supports sum to {support}, not {n_posts}")
    return problems


def check_trace(path: Path, f1_column: bool) -> list[str]:
    """Every loss in a per-epoch trace CSV is finite; F1 values lie in [0, 1]."""
    try:
        rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
    except OSError as exc:
        return [f"cannot read {path.name}: {exc}"]
    if len(rows) < 2:
        return [f"{path.name}: no epochs recorded"]
    problems = []
    for row in rows[1:]:
        try:
            loss = float(row[1])
            f1 = float(row[2]) if f1_column else 0.0
        except (IndexError, ValueError):
            problems.append(f"{path.name}: malformed row {row!r}")
            continue
        if not math.isfinite(loss):
            problems.append(f"{path.name}: non-finite loss in epoch {row[0]}")
        if not 0 <= f1 <= 1:
            problems.append(f"{path.name}: F1 {f1} outside [0, 1] in epoch {row[0]}")
    return problems


def best_f1(trace_path: Path) -> float:
    rows = list(csv.reader(trace_path.read_text(encoding="utf-8").splitlines()))
    return max(float(row[2]) for row in rows[1:])


def check_finetune_outputs(out: Path) -> list[str]:
    problems = []
    for task in TASKS:
        problems += check_trace(out / f"{task}_trace.csv", f1_column=True)
    return problems


def check_checkpoints_load(out: Path, names) -> list[str]:
    """Every named fusion checkpoint in out loads through
    hostility.fusion.load_model against out/vocab.txt."""
    from hostility.encoder import Vocab
    from hostility.errors import DataError
    from hostility.fusion import load_model

    try:
        vocab = Vocab.load(out / "vocab.txt")
    except (OSError, DataError) as exc:
        return [f"cannot load vocab: {exc}"]
    problems = []
    for name in names:
        try:
            load_model(out / name, vocab)
        except (OSError, ValueError, DataError) as exc:
            problems.append(f"{name} does not load: {exc}")
    return problems


def file_digests(out: Path, names=None) -> dict[str, str]:
    """sha256 of each named file in out (every regular file by default)."""
    if names is None:
        names = sorted(p.name for p in out.iterdir() if p.is_file())
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def check_same_digests(first: dict[str, str], again: dict[str, str]) -> list[str]:
    if first == again:
        return []
    differ = sorted(k for k in set(first) | set(again) if first.get(k) != again.get(k))
    return [f"artifacts differ between two runs of the same code: {differ}"]
