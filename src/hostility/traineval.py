"""Dataset split, five-binary-model training, metrics, label assembly.

One coarse hostile/non-hostile model plus four fine-grained binary
models (fake, hate, offensive, defamation) share the same architecture
and training loop; checkpoint selection keeps the epoch with the best
validation macro F1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .encoder import Vocab
from .errors import InvariantError
from .fusion import (
    FusionConfig,
    FusionModel,
    encode_post,
    forward,
    init_model,
    model_to_bytes,
    predict,
)
from .numeric import adam_init, cross_entropy, train_step
from .preprocess import (
    EmojiTable,
    FeatureBundle,
    FreqDict,
    LabelTag,
    RawPost,
    extract_features,
)
from .tapt import EncoderWeights

COARSE = "coarse"
FINE_TASKS = ("fake", "hate", "offensive", "defamation")
ALL_TASKS = (COARSE,) + FINE_TASKS
_FINE_TAG = {
    "fake": LabelTag.FAKE,
    "hate": LabelTag.HATE,
    "offensive": LabelTag.OFFENSIVE,
    "defamation": LabelTag.DEFAMATION,
}

REPORT_ORDER = (COARSE, "defamation", "fake", "hate", "offensive")
DISPLAY_NAMES = {
    COARSE: "Hostility (Coarse)",
    "defamation": "Defamation",
    "fake": "Fake",
    "hate": "Hate",
    "offensive": "Offensive",
}
FINE_AGGREGATE_NAME = "Weighted (Fine)"

Example = tuple[FeatureBundle, int]


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.8
    seed: int = 0


def _is_hostile(post: RawPost) -> bool:
    return bool(post.labels) and post.labels != frozenset({LabelTag.NON_HOSTILE})


def split_dataset(posts: Sequence[RawPost], spec: SplitSpec) -> tuple[list[RawPost], list[RawPost]]:
    """Deterministic stratified split on the coarse label; both splits
    keep dataset order."""
    if len(posts) < 5:
        raise ValueError(f"need at least 5 posts to split, got {len(posts)}")
    rng = np.random.default_rng([spec.seed, 3])
    train_idx: list[int] = []
    for stratum in (
        [i for i, p in enumerate(posts) if _is_hostile(p)],
        [i for i, p in enumerate(posts) if not _is_hostile(p)],
    ):
        perm = rng.permutation(len(stratum))
        k = int(math.floor(spec.train_fraction * len(stratum) + 0.5))
        train_idx.extend(stratum[j] for j in perm[:k])
    chosen = set(train_idx)
    train = [p for i, p in enumerate(posts) if i in chosen]
    val = [p for i, p in enumerate(posts) if i not in chosen]
    return train, val


def binary_targets(posts: Sequence[RawPost], task: str) -> list[int]:
    """Coarse: 1 iff the post carries any hostile tag. Fine task t: 1 iff
    t is among the tags; non-hostile posts are negatives."""
    targets = []
    for post in posts:
        if not post.labels:
            raise ValueError(f"post {post.id} has no labels")
        if task == COARSE:
            targets.append(1 if _is_hostile(post) else 0)
        else:
            targets.append(1 if _FINE_TAG[task] in post.labels else 0)
    return targets


def make_examples(
    posts: Sequence[RawPost], task: str, freq: FreqDict, table: EmojiTable
) -> list[Example]:
    targets = binary_targets(posts, task)
    return [
        (extract_features(post.text, freq, table), target)
        for post, target in zip(posts, targets)
    ]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassScores:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class TaskScores:
    neg: ClassScores
    pos: ClassScores
    macro_f1: float
    weighted_f1: float


def f1_scores(preds: Sequence[int], golds: Sequence[int]) -> TaskScores:
    """Per-class precision/recall/F1 over {0,1}, macro (unweighted mean)
    and weighted (gold-support-weighted mean) F1."""
    if len(preds) != len(golds):
        raise ValueError(f"length mismatch: {len(preds)} preds vs {len(golds)} golds")
    if not preds:
        raise ValueError("cannot score an empty prediction list")
    for value in (*preds, *golds):
        if value not in (0, 1):
            raise ValueError(f"labels must be 0 or 1, got {value!r}")
    per_class = []
    for cls in (0, 1):
        tp = sum(1 for p, g in zip(preds, golds) if p == cls and g == cls)
        pred_n = sum(1 for p in preds if p == cls)
        gold_n = sum(1 for g in golds if g == cls)
        precision = tp / pred_n if pred_n else 0.0
        recall = tp / gold_n if gold_n else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append(ClassScores(precision, recall, f1, gold_n))
    neg, pos = per_class
    macro = (neg.f1 + pos.f1) / 2
    weighted = (neg.support * neg.f1 + pos.support * pos.f1) / len(golds)
    return TaskScores(neg=neg, pos=pos, macro_f1=macro, weighted_f1=weighted)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Hyperparams:
    epochs: int = 10
    lr: float = 1e-5
    batch_size: int = 8
    seed: int = 0


@dataclass
class TrainRun:
    task: str
    epochs: int
    lr: float
    train_loss: list[float] = field(default_factory=list)
    val_macro_f1: list[float] = field(default_factory=list)
    best_epoch: int = 0
    best_val_macro_f1: float = 0.0
    best_checkpoint: bytes = b""


def best_epoch_of(trace: Sequence[float]) -> int:
    """1-based index of the maximum; ties go to the earliest epoch."""
    if not trace:
        raise ValueError("empty trace")
    best = max(trace)
    return next(i for i, v in enumerate(trace, start=1) if v == best)


def train_binary(
    config: FusionConfig,
    vocab: Vocab,
    task: str,
    train: Sequence[Example],
    val: Sequence[Example],
    tapt_weights: EncoderWeights | None = None,
    hp: Hyperparams = Hyperparams(),
) -> TrainRun:
    """End-to-end cross-entropy training of one fusion model, one padded
    batch graph and one optimizer step per mini-batch.

    Both encoders are tuned jointly. The training split must contain
    both classes; a single-class validation split is tolerated (its
    absent class simply scores zero).
    """
    if not train or not val:
        raise ValueError("both splits must be non-empty")
    train_targets = [t for _, t in train]
    if len(set(train_targets)) < 2:
        raise ValueError(f"training split for task {task!r} has a single class")
    val_targets = [t for _, t in val]
    model = init_model(config, vocab, task, tapt_weights, base_seed=hp.seed)
    encoded = [encode_post(model, bundle) for bundle, _ in train]
    val_encoded = [encode_post(model, bundle) for bundle, _ in val]
    params = model.named_params()
    state = adam_init(params)
    rng = np.random.default_rng([hp.seed, 9])
    run = TrainRun(task=task, epochs=hp.epochs, lr=hp.lr)
    best = -1.0
    for epoch in range(1, hp.epochs + 1):
        order = rng.permutation(len(train))
        loss_total = 0.0
        for start in range(0, len(order), hp.batch_size):
            chunk = order[start : start + hp.batch_size]
            logits = forward(model, [encoded[j] for j in chunk], training=True, rng=rng)
            batch_loss = cross_entropy(logits, [train_targets[j] for j in chunk])
            train_step(params, state, batch_loss, hp.lr)
            loss_total += float(batch_loss.data) * len(chunk)
        run.train_loss.append(loss_total / len(train))
        val_preds = [predict(model, post)[0] for post in val_encoded]
        macro = f1_scores(val_preds, val_targets).macro_f1
        run.val_macro_f1.append(macro)
        if macro > best:
            best = macro
            run.best_epoch = epoch
            run.best_val_macro_f1 = macro
            run.best_checkpoint = model_to_bytes(
                model, extra={"seed": str(hp.seed), "best_epoch": str(epoch)}
            )
    if run.best_epoch != best_epoch_of(run.val_macro_f1):
        raise InvariantError("checkpoint selection does not match the F1 trace")
    return run


# ---------------------------------------------------------------------------
# Multi-label assembly and suite evaluation
# ---------------------------------------------------------------------------


def assemble_labels(
    coarse: tuple[int, float], fine: Mapping[str, tuple[int, float]]
) -> set[LabelTag]:
    """Combine the five binary predictions into one tag set.

    Non-hostile is exclusive; hostile posts take every fine task
    predicted positive, falling back to the single highest-probability
    fine task so the set is never empty.
    """
    label, _ = coarse
    if label == 0:
        return {LabelTag.NON_HOSTILE}
    chosen = {_FINE_TAG[task] for task in FINE_TASKS if fine[task][0] == 1}
    if not chosen:
        best_task = max(FINE_TASKS, key=lambda t: fine[t][1])
        chosen = {_FINE_TAG[best_task]}
    return chosen


@dataclass
class MetricsReport:
    tasks: dict[str, TaskScores]
    fine_weighted_f1: float


def compute_suite_metrics(
    preds: Mapping[str, Sequence[int]], golds: Mapping[str, Sequence[int]]
) -> MetricsReport:
    tasks = {task: f1_scores(preds[task], golds[task]) for task in ALL_TASKS}
    total_support = sum(tasks[t].pos.support for t in FINE_TASKS)
    fine_weighted = (
        sum(tasks[t].pos.support * tasks[t].pos.f1 for t in FINE_TASKS) / total_support
        if total_support
        else 0.0
    )
    return MetricsReport(tasks=tasks, fine_weighted_f1=fine_weighted)


def evaluate_suite(
    models: Mapping[str, FusionModel],
    posts: Sequence[RawPost],
    bundles: Sequence[FeatureBundle],
) -> MetricsReport:
    """Score all five models over the same posts (each task sees every
    post, with that task's binary targets)."""
    preds = {
        task: [predict(models[task], bundle)[0] for bundle in bundles]
        for task in ALL_TASKS
    }
    golds = {task: binary_targets(posts, task) for task in ALL_TASKS}
    return compute_suite_metrics(preds, golds)


def render_table(report: MetricsReport) -> str:
    """Aligned table: the five tasks plus the fine weighted aggregate,
    percentage scale."""
    rows = [("Task", "Macro-F1", "Weighted-F1")]
    for task in REPORT_ORDER:
        scores = report.tasks[task]
        rows.append(
            (DISPLAY_NAMES[task], f"{100 * scores.macro_f1:.4f}", f"{100 * scores.weighted_f1:.4f}")
        )
    rows.append((FINE_AGGREGATE_NAME, "-", f"{100 * report.fine_weighted_f1:.4f}"))
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    lines = [
        f"{row[0]:<{widths[0]}}  {row[1]:>{widths[1]}}  {row[2]:>{widths[2]}}" for row in rows
    ]
    return "\n".join(lines) + "\n"


def render_kv(report: MetricsReport) -> str:
    """Machine-readable "task.metric=value" lines, 4-decimal percentages."""
    lines = []
    for task in REPORT_ORDER:
        scores = report.tasks[task]
        for cls_name, cls in (("class0", scores.neg), ("class1", scores.pos)):
            lines.append(f"{task}.{cls_name}.precision={100 * cls.precision:.4f}")
            lines.append(f"{task}.{cls_name}.recall={100 * cls.recall:.4f}")
            lines.append(f"{task}.{cls_name}.f1={100 * cls.f1:.4f}")
            lines.append(f"{task}.{cls_name}.support={cls.support}")
        lines.append(f"{task}.macro_f1={100 * scores.macro_f1:.4f}")
        lines.append(f"{task}.weighted_f1={100 * scores.weighted_f1:.4f}")
    lines.append(f"weighted_fine.f1={100 * report.fine_weighted_f1:.4f}")
    return "\n".join(lines) + "\n"
