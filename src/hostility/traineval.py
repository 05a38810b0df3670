"""Dataset split, five-binary-model training, metrics, label assembly.

One coarse hostile/non-hostile model plus four fine-grained binary
models (fake, hate, offensive, defamation) share the same architecture
and training loop; checkpoint selection keeps the epoch with the best
validation macro F1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .encoder import FINETUNE_STREAM, SPLIT_STREAM
from .errors import InvariantError
from .fusion import FusionModel, forward, model_to_bytes, predict_batch
from .numeric import adam_init, cross_entropy, train_epoch
from .preprocess import FeatureBundle, LabelTag, RawPost

COARSE = "coarse"
FINE_TASKS = tuple(tag.value for tag in LabelTag if tag is not LabelTag.NON_HOSTILE)
ALL_TASKS = (COARSE,) + FINE_TASKS

# The report's rows, in order.
DISPLAY_NAMES = {
    COARSE: "Hostility (Coarse)",
    "defamation": "Defamation",
    "fake": "Fake",
    "hate": "Hate",
    "offensive": "Offensive",
}
REPORT_ORDER = tuple(DISPLAY_NAMES)
FINE_AGGREGATE_NAME = "Weighted (Fine)"

Example = tuple[FeatureBundle, int]

# The share of each coarse stratum that goes to the training split.
TRAIN_FRACTION = 0.8


@dataclass(frozen=True)
class SplitSpec:
    seed: int


def _is_hostile(post: RawPost) -> bool:
    return bool(post.labels) and post.labels != frozenset({LabelTag.NON_HOSTILE})


def split_dataset(posts: Sequence[RawPost], spec: SplitSpec) -> tuple[list[RawPost], list[RawPost]]:
    """Deterministic stratified split on the coarse label; both splits
    keep dataset order."""
    if len(posts) < 5:
        raise ValueError(f"need at least 5 posts to split, got {len(posts)}")
    rng = np.random.default_rng([spec.seed, SPLIT_STREAM])
    train_idx: list[int] = []
    for stratum in (
        [i for i, p in enumerate(posts) if _is_hostile(p)],
        [i for i, p in enumerate(posts) if not _is_hostile(p)],
    ):
        perm = rng.permutation(len(stratum))
        k = int(math.floor(TRAIN_FRACTION * len(stratum) + 0.5))
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
            targets.append(1 if LabelTag(task) in post.labels else 0)
    return targets


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
class TrainRun:
    """Per-epoch traces, the 1-based best epoch and its checkpoint blob."""

    train_loss: list[float]
    val_macro_f1: list[float]
    best_epoch: int
    best_checkpoint: bytes


def best_epoch_of(trace: Sequence[float]) -> int:
    """1-based index of the maximum; ties go to the earliest epoch."""
    if not trace:
        raise ValueError("empty trace")
    best = max(trace)
    return next(i for i, v in enumerate(trace, start=1) if v == best)


def train_binary(
    model: FusionModel,
    train: Sequence[Example],
    val: Sequence[Example],
    epochs: int,
    lr: float,
    batch_size: int,
    seed: int,
) -> TrainRun:
    """End-to-end cross-entropy training of one fusion model in place,
    one packed batch graph per encoder (see fusion.forward) and one
    optimizer step per mini-batch.

    model is the freshly drawn init_model(..., base_seed=seed); its
    task names the run. Both encoders are tuned jointly. The training
    split must contain both classes; a single-class validation split is
    tolerated (its absent class simply scores zero).
    """
    if not train or not val:
        raise ValueError("both splits must be non-empty")
    train_targets = [t for _, t in train]
    if len(set(train_targets)) < 2:
        raise ValueError(f"training split for task {model.task!r} has a single class")
    val_targets = [t for _, t in val]
    params = model.named_params()
    state = adam_init(params)
    rng = np.random.default_rng([seed, FINETUNE_STREAM])

    def batch_loss(chunk):
        logits = forward(model, [train[j][0] for j in chunk], rng)
        return cross_entropy(logits, [train_targets[j] for j in chunk])

    train_loss: list[float] = []
    val_macro_f1: list[float] = []
    best, best_epoch, best_checkpoint = -1.0, 0, b""
    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(train))
        chunks = (order[i : i + batch_size] for i in range(0, len(order), batch_size))
        train_loss.append(train_epoch(params, state, lr, chunks, batch_loss))
        val_preds = [label for label, _ in predict_batch(model, [bundle for bundle, _ in val])]
        macro = f1_scores(val_preds, val_targets).macro_f1
        val_macro_f1.append(macro)
        if macro > best:
            best, best_epoch = macro, epoch
            # Release the previous best blob first, so two model-sized blobs
            # are never alive at once.
            best_checkpoint = b""
            best_checkpoint = model_to_bytes(
                model, extra={"seed": str(seed), "best_epoch": str(epoch)}
            )
    if best_epoch != best_epoch_of(val_macro_f1):
        raise InvariantError("checkpoint selection does not match the F1 trace")
    return TrainRun(train_loss, val_macro_f1, best_epoch, best_checkpoint)


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
    chosen = {LabelTag(task) for task in FINE_TASKS if fine[task][0] == 1}
    if not chosen:
        best_task = max(FINE_TASKS, key=lambda t: fine[t][1])
        chosen = {LabelTag(best_task)}
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
    score: Callable[[str], Sequence[tuple[int, float]]], posts: Sequence[RawPost]
) -> MetricsReport:
    """Score the five tasks over the same posts, one task at a time in
    ALL_TASKS order: score(task) gives that task model's (label,
    probability) per post, and each task is scored against its own
    binary targets."""
    golds = {task: binary_targets(posts, task) for task in ALL_TASKS}
    preds = {task: [label for label, _ in score(task)] for task in ALL_TASKS}
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
