"""Command-line pipeline: preprocess | tapt | finetune | evaluate | predict.

Configuration comes from profile defaults, an optional key=value config
file, and flags (flags win). All randomness derives from one base seed,
recorded into every artifact's metadata, so reruns are byte-identical
on the same machine, with the same numpy/OpenBLAS build and the same
BLAS thread count. The thread count changes the bytes of `tapt` and of
`finetune --tapt on` on the desk profile, and of every stage, scoring
included, on the paper profile (see ROADMAP item 5).

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import Callable, Sequence

from .checkpoint import read_metadata
from .encoder import MAX_LEN, EncoderConfig, Vocab, desk_config, paper_config
from .errors import DataError, InvariantError, UsageError
from .fusion import (
    EMOJI_DIM,
    FusionConfig,
    fusion_config_from_meta,
    init_model,
    load_model,
    model_to_bytes,
    predict_batch,
)
from .preprocess import (
    EmojiTable,
    FreqDict,
    LabelTag,
    RawPost,
    extract_features,
    load_dataset,
    load_emoji_table,
    load_freq_dict,
)
from .tapt import (
    TaptCorpus,
    build_tapt_corpus,
    dump_corpus,
    encoder_checkpoint_bytes,
    load_encoder_checkpoint,
    run_tapt,
)
from .traineval import (
    ALL_TASKS,
    COARSE,
    FINE_TASKS,
    SplitSpec,
    assemble_labels,
    binary_targets,
    evaluate_suite,
    render_kv,
    render_table,
    split_dataset,
    train_binary,
)

# Fine-tuning settings per profile, used where no flag or config key sets
# them; the encoder sizes come from `desk_config` and `paper_config`.
PROFILES = {
    "desk": {"lr": 1e-3, "batch_size": 8},
    "paper": {"lr": 1e-5, "batch_size": 16},
}

# The largest --max-len: the position table size of IndicBERT, the
# paper's encoder.
MAX_LEN_LIMIT = 512


def _parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{path}: line {ln}: expected key=value")
        values[key.strip()] = value.strip()
    return values


def _config_tokens(path: str, args: argparse.Namespace) -> list[str]:
    """The config file as flag tokens. A key is a flag's destination name,
    which argparse derives from `--flag-name` as `flag_name`. A value
    becomes `--flag-name=value`, so it parses as the flag's would; a
    switch's true or false spelling becomes the bare flag or nothing."""
    known = set(vars(args)) - {"command", "config"}
    tokens = []
    for key, raw in _parse_config_file(path).items():
        if key not in known:
            raise UsageError(f"unknown config key {key!r}")
        flag = "--" + key.replace("_", "-")
        if not isinstance(getattr(args, key), bool):
            tokens.append(f"{flag}={raw}")
        elif raw.lower() in ("true", "1", "yes"):
            tokens.append(flag)
        elif raw.lower() not in ("false", "0", "no"):
            raise UsageError(f"config key {key!r} has invalid value {raw!r}")
    return tokens


def _validate(cfg: argparse.Namespace) -> None:
    if cfg.seed < 0:
        raise UsageError("seed must be >= 0")
    if cfg.epochs < 1 or cfg.tapt_epochs < 1:
        raise UsageError("epochs must be >= 1")
    if not all(math.isfinite(lr) and lr > 0 for lr in (cfg.lr, cfg.tapt_lr)):
        raise UsageError("learning rate must be finite and > 0")
    if cfg.batch_size < 1:
        raise UsageError("batch size must be >= 1")
    if not 4 <= cfg.max_len <= MAX_LEN_LIMIT:
        raise UsageError(f"max_len must be between 4 and {MAX_LEN_LIMIT}")
    if cfg.data is None:
        raise UsageError("--data is required")
    if cfg.out is None:
        raise UsageError("--out is required")


def resolve_config(argv: Sequence[str] | None) -> argparse.Namespace:
    """Parse argv, with the config file's tokens (if --config names one)
    placed before the command-line flags so that flags win; then fill the
    unset optimizer settings from the profile and validate."""
    parser = build_parser()
    cfg = parser.parse_args(argv)
    if cfg.config:
        argv = list(sys.argv[1:] if argv is None else argv)
        at = argv.index(cfg.command) + 1
        cfg = parser.parse_args(argv[:at] + _config_tokens(cfg.config, cfg) + argv[at:])
    for key, value in PROFILES[cfg.profile].items():
        if getattr(cfg, key) is None:
            setattr(cfg, key, value)
    _validate(cfg)
    return cfg


# ---------------------------------------------------------------------------
# Shared pipeline pieces
# ---------------------------------------------------------------------------


def _load_aux(
    cfg: argparse.Namespace, emoji_dim: int = EMOJI_DIM
) -> tuple[FreqDict, EmojiTable]:
    freq = load_freq_dict(cfg.dict) if cfg.dict else FreqDict.empty()
    table = load_emoji_table(cfg.emoji) if cfg.emoji else EmojiTable(dim=emoji_dim, entries={})
    return freq, table


def _corpus_and_vocab(cfg: argparse.Namespace, posts, train, features) -> tuple[TaptCorpus, Vocab]:
    """The TAPT corpus of the --tapt-corpus posts (train or all, in dataset
    order) and the vocab of its lines and each of its posts' hashtag flow,
    so both encoders mostly see in-vocab tokens. tapt and finetune both
    call this, so finetune --tapt on meets the vocab TAPT trained with.
    features(post) gives a post's FeatureBundle."""
    pairs = [(p, features(p)) for p in (train if cfg.tapt_corpus == "train" else posts)]
    corpus = build_tapt_corpus(pairs, include_cleaned=not cfg.no_clean_dup)
    return corpus, Vocab.build(corpus.lines + [bundle.hashtag_flow for _, bundle in pairs])


def _encoder_config(cfg: argparse.Namespace, vocab_size: int) -> EncoderConfig:
    make = desk_config if cfg.profile == "desk" else paper_config
    return make(vocab_size, max_len=cfg.max_len)


def _write_artifact(path: Path, data: bytes | str | Callable[[Path], None]) -> None:
    """Write an artifact to a temp file beside path, then rename it into
    place, so a crash mid-write leaves the previous file whole. data is
    the content (str as UTF-8) or a function that writes a given path.
    The directory is made here, so only a command that writes has one."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        if isinstance(data, bytes):
            tmp.write_bytes(data)
        elif isinstance(data, str):
            tmp.write_text(data, encoding="utf-8")
        else:
            data(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _label_histogram(posts: Sequence[RawPost]) -> dict[str, int]:
    counts = {tag.value: 0 for tag in LabelTag}
    for post in posts:
        for tag in post.labels:
            counts[tag.value] += 1
    return counts


def _run_meta(cfg: argparse.Namespace) -> dict[str, str]:
    return {"seed": str(cfg.seed), "profile": cfg.profile}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_preprocess(cfg: argparse.Namespace) -> int:
    posts = load_dataset(cfg.data)
    freq, table = _load_aux(cfg)
    out = Path(cfg.out)
    histogram = _label_histogram(posts)
    hist_line = " ".join(f"{tag.value}={histogram[tag.value]}" for tag in LabelTag)
    lines = ["id\tcleaned_text\thashtag_flow\temoji_count"]
    for post in posts:
        bundle = extract_features(post.text, freq, table)
        lines.append(
            f"{post.id}\t{bundle.cleaned_text}\t{bundle.hashtag_flow}\t{bundle.emoji_count}"
        )
    lines.append(f"# labels: {hist_line}")
    split_line = None
    if len(posts) >= 5:
        train, val = split_dataset(posts, SplitSpec(seed=cfg.seed))
        split_line = f"train={len(train)} val={len(val)}"
        lines.append(f"# split: {split_line}")
    _write_artifact(out / "features.tsv", "\n".join(lines) + "\n")
    print(f"posts: {len(posts)}")
    print(f"labels: {hist_line}")
    if split_line:
        print(f"split: {split_line}")
    print(f"wrote {out / 'features.tsv'}")
    return 0


def cmd_tapt(cfg: argparse.Namespace) -> int:
    posts = load_dataset(cfg.data)
    freq, table = _load_aux(cfg)
    train, _ = split_dataset(posts, SplitSpec(seed=cfg.seed))
    # TAPT reads no emoji vector: an entry-less table skips each post's mean.
    no_emoji = EmojiTable(table.dim, {})
    corpus, vocab = _corpus_and_vocab(
        cfg, posts, train, lambda p: extract_features(p.text, freq, no_emoji)
    )
    config = _encoder_config(cfg, len(vocab))
    result = run_tapt(
        config,
        vocab,
        corpus,
        epochs=cfg.tapt_epochs,
        lr=cfg.tapt_lr,
        batch_size=cfg.batch_size,
        seed=cfg.seed,
    )
    # Nothing is written until TAPT has run, so a failing run leaves an
    # earlier run's files as they were.
    out = Path(cfg.out)
    _write_artifact(out / "vocab.txt", vocab.save)
    _write_artifact(out / "tapt_corpus.txt", lambda path: dump_corpus(corpus, path))
    meta = _run_meta(cfg)
    meta.update(
        {
            "role": "tapt",
            "tapt_epochs": str(cfg.tapt_epochs),
            "tapt_lr": repr(cfg.tapt_lr),
            "corpus_lines": str(len(corpus.lines)),
        }
    )
    blob = encoder_checkpoint_bytes(result.weights, config, vocab, meta)
    _write_artifact(out / "tapt.ckpt", blob)
    trace = ["epoch,loss"] + [
        f"{i},{loss:.6f}" for i, loss in enumerate(result.epoch_losses, start=1)
    ]
    _write_artifact(out / "tapt_loss.csv", "\n".join(trace) + "\n")
    print(f"corpus lines: {len(corpus.lines)}")
    print(f"optimizer steps: {result.steps}")
    print(f"final loss: {result.epoch_losses[-1]:.6f}")
    print(f"wrote {out / 'tapt.ckpt'}")
    return 0


def cmd_finetune(cfg: argparse.Namespace) -> int:
    posts = load_dataset(cfg.data)
    freq, table = _load_aux(cfg)
    train, val = split_dataset(posts, SplitSpec(seed=cfg.seed))
    # Each post is featurized once, for its examples and the vocab.
    features = {p: extract_features(p.text, freq, table) for p in posts}.__getitem__
    # Every task's examples are checked before anything is written or
    # drawn, so a task that cannot train fails the run before the tasks
    # ahead of it have trained.
    examples = {}
    hostile = binary_targets(train, COARSE)
    for task in ALL_TASKS:
        train_examples = list(zip(map(features, train), binary_targets(train, task)))
        if task != COARSE and cfg.fine_scope == "hostile":
            train_examples = [ex for ex, is_hostile in zip(train_examples, hostile) if is_hostile]
        if len({target for _, target in train_examples}) < 2:
            raise DataError(f"training split for task {task!r} holds fewer than two classes")
        examples[task] = train_examples, list(zip(map(features, val), binary_targets(val, task)))
    _, vocab = _corpus_and_vocab(cfg, posts, train, features)
    out = Path(cfg.out)
    enc_config = _encoder_config(cfg, len(vocab))
    config = FusionConfig(encoder=enc_config, emoji_dim=table.dim)
    tapt_weights = None
    if cfg.tapt == "on":
        tapt_weights = load_encoder_checkpoint(out / "tapt.ckpt", vocab, enc_config)
    _write_artifact(out / "vocab.txt", vocab.save)
    for index, task in enumerate(ALL_TASKS):
        seed = cfg.seed + index
        model = init_model(config, vocab, task, tapt_weights, base_seed=seed)
        meta = _run_meta(cfg)
        meta["tapt"] = cfg.tapt
        _write_artifact(out / f"{task}.init.ckpt", model_to_bytes(model, extra=meta))
        run = train_binary(
            model,
            *examples[task],
            epochs=cfg.epochs,
            lr=cfg.lr,
            batch_size=cfg.batch_size,
            seed=seed,
        )
        # Free the trained parameters before the next task draws its own.
        del model
        _write_artifact(out / f"{task}.ckpt", run.best_checkpoint)
        trace = ["epoch,train_loss,val_macro_f1"] + [
            f"{i},{loss:.6f},{f1:.6f}"
            for i, (loss, f1) in enumerate(zip(run.train_loss, run.val_macro_f1), start=1)
        ]
        _write_artifact(out / f"{task}_trace.csv", "\n".join(trace) + "\n")
        print(
            f"{task}: best epoch {run.best_epoch} "
            f"val macro F1 {run.val_macro_f1[run.best_epoch - 1]:.4f}"
        )
        # Free the best-checkpoint blob before the next task trains.
        del run
    print(f"wrote {len(ALL_TASKS)} checkpoints to {out}")
    return 0


def _scorer(cfg: argparse.Namespace, split: str):
    """The header pass, then the model pass as a function score(task,
    rows=None). The header pass reads the vocab, the five checkpoint
    headers, the posts, and the frequency dictionary and emoji table the
    models expect, before any tensor is read: each checkpoint must name
    its task and the run's vocab, and all five one model configuration.
    It then extracts each post's features once for all five. score loads
    that task's model, refuses it if the file's header is no longer the
    one read, scores the posts of split (or those at rows) and drops the
    model on return, so at most one model is resident. Returns (out,
    posts, score)."""
    out = Path(cfg.out)
    vocab_path = out / "vocab.txt"
    if not vocab_path.exists():
        raise DataError(f"vocab file not found at {vocab_path}; run finetune first")
    vocab = Vocab.load(vocab_path)
    headers = {}
    config = None
    for task in ALL_TASKS:
        path = out / f"{task}.ckpt"
        if not path.exists():
            raise DataError(f"checkpoint not found at {path}; run finetune first")
        meta = headers[task] = read_metadata(path)
        try:
            task_config = fusion_config_from_meta(meta, vocab)
        except (DataError, ValueError) as exc:
            raise DataError(f"{path}: {exc}") from None
        # A file holds at least fusion.w, [F, F] float32, so a larger F is
        # refused before it sizes the emoji vectors.
        f = task_config.fused_dim
        if 4 * f * f > path.stat().st_size:
            raise DataError(
                f"{path}: enc.d_model={task_config.encoder.d_model} and "
                f"emoji_dim={task_config.emoji_dim} make fusion.w {f}x{f}, larger than the file"
            )
        if meta.get("task", "") != task:
            raise DataError(f"{path} holds a {meta.get('task', '')!r} model, not {task!r}")
        if config is None:
            config = task_config
        elif task_config != config:
            raise DataError(
                f"{path} holds a model configured unlike {ALL_TASKS[0]}.ckpt; "
                "the checkpoints come from different runs"
            )
    posts = load_dataset(cfg.data)
    freq, table = _load_aux(cfg, emoji_dim=config.emoji_dim)
    if table.dim != config.emoji_dim:
        raise DataError(
            f"emoji table dimension {table.dim} != model emoji dimension {config.emoji_dim}"
        )
    if split != "all":
        train, val = split_dataset(posts, SplitSpec(seed=cfg.seed))
        posts = train if split == "train" else val
    features = [extract_features(p.text, freq, table) for p in posts]

    def score(task: str, rows: Sequence[int] | None = None) -> list[tuple[int, float]]:
        path = out / f"{task}.ckpt"
        model, meta = load_model(path, vocab)
        if meta != headers[task]:
            raise DataError(f"{path} changed after its header was read")
        return predict_batch(model, features if rows is None else [features[i] for i in rows])

    return out, posts, score


def cmd_evaluate(cfg: argparse.Namespace) -> int:
    out, posts, score = _scorer(cfg, cfg.split)
    report = evaluate_suite(score, posts)
    table_text = render_table(report)
    _write_artifact(out / "metrics.txt", table_text)
    _write_artifact(out / "metrics.kv", render_kv(report))
    print(table_text, end="")
    print(f"wrote {out / 'metrics.txt'} and {out / 'metrics.kv'}")
    return 0


def cmd_predict(cfg: argparse.Namespace) -> int:
    out, posts, score = _scorer(cfg, "all")
    coarse = score("coarse")
    # assemble_labels reads no fine prediction for a non-hostile post. Each
    # fine model still loads, so a broken checkpoint fails with no post to score.
    hostile = [i for i, (label, _) in enumerate(coarse) if label]
    fine_preds = {task: iter(score(task, hostile)) for task in FINE_TASKS}
    lines = []
    for post, coarse_pred in zip(posts, coarse):
        fine = {t: next(preds) for t, preds in fine_preds.items()} if coarse_pred[0] else {}
        tags = assemble_labels(coarse_pred, fine)
        # LabelTag is in FINE_TASKS order, and non-hostile is always alone.
        joined = "|".join(t.value for t in LabelTag if t in tags)
        lines.append(f"{post.id}\t{joined}\n")
    _write_artifact(out / "predictions.tsv", "".join(lines))
    print(f"predicted {len(lines)} posts")
    print(f"wrote {out / 'predictions.tsv'}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hostility", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _DISPATCH:
        p = sub.add_parser(command)
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--profile", choices=sorted(PROFILES), default="desk")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--data", help="dataset file (id,text,labels)")
        p.add_argument("--emoji", help="emoji embedding file")
        p.add_argument("--dict", help="word frequency file for hashtag segmentation")
        p.add_argument("--out", help="artifact directory")
        p.add_argument("--epochs", type=int, default=10)
        p.add_argument("--lr", type=float)
        p.add_argument("--batch-size", type=int)
        p.add_argument("--max-len", type=int, default=MAX_LEN)
        p.add_argument("--tapt", choices=("on", "off"), default="off")
        p.add_argument("--tapt-epochs", type=int, default=100)
        p.add_argument("--tapt-lr", type=float, default=1e-4)
        p.add_argument("--tapt-corpus", choices=("train", "all"), default="train")
        p.add_argument("--no-clean-dup", action="store_true")
        p.add_argument("--fine-scope", choices=("all", "hostile"), default="all")
        p.add_argument("--split", choices=("all", "train", "val"), default="all")
    return parser


_DISPATCH = {
    "preprocess": cmd_preprocess,
    "tapt": cmd_tapt,
    "finetune": cmd_finetune,
    "evaluate": cmd_evaluate,
    "predict": cmd_predict,
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        cfg = resolve_config(argv)
        return _DISPATCH[cfg.command](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (InvariantError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
