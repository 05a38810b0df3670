"""Command-line pipeline: preprocess | tapt | finetune | evaluate | predict.

Configuration comes from profile defaults, an optional key=value config
file, and flags (flags win). All randomness derives from one base seed,
recorded into every artifact's metadata, so reruns are byte-identical.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Sequence

from .encoder import EncoderConfig, Vocab
from .errors import DataError, InvariantError, UsageError
from .fusion import FusionConfig, init_model, load_model, model_to_bytes, predict
from .preprocess import (
    EmojiTable,
    FreqDict,
    LabelTag,
    RawPost,
    TokenKind,
    extract_features,
    load_dataset,
    load_emoji_table,
    load_freq_dict,
    segment_hashtag,
    tokenize_raw,
)
from .tapt import (
    build_tapt_corpus,
    dump_corpus,
    encoder_checkpoint_bytes,
    load_encoder_checkpoint,
    run_tapt,
)
from .traineval import (
    ALL_TASKS,
    FINE_TASKS,
    Hyperparams,
    SplitSpec,
    assemble_labels,
    binary_targets,
    evaluate_suite,
    render_kv,
    render_table,
    split_dataset,
    train_binary,
)

PROFILES = {
    "desk": {
        "d_model": 64,
        "n_layers": 2,
        "n_heads": 4,
        "d_ff": 256,
        "lr": 1e-3,
        "tapt_lr": 1e-4,
        "batch_size": 8,
    },
    "paper": {
        "d_model": 768,
        "n_layers": 12,
        "n_heads": 12,
        "d_ff": 3072,
        "lr": 1e-5,
        "tapt_lr": 1e-4,
        "batch_size": 16,
    },
}

COMMANDS = ("preprocess", "tapt", "finetune", "evaluate", "predict")


@dataclass
class RunConfig:
    command: str
    profile: str = "desk"
    seed: int = 0
    data: str | None = None
    emoji: str | None = None
    dict: str | None = None
    out: str | None = None
    epochs: int = 10
    lr: float | None = None
    batch_size: int | None = None
    max_len: int = 128
    tapt: str = "off"
    tapt_epochs: int = 100
    tapt_lr: float | None = None
    tapt_corpus: str = "train"
    no_clean_dup: bool = False
    fine_scope: str = "all"
    split: str = "all"

    def resolved_lr(self) -> float:
        return self.lr if self.lr is not None else PROFILES[self.profile]["lr"]

    def resolved_tapt_lr(self) -> float:
        return self.tapt_lr if self.tapt_lr is not None else PROFILES[self.profile]["tapt_lr"]

    def resolved_batch_size(self) -> int:
        return (
            self.batch_size
            if self.batch_size is not None
            else PROFILES[self.profile]["batch_size"]
        )


_INT_KEYS = {"seed", "epochs", "batch_size", "max_len", "tapt_epochs"}
_FLOAT_KEYS = {"lr", "tapt_lr"}
_BOOL_KEYS = {"no_clean_dup"}
_CHOICE_KEYS = {
    "profile": set(PROFILES),
    "tapt": {"on", "off"},
    "tapt_corpus": {"train", "all"},
    "fine_scope": {"all", "hostile"},
    "split": {"all", "train", "val"},
}


def _parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
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


def _coerce(key: str, raw: str):
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _BOOL_KEYS:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
    except ValueError:
        raise UsageError(f"config key {key!r} has invalid value {raw!r}") from None
    return raw


def _validate(cfg: RunConfig) -> None:
    for key, allowed in _CHOICE_KEYS.items():
        if getattr(cfg, key) not in allowed:
            raise UsageError(f"{key} must be one of {sorted(allowed)}")
    if cfg.seed < 0:
        raise UsageError("seed must be >= 0")
    if cfg.epochs < 1 or cfg.tapt_epochs < 1:
        raise UsageError("epochs must be >= 1")
    if cfg.resolved_lr() <= 0 or cfg.resolved_tapt_lr() <= 0:
        raise UsageError("learning rate must be > 0")
    if cfg.resolved_batch_size() < 1:
        raise UsageError("batch size must be >= 1")
    if cfg.max_len < 4:
        raise UsageError("max_len must be >= 4")
    if cfg.data is None:
        raise UsageError("--data is required")
    if cfg.out is None:
        raise UsageError("--out is required")


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    file_values = _parse_config_file(args.config) if args.config else {}
    known = {f.name for f in fields(RunConfig)} - {"command"}
    for key, raw in file_values.items():
        if key not in known:
            raise UsageError(f"unknown config key {key!r}")
        cfg = replace(cfg, **{key: _coerce(key, raw)})
    for key in known:
        value = getattr(args, key, None)
        if value is not None and value is not False:
            cfg = replace(cfg, **{key: value})
    _validate(cfg)
    return cfg


# ---------------------------------------------------------------------------
# Shared pipeline pieces
# ---------------------------------------------------------------------------


def _load_posts(cfg: RunConfig) -> list[RawPost]:
    try:
        posts = load_dataset(cfg.data)
    except OSError as exc:
        raise DataError(f"cannot read dataset: {exc}") from None
    return posts


def _load_aux(cfg: RunConfig, emoji_dim: int = 300) -> tuple[FreqDict, EmojiTable]:
    freq = FreqDict.empty()
    if cfg.dict:
        try:
            freq = load_freq_dict(cfg.dict)
        except OSError as exc:
            raise DataError(f"cannot read frequency dictionary: {exc}") from None
    table = EmojiTable(dim=emoji_dim, entries={})
    if cfg.emoji:
        try:
            table = load_emoji_table(cfg.emoji)
        except OSError as exc:
            raise DataError(f"cannot read emoji table: {exc}") from None
    return freq, table


def _hashtag_flow(text: str, freq: FreqDict) -> str:
    return " ".join(
        segment_hashtag(t.surface, freq)
        for t in tokenize_raw(text)
        if t.kind is TokenKind.HASHTAG and len(t.surface) > 1
    )


def _derive_vocab_corpus(cfg: RunConfig, posts, freq):
    """Split, build the adaptation corpus, and derive the shared vocab.

    The vocab covers raw text, cleaned text, and hashtag flows of the
    corpus posts so both encoders mostly see in-vocab tokens.
    """
    train, val = split_dataset(posts, SplitSpec(seed=cfg.seed))
    corpus_posts = train if cfg.tapt_corpus == "train" else list(posts)
    corpus = build_tapt_corpus(corpus_posts, include_cleaned=not cfg.no_clean_dup)
    vocab_lines = list(corpus.lines)
    vocab_lines.extend(_hashtag_flow(p.text, freq) for p in corpus_posts)
    vocab = Vocab.build(vocab_lines, min_count=1)
    return train, val, corpus, vocab


def _encoder_config(cfg: RunConfig, vocab_size: int) -> EncoderConfig:
    prof = PROFILES[cfg.profile]
    return EncoderConfig(
        vocab_size=vocab_size,
        d_model=prof["d_model"],
        n_layers=prof["n_layers"],
        n_heads=prof["n_heads"],
        d_ff=prof["d_ff"],
        max_len=cfg.max_len,
    )


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _label_histogram(posts: Sequence[RawPost]) -> dict[str, int]:
    counts = {tag.value: 0 for tag in LabelTag}
    for post in posts:
        for tag in post.labels:
            counts[tag.value] += 1
    return counts


def _run_meta(cfg: RunConfig) -> dict[str, str]:
    return {"seed": str(cfg.seed), "profile": cfg.profile}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_preprocess(cfg: RunConfig) -> int:
    posts = _load_posts(cfg)
    freq, table = _load_aux(cfg)
    out = _out_dir(cfg)
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
    (out / "features.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"posts: {len(posts)}")
    print(f"labels: {hist_line}")
    if split_line:
        print(f"split: {split_line}")
    print(f"wrote {out / 'features.tsv'}")
    return 0


def cmd_tapt(cfg: RunConfig) -> int:
    posts = _load_posts(cfg)
    if not posts:
        raise DataError("dataset is empty")
    freq, _ = _load_aux(cfg)
    train, _, corpus, vocab = _derive_vocab_corpus(cfg, posts, freq)
    if not train:
        raise DataError("training split is empty")
    out = _out_dir(cfg)
    vocab.save(out / "vocab.txt")
    dump_corpus(corpus, out / "tapt_corpus.txt")
    config = _encoder_config(cfg, len(vocab))
    result = run_tapt(
        config,
        vocab,
        corpus,
        epochs=cfg.tapt_epochs,
        lr=cfg.resolved_tapt_lr(),
        batch_size=cfg.resolved_batch_size(),
        seed=cfg.seed,
    )
    meta = _run_meta(cfg)
    meta.update(
        {
            "role": "tapt",
            "vocab_sha256": vocab.sha256(),
            "tapt_epochs": str(cfg.tapt_epochs),
            "tapt_lr": repr(cfg.resolved_tapt_lr()),
            "corpus_lines": str(len(corpus.lines)),
        }
    )
    (out / "tapt.ckpt").write_bytes(encoder_checkpoint_bytes(result.weights, config, meta))
    trace = ["epoch,loss"] + [
        f"{i},{loss:.6f}" for i, loss in enumerate(result.epoch_losses, start=1)
    ]
    (out / "tapt_loss.csv").write_text("\n".join(trace) + "\n", encoding="utf-8")
    print(f"corpus lines: {len(corpus.lines)}")
    print(f"optimizer steps: {result.steps}")
    print(f"final loss: {result.epoch_losses[-1]:.6f}")
    print(f"wrote {out / 'tapt.ckpt'}")
    return 0


def _load_tapt_weights(cfg: RunConfig, out: Path, vocab: Vocab, config: EncoderConfig):
    path = out / "tapt.ckpt"
    if not path.exists():
        raise DataError(f"TAPT checkpoint not found at {path}; run the tapt command first")
    weights, ckpt_config, meta = load_encoder_checkpoint(path)
    if ckpt_config != config:
        raise DataError("TAPT checkpoint encoder configuration does not match this run")
    if meta.get("vocab_sha256") != vocab.sha256():
        raise DataError("vocab hash mismatch between checkpoint and current vocab")
    return weights


def cmd_finetune(cfg: RunConfig) -> int:
    posts = _load_posts(cfg)
    freq, table = _load_aux(cfg)
    train, val, _, vocab = _derive_vocab_corpus(cfg, posts, freq)
    out = _out_dir(cfg)
    vocab.save(out / "vocab.txt")
    enc_config = _encoder_config(cfg, len(vocab))
    config = FusionConfig(encoder=enc_config, emoji_dim=table.dim)
    tapt_weights = None
    if cfg.tapt == "on":
        tapt_weights = _load_tapt_weights(cfg, out, vocab, enc_config)
    train_bundles = [extract_features(p.text, freq, table) for p in train]
    val_bundles = [extract_features(p.text, freq, table) for p in val]
    for index, task in enumerate(ALL_TASKS):
        train_targets = binary_targets(train, task)
        val_targets = binary_targets(val, task)
        train_examples = list(zip(train_bundles, train_targets))
        if task != "coarse" and cfg.fine_scope == "hostile":
            hostile = [
                i for i, p in enumerate(train) if p.labels != frozenset({LabelTag.NON_HOSTILE})
            ]
            train_examples = [train_examples[i] for i in hostile]
        hp = Hyperparams(
            epochs=cfg.epochs,
            lr=cfg.resolved_lr(),
            batch_size=cfg.resolved_batch_size(),
            seed=cfg.seed + index,
        )
        init = init_model(config, vocab, task, tapt_weights, base_seed=hp.seed)
        meta = _run_meta(cfg)
        meta["tapt"] = cfg.tapt
        (out / f"{task}.init.ckpt").write_bytes(model_to_bytes(init, extra=meta))
        run = train_binary(
            config,
            vocab,
            task,
            train_examples,
            list(zip(val_bundles, val_targets)),
            tapt_weights=tapt_weights,
            hp=hp,
        )
        (out / f"{task}.ckpt").write_bytes(run.best_checkpoint)
        trace = ["epoch,train_loss,val_macro_f1"] + [
            f"{i},{loss:.6f},{f1:.6f}"
            for i, (loss, f1) in enumerate(zip(run.train_loss, run.val_macro_f1), start=1)
        ]
        (out / f"{task}_trace.csv").write_text("\n".join(trace) + "\n", encoding="utf-8")
        print(
            f"{task}: best epoch {run.best_epoch} "
            f"val macro F1 {run.best_val_macro_f1:.4f}"
        )
    print(f"wrote {len(ALL_TASKS)} checkpoints to {out}")
    return 0


def _load_models(cfg: RunConfig, out: Path):
    vocab_path = out / "vocab.txt"
    if not vocab_path.exists():
        raise DataError(f"vocab file not found at {vocab_path}; run finetune first")
    vocab = Vocab.load(vocab_path)
    models = {}
    config = None
    for task in ALL_TASKS:
        path = out / f"{task}.ckpt"
        if not path.exists():
            raise DataError(f"checkpoint not found at {path}; run finetune first")
        model, _ = load_model(path, vocab)
        models[task] = model
        config = model.config
    return vocab, models, config


def cmd_evaluate(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    vocab, models, config = _load_models(cfg, out)
    posts = _load_posts(cfg)
    freq, table = _load_aux(cfg, emoji_dim=config.emoji_dim)
    if table.dim != config.emoji_dim:
        raise DataError(
            f"emoji table dimension {table.dim} != model emoji dimension {config.emoji_dim}"
        )
    if cfg.split != "all":
        train, val = split_dataset(posts, SplitSpec(seed=cfg.seed))
        posts = train if cfg.split == "train" else val
    try:
        bundles = [extract_features(p.text, freq, table) for p in posts]
        report = evaluate_suite(models, posts, bundles)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    table_text = render_table(report)
    (out / "metrics.txt").write_text(table_text, encoding="utf-8")
    (out / "metrics.kv").write_text(render_kv(report), encoding="utf-8")
    print(table_text, end="")
    print(f"wrote {out / 'metrics.txt'} and {out / 'metrics.kv'}")
    return 0


def cmd_predict(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    vocab, models, config = _load_models(cfg, out)
    posts = _load_posts(cfg)
    freq, table = _load_aux(cfg, emoji_dim=config.emoji_dim)
    if table.dim != config.emoji_dim:
        raise DataError(
            f"emoji table dimension {table.dim} != model emoji dimension {config.emoji_dim}"
        )
    lines = []
    for post in posts:
        bundle = extract_features(post.text, freq, table)
        coarse = predict(models["coarse"], bundle)
        # assemble_labels reads no fine prediction for a non-hostile post.
        fine = {task: predict(models[task], bundle) for task in FINE_TASKS} if coarse[0] else {}
        tags = assemble_labels(coarse, fine)
        if LabelTag.NON_HOSTILE in tags:
            joined = LabelTag.NON_HOSTILE.value
        else:
            order = {name: i for i, name in enumerate(FINE_TASKS)}
            joined = "|".join(sorted((t.value for t in tags), key=lambda v: order[v]))
        lines.append(f"{post.id}\t{joined}")
    (out / "predictions.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
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
    for command in COMMANDS:
        p = sub.add_parser(command)
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--profile", choices=sorted(PROFILES))
        p.add_argument("--seed", type=int)
        p.add_argument("--data", help="dataset file (id,text,labels)")
        p.add_argument("--emoji", help="emoji embedding file")
        p.add_argument("--dict", help="word frequency file for hashtag segmentation")
        p.add_argument("--out", help="artifact directory")
        p.add_argument("--epochs", type=int)
        p.add_argument("--lr", type=float)
        p.add_argument("--batch-size", dest="batch_size", type=int)
        p.add_argument("--max-len", dest="max_len", type=int)
        p.add_argument("--tapt", choices=("on", "off"))
        p.add_argument("--tapt-epochs", dest="tapt_epochs", type=int)
        p.add_argument("--tapt-lr", dest="tapt_lr", type=float)
        p.add_argument("--tapt-corpus", dest="tapt_corpus", choices=("train", "all"))
        p.add_argument("--no-clean-dup", dest="no_clean_dup", action="store_true", default=None)
        p.add_argument("--fine-scope", dest="fine_scope", choices=("all", "hostile"))
        p.add_argument("--split", choices=("all", "train", "val"))
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
        args = build_parser().parse_args(argv)
        cfg = resolve_config(args)
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
