"""Command-line pipeline: preprocess | tapt | finetune | evaluate | predict.

Configuration comes from profile defaults, an optional key=value config
file, and flags (flags win). All randomness derives from one base seed,
recorded into every artifact's metadata, so reruns are byte-identical.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Callable, Sequence

from .encoder import EncoderConfig, Vocab, desk_config, paper_config
from .errors import DataError, InvariantError, UsageError
from .fusion import FusionConfig, init_model, load_model, model_to_bytes, predict_batch
from .preprocess import (
    EmojiTable,
    FreqDict,
    LabelTag,
    RawPost,
    extract_features,
    hashtag_flow,
    load_dataset,
    load_emoji_table,
    load_freq_dict,
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

# Optimizer settings per profile, used where no flag or config key sets
# them; the encoder sizes come from `desk_config` and `paper_config`.
PROFILES = {
    "desk": {"lr": 1e-3, "tapt_lr": 1e-4, "batch_size": 8},
    "paper": {"lr": 1e-5, "tapt_lr": 1e-4, "batch_size": 16},
}

COMMANDS = ("preprocess", "tapt", "finetune", "evaluate", "predict")


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
    if cfg.lr <= 0 or cfg.tapt_lr <= 0:
        raise UsageError("learning rate must be > 0")
    if cfg.batch_size < 1:
        raise UsageError("batch size must be >= 1")
    if cfg.max_len < 4:
        raise UsageError("max_len must be >= 4")
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


def _load_aux(cfg: argparse.Namespace, emoji_dim: int = 300) -> tuple[FreqDict, EmojiTable]:
    freq = load_freq_dict(cfg.dict) if cfg.dict else FreqDict.empty()
    table = load_emoji_table(cfg.emoji) if cfg.emoji else EmojiTable(dim=emoji_dim, entries={})
    return freq, table


def _derive_vocab_corpus(cfg: argparse.Namespace, posts, freq):
    """Split, build the adaptation corpus, and derive the shared vocab.

    The vocab covers raw text, cleaned text, and hashtag flows of the
    corpus posts so both encoders mostly see in-vocab tokens.
    """
    train, val = split_dataset(posts, SplitSpec(seed=cfg.seed))
    corpus_posts = train if cfg.tapt_corpus == "train" else list(posts)
    corpus = build_tapt_corpus(corpus_posts, include_cleaned=not cfg.no_clean_dup)
    vocab_lines = list(corpus.lines)
    vocab_lines.extend(hashtag_flow(tokenize_raw(p.text), freq) for p in corpus_posts)
    vocab = Vocab.build(vocab_lines, min_count=1)
    return train, val, corpus, vocab


def _encoder_config(cfg: argparse.Namespace, vocab_size: int) -> EncoderConfig:
    make = desk_config if cfg.profile == "desk" else paper_config
    return make(vocab_size, max_len=cfg.max_len)


def _out_dir(cfg: argparse.Namespace) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_artifact(path: Path, data: bytes | str | Callable[[Path], None]) -> None:
    """Write an artifact to a temp file beside path, then rename it into
    place, so a crash mid-write leaves the previous file whole. data is
    the content (str as UTF-8) or a function that writes a given path."""
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
    _write_artifact(out / "features.tsv", "\n".join(lines) + "\n")
    print(f"posts: {len(posts)}")
    print(f"labels: {hist_line}")
    if split_line:
        print(f"split: {split_line}")
    print(f"wrote {out / 'features.tsv'}")
    return 0


def cmd_tapt(cfg: argparse.Namespace) -> int:
    posts = load_dataset(cfg.data)
    if not posts:
        raise DataError("dataset is empty")
    freq, _ = _load_aux(cfg)
    train, _, corpus, vocab = _derive_vocab_corpus(cfg, posts, freq)
    if not train:
        raise DataError("training split is empty")
    out = _out_dir(cfg)
    _write_artifact(out / "vocab.txt", vocab.save)
    _write_artifact(out / "tapt_corpus.txt", lambda path: dump_corpus(corpus, path))
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
    meta = _run_meta(cfg)
    meta.update(
        {
            "role": "tapt",
            "vocab_sha256": vocab.sha256(),
            "tapt_epochs": str(cfg.tapt_epochs),
            "tapt_lr": repr(cfg.tapt_lr),
            "corpus_lines": str(len(corpus.lines)),
        }
    )
    _write_artifact(out / "tapt.ckpt", encoder_checkpoint_bytes(result.weights, config, meta))
    trace = ["epoch,loss"] + [
        f"{i},{loss:.6f}" for i, loss in enumerate(result.epoch_losses, start=1)
    ]
    _write_artifact(out / "tapt_loss.csv", "\n".join(trace) + "\n")
    print(f"corpus lines: {len(corpus.lines)}")
    print(f"optimizer steps: {result.steps}")
    print(f"final loss: {result.epoch_losses[-1]:.6f}")
    print(f"wrote {out / 'tapt.ckpt'}")
    return 0


def _load_tapt_weights(cfg: argparse.Namespace, out: Path, vocab: Vocab, config: EncoderConfig):
    path = out / "tapt.ckpt"
    if not path.exists():
        raise DataError(f"TAPT checkpoint not found at {path}; run the tapt command first")
    weights, ckpt_config, meta = load_encoder_checkpoint(path)
    if ckpt_config != config:
        raise DataError("TAPT checkpoint encoder configuration does not match this run")
    if meta.get("vocab_sha256") != vocab.sha256():
        raise DataError("vocab hash mismatch between checkpoint and current vocab")
    return weights


def cmd_finetune(cfg: argparse.Namespace) -> int:
    posts = load_dataset(cfg.data)
    freq, table = _load_aux(cfg)
    train, val, _, vocab = _derive_vocab_corpus(cfg, posts, freq)
    out = _out_dir(cfg)
    _write_artifact(out / "vocab.txt", vocab.save)
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
            lr=cfg.lr,
            batch_size=cfg.batch_size,
            seed=cfg.seed + index,
        )
        init = init_model(config, vocab, task, tapt_weights, base_seed=hp.seed)
        meta = _run_meta(cfg)
        meta["tapt"] = cfg.tapt
        _write_artifact(out / f"{task}.init.ckpt", model_to_bytes(init, extra=meta))
        run = train_binary(
            config,
            vocab,
            task,
            train_examples,
            list(zip(val_bundles, val_targets)),
            tapt_weights=tapt_weights,
            hp=hp,
        )
        _write_artifact(out / f"{task}.ckpt", run.best_checkpoint)
        trace = ["epoch,train_loss,val_macro_f1"] + [
            f"{i},{loss:.6f},{f1:.6f}"
            for i, (loss, f1) in enumerate(zip(run.train_loss, run.val_macro_f1), start=1)
        ]
        _write_artifact(out / f"{task}_trace.csv", "\n".join(trace) + "\n")
        print(
            f"{task}: best epoch {run.best_epoch} "
            f"val macro F1 {run.best_val_macro_f1:.4f}"
        )
    print(f"wrote {len(ALL_TASKS)} checkpoints to {out}")
    return 0


def _load_scoring_inputs(cfg: argparse.Namespace):
    """What evaluate and predict read: the five task models, the posts,
    and the frequency dictionary and emoji table the models expect."""
    out = _out_dir(cfg)
    vocab_path = out / "vocab.txt"
    if not vocab_path.exists():
        raise DataError(f"vocab file not found at {vocab_path}; run finetune first")
    vocab = Vocab.load(vocab_path)
    models = {}
    for task in ALL_TASKS:
        path = out / f"{task}.ckpt"
        if not path.exists():
            raise DataError(f"checkpoint not found at {path}; run finetune first")
        models[task], _ = load_model(path, vocab)
        if models[task].task != task:
            raise DataError(f"{path} holds a {models[task].task!r} model, not {task!r}")
    posts = load_dataset(cfg.data)
    emoji_dim = models[ALL_TASKS[-1]].config.emoji_dim
    freq, table = _load_aux(cfg, emoji_dim=emoji_dim)
    if table.dim != emoji_dim:
        raise DataError(f"emoji table dimension {table.dim} != model emoji dimension {emoji_dim}")
    return out, models, posts, freq, table


def cmd_evaluate(cfg: argparse.Namespace) -> int:
    out, models, posts, freq, table = _load_scoring_inputs(cfg)
    if cfg.split != "all":
        train, val = split_dataset(posts, SplitSpec(seed=cfg.seed))
        posts = train if cfg.split == "train" else val
    try:
        bundles = [extract_features(p.text, freq, table) for p in posts]
        report = evaluate_suite(models, posts, bundles)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    table_text = render_table(report)
    _write_artifact(out / "metrics.txt", table_text)
    _write_artifact(out / "metrics.kv", render_kv(report))
    print(table_text, end="")
    print(f"wrote {out / 'metrics.txt'} and {out / 'metrics.kv'}")
    return 0


def cmd_predict(cfg: argparse.Namespace) -> int:
    out, models, posts, freq, table = _load_scoring_inputs(cfg)
    bundles = [extract_features(p.text, freq, table) for p in posts]
    coarse = predict_batch(models["coarse"], bundles)
    # assemble_labels reads no fine prediction for a non-hostile post.
    hostile = [b for b, (label, _) in zip(bundles, coarse) if label]
    fine_preds = {task: iter(predict_batch(models[task], hostile)) for task in FINE_TASKS}
    order = {name: i for i, name in enumerate(FINE_TASKS)}
    lines = []
    for post, coarse_pred in zip(posts, coarse):
        fine = {t: next(preds) for t, preds in fine_preds.items()} if coarse_pred[0] else {}
        tags = assemble_labels(coarse_pred, fine)
        if LabelTag.NON_HOSTILE in tags:
            joined = LabelTag.NON_HOSTILE.value
        else:
            joined = "|".join(sorted((t.value for t in tags), key=lambda v: order[v]))
        lines.append(f"{post.id}\t{joined}")
    _write_artifact(out / "predictions.tsv", "\n".join(lines) + "\n")
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
        p.add_argument("--profile", choices=sorted(PROFILES), default="desk")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--data", help="dataset file (id,text,labels)")
        p.add_argument("--emoji", help="emoji embedding file")
        p.add_argument("--dict", help="word frequency file for hashtag segmentation")
        p.add_argument("--out", help="artifact directory")
        p.add_argument("--epochs", type=int, default=10)
        p.add_argument("--lr", type=float)
        p.add_argument("--batch-size", type=int)
        p.add_argument("--max-len", type=int, default=128)
        p.add_argument("--tapt", choices=("on", "off"), default="off")
        p.add_argument("--tapt-epochs", type=int, default=100)
        p.add_argument("--tapt-lr", type=float)
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
