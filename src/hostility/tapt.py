"""Task-adaptive corpus construction and continued MLM pretraining.

The adaptation corpus holds each post twice: the raw text and its
cleaned text. Training produces weights for the cleaned-text encoder
only; the hashtag encoder keeps the base initialization. The MLM head
trains alongside the encoder body and is dropped when run_tapt returns.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .checkpoint import checkpoint_bytes, naming_file, read_checkpoint, read_metadata
from .encoder import (
    N_SPECIALS,
    TAPT_MASK_STREAM,
    TAPT_TRAIN_STREAM,
    TEXT_INIT_STREAM,
    EncoderConfig,
    Vocab,
    config_from_meta,
    config_to_meta,
    encode_ids,
    encoder_shape_table,
    init_params,
    mask_with_target,
    mlm_head_shape_table,
    mlm_loss,
    params_from_arrays,
)
from .errors import DataError, InvariantError
from .numeric import Tensor, adam_init, train_epoch
from .preprocess import FeatureBundle, RawPost

RAW = "raw"
CLEANED = "cleaned"


@dataclass
class TaptCorpus:
    lines: list[str]
    provenance: list[str]

    def __post_init__(self):
        if len(self.lines) != len(self.provenance):
            raise InvariantError("corpus lines and provenance tags diverge")


def build_tapt_corpus(
    pairs: Sequence[tuple[RawPost, FeatureBundle]], include_cleaned: bool = True
) -> TaptCorpus:
    """One RAW line (the post's text) and one CLEANED line (its features'
    cleaned text) per pair, in order; empty cleaned text keeps its line."""
    lines: list[str] = []
    provenance: list[str] = []
    for post, bundle in pairs:
        lines.append(post.text)
        provenance.append(RAW)
        if include_cleaned:
            lines.append(bundle.cleaned_text)
            provenance.append(CLEANED)
    return TaptCorpus(lines, provenance)


def dump_corpus(corpus: TaptCorpus, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line, tag in zip(corpus.lines, corpus.provenance):
            prefix = "R" if tag == RAW else "C"
            fh.write(f"{prefix}\t{' '.join(line.splitlines())}\n")


@dataclass
class TaptResult:
    weights: dict[str, Tensor]
    epoch_losses: list[float]
    steps: int


def run_tapt(
    config: EncoderConfig,
    vocab: Vocab,
    corpus: TaptCorpus,
    epochs: int,
    lr: float,
    batch_size: int,
    seed: int,
) -> TaptResult:
    """Continued MLM pretraining over shuffled corpus lines, one packed
    batch graph (see encoder.mlm_loss) and one optimizer step per
    mini-batch.

    One init_params call draws the encoder body and then the MLM head
    from the [seed, TEXT_INIT_STREAM] generator, so the body starts as
    fusion.text_encoder_init(config, seed). Adam steps both; weights
    holds only the body's parameters.

    Deterministic given the seed. Each epoch masks every line once, in
    corpus order, from its own seed stream, so what is masked does not
    depend on the batch size, the shuffle or the dropout draws; every
    line gets at least one target (see mask_with_target). Lines that
    yield no maskable token (e.g. empty cleaned lines) are skipped at
    batching but keep their place in the corpus.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if not corpus.lines:
        raise ValueError("cannot pretrain on an empty corpus")
    encoded = [encode_ids(vocab, line, config.max_len) for line in corpus.lines]
    maskable = [j for j, ids in enumerate(encoded) if any(t >= N_SPECIALS for t in ids)]
    if not maskable:
        raise ValueError("corpus has no maskable tokens under this vocab")
    body = encoder_shape_table(config)
    params = init_params(
        {**body, **mlm_head_shape_table(config)}, np.random.default_rng([seed, TEXT_INIT_STREAM])
    )
    rng = np.random.default_rng([seed, TAPT_TRAIN_STREAM])
    mask_rng = np.random.default_rng([seed, TAPT_MASK_STREAM])
    state = adam_init(params)

    def batch_loss(batch):
        return mlm_loss(params, config, *zip(*batch), rng)

    epoch_losses: list[float] = []
    for _ in range(epochs):
        order = rng.permutation(len(encoded))
        masks = {j: mask_with_target(encoded[j], len(vocab), mask_rng) for j in maskable}
        # Chunk first, then drop lines with no target: a skipped line keeps its place.
        chunks = (
            [masks[j] for j in order[i : i + batch_size] if j in masks]
            for i in range(0, len(order), batch_size)
        )
        epoch_losses.append(train_epoch(params, state, lr, filter(None, chunks), batch_loss))
    weights = {name: params[name] for name in body}
    return TaptResult(weights=weights, epoch_losses=epoch_losses, steps=state.step)


def encoder_checkpoint_bytes(
    weights: Mapping[str, Tensor], config: EncoderConfig, vocab: Vocab, extra: Mapping[str, str]
) -> bytes:
    meta = {"kind": "encoder", "vocab_sha256": vocab.sha256(), **config_to_meta(config), **extra}
    return checkpoint_bytes(meta, {name: p.data for name, p in weights.items()})


def load_encoder_checkpoint(path, vocab: Vocab, config: EncoderConfig) -> dict[str, Tensor]:
    """The body in the TAPT checkpoint at path. Its header is checked for
    kind, config and vocab hash against this run before any tensor is
    read, and its tensors then meet the run's shape table. Errors name
    the file."""
    if not os.path.exists(path):
        raise DataError(f"TAPT checkpoint not found at {path}; run the tapt command first")
    metadata = read_metadata(path)
    with naming_file(path):
        if metadata.get("kind") != "encoder":
            raise DataError("checkpoint does not hold encoder weights")
        theirs = config_to_meta(config_from_meta(metadata))
        for key, ours in config_to_meta(config).items():
            if theirs[key] != ours:
                raise DataError(
                    "TAPT checkpoint encoder configuration does not match this run: "
                    f"{key} is {theirs[key]} in the checkpoint, {ours} in this run"
                )
        if metadata.get("vocab_sha256") != vocab.sha256():
            raise DataError("vocab hash mismatch between checkpoint and current vocab")
    _, arrays = read_checkpoint(path)
    with naming_file(path):
        return params_from_arrays(encoder_shape_table(config), arrays, "encoder")
