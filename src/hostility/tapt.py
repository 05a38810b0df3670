"""Task-adaptive corpus construction and continued MLM pretraining.

The adaptation corpus holds each post twice: the raw text and its
cleaned text. Training produces weights for the cleaned-text encoder
only; the hashtag encoder keeps the base initialization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .checkpoint import checkpoint_bytes, read_checkpoint
from .encoder import (
    EncoderConfig,
    EncoderWeights,
    Vocab,
    config_from_meta,
    config_to_meta,
    N_SPECIALS,
    encode_ids,
    mask_with_target,
    mlm_loss,
)
from .errors import DataError, InvariantError
from .numeric import adam_init, train_step
from .preprocess import RawPost, clean_text, tokenize_raw

RAW = "raw"
CLEANED = "cleaned"

TEXT_INIT_STREAM = 0
HASHTAG_INIT_STREAM = 1
_TRAIN_STREAM = 5
_MASK_STREAM = 6


@dataclass
class TaptCorpus:
    lines: list[str]
    provenance: list[str]

    def __post_init__(self):
        if len(self.lines) != len(self.provenance):
            raise InvariantError("corpus lines and provenance tags diverge")


def build_tapt_corpus(posts: Sequence[RawPost], include_cleaned: bool = True) -> TaptCorpus:
    """One RAW line (the original text) and one CLEANED line per post,
    in dataset order. Empty cleaned text still contributes its line."""
    lines: list[str] = []
    provenance: list[str] = []
    for post in posts:
        lines.append(post.text)
        provenance.append(RAW)
        if include_cleaned:
            lines.append(clean_text(tokenize_raw(post.text)))
            provenance.append(CLEANED)
    return TaptCorpus(lines, provenance)


def dump_corpus(corpus: TaptCorpus, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line, tag in zip(corpus.lines, corpus.provenance):
            prefix = "R" if tag == RAW else "C"
            flat = " ".join(line.splitlines()) if "\n" in line or "\r" in line else line
            fh.write(f"{prefix}\t{flat}\n")


@dataclass
class TaptResult:
    weights: EncoderWeights
    epoch_losses: list[float]
    steps: int


def base_init(config: EncoderConfig, seed: int) -> EncoderWeights:
    """The fixed random initialization snapshot TAPT starts from (and the
    fresh cleaned-text encoder when TAPT is off)."""
    return EncoderWeights.init(config, np.random.default_rng([seed, TEXT_INIT_STREAM]))


def run_tapt(
    config: EncoderConfig,
    vocab: Vocab,
    corpus: TaptCorpus,
    epochs: int = 100,
    lr: float = 1e-4,
    batch_size: int = 8,
    seed: int = 0,
    init_weights: EncoderWeights | None = None,
    mask_prob: float = 0.15,
) -> TaptResult:
    """Continued MLM pretraining over shuffled corpus lines, one padded
    batch graph and one optimizer step per mini-batch.

    Deterministic given the seed. Each epoch masks every line once, in
    corpus order, from its own seed stream, so what is masked does not
    depend on the batch size, the shuffle or the dropout draws; every
    line gets at least one target (see mask_with_target). Lines that
    yield no maskable token (e.g. empty cleaned lines) are skipped at
    batching but keep their place in the corpus.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if not 0 < mask_prob <= 1:
        raise ValueError(f"mask_prob must be in (0, 1], got {mask_prob}")
    if not corpus.lines:
        raise ValueError("cannot pretrain on an empty corpus")
    encoded = [encode_ids(vocab, line, config.max_len) for line in corpus.lines]
    maskable = [j for j, ids in enumerate(encoded) if any(t >= N_SPECIALS for t in ids)]
    if not maskable:
        raise ValueError("corpus has no maskable tokens under this vocab")
    weights = init_weights.copy() if init_weights is not None else base_init(config, seed)
    rng = np.random.default_rng([seed, _TRAIN_STREAM])
    mask_rng = np.random.default_rng([seed, _MASK_STREAM])
    state = adam_init(weights.params)
    epoch_losses: list[float] = []
    steps = 0
    for _ in range(epochs):
        order = rng.permutation(len(encoded))
        masks = {
            j: mask_with_target(encoded[j], len(vocab), mask_rng, mask_prob) for j in maskable
        }
        loss_total = 0.0
        n_seqs = 0
        for start in range(0, len(order), batch_size):
            batch = [masks[j] for j in order[start : start + batch_size] if j in masks]
            if not batch:
                continue
            masked_batch, target_batch = zip(*batch)
            batch_loss = mlm_loss(
                weights, config, masked_batch, target_batch, training=True, rng=rng
            )
            train_step(weights.params, state, batch_loss, lr)
            steps += 1
            loss_total += float(batch_loss.data) * len(batch)
            n_seqs += len(batch)
        epoch_losses.append(loss_total / n_seqs)
    return TaptResult(weights=weights, epoch_losses=epoch_losses, steps=steps)


def encoder_checkpoint_bytes(
    weights: EncoderWeights,
    config: EncoderConfig,
    extra: Mapping[str, str] | None = None,
) -> bytes:
    meta = {"kind": "encoder"}
    meta.update(config_to_meta(config))
    if extra:
        meta.update(extra)
    return checkpoint_bytes(meta, weights.arrays())


def load_encoder_checkpoint(path) -> tuple[EncoderWeights, EncoderConfig, dict[str, str]]:
    metadata, arrays = read_checkpoint(path)
    if metadata.get("kind") != "encoder":
        raise DataError(f"{path}: checkpoint does not hold encoder weights")
    config = config_from_meta(metadata)
    return EncoderWeights.from_arrays(config, arrays), config, metadata
