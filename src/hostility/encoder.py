"""Compact transformer encoder with learned positions, and the MLM loss.

Pre-norm residual blocks, CLS pooling, word-level vocabulary with five
fixed specials. Training, TAPT and scoring all run a batch of sequences
as one graph, packed end to end without padding (`encode_packed`). Two
named profiles: "desk" (small, exercised by tests, one weight set per
layer) and "paper" (768-dim, 12 layers that share one weight set, as in
ALBERT, the design of the paper's IndicBERT). A parameter set is a
plain name -> Tensor dict drawn by `init_params` from a shape table:
`encoder_shape_table` for the encoder body, `mlm_head_shape_table` for
the MLM output head that exists only while TAPT runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from itertools import groupby
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError, ShapeError
from .numeric import (
    Tensor,
    add,
    attention,
    cross_entropy,
    dropout,
    embedding_lookup,
    gather_rows,
    layer_norm,
    linear,
    relu,
)
from .preprocess import _open_text

SPECIALS = ("<pad>", "<unk>", "<cls>", "<sep>", "<mask>")
PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID = range(5)
N_SPECIALS = len(SPECIALS)
IGNORE_ID = -1
# The longest token sequence, CLS and SEP included, unless --max-len sets it.
MAX_LEN = 128
# The deepest encoder a checkpoint may declare: ALBERT-large's 24, twice the
# paper profile's. A shared layer set holds its tensors once at any depth,
# so a file's tensor count alone does not bound the depth.
MAX_LAYERS = 24
# The dropout rate of the encoder and of the fusion head.
DROPOUT_P = 0.1
# The share of non-special positions that BERT-style masking selects.
MASK_PROB = 0.15


class Vocab:
    """Word-to-id map with dense ids; specials occupy ids 0-4."""

    def __init__(self, tokens: list[str]):
        if tuple(tokens[:N_SPECIALS]) != SPECIALS:
            raise DataError("vocab must start with the five special tokens")
        self.tokens = list(tokens)
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise DataError("vocab contains duplicate tokens")

    @classmethod
    def build(cls, lines: Iterable[str]) -> "Vocab":
        """Every case-folded whitespace token of lines, most frequent
        first."""
        counts: dict[str, int] = {}
        for line in lines:
            for word in line.casefold().split():
                counts[word] = counts.get(word, 0) + 1
        words = sorted(
            (w for w in counts if w not in SPECIALS),
            key=lambda w: (-counts[w], w),
        )
        return cls(list(SPECIALS) + words)

    def id_of(self, token: str) -> int:
        return self.index.get(token, UNK_ID)

    def __len__(self) -> int:
        return len(self.tokens)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.tokens))
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Vocab":
        """The vocab saved at path, one token per line. A file that is
        not UTF-8 or not a valid vocab raises DataError naming it."""
        with _open_text(path) as fh:
            tokens = fh.read().splitlines()
        try:
            return cls(tokens)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None

    def sha256(self) -> str:
        return hashlib.sha256("\n".join(self.tokens).encode("utf-8")).hexdigest()


def encode_ids(vocab: Vocab, text: str, max_len: int) -> list[int]:
    """[CLS] + case-folded word ids + [SEP], truncated to max_len total.
    A word that spells a special token is unknown, so text cannot place
    a special id."""
    words = text.casefold().split()[: max_len - 2]
    return [CLS_ID] + [UNK_ID if w in SPECIALS else vocab.id_of(w) for w in words] + [SEP_ID]


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    d_model: int
    n_layers: int
    n_heads: int
    d_ff: int
    max_len: int
    # One layer weight set (layers.0.*) applied at every depth.
    shared_layers: bool

    def __post_init__(self):
        for name in ("d_model", "n_layers", "n_heads", "d_ff", "max_len"):
            if getattr(self, name) < 1:
                raise ShapeError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            raise ShapeError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if self.vocab_size < N_SPECIALS:
            raise ShapeError(f"vocab_size {self.vocab_size} < {N_SPECIALS}")


def desk_config(vocab_size: int, max_len: int = MAX_LEN) -> EncoderConfig:
    return EncoderConfig(
        vocab_size, d_model=64, n_layers=2, n_heads=4, d_ff=256, max_len=max_len,
        shared_layers=False
    )


def paper_config(vocab_size: int, max_len: int = MAX_LEN) -> EncoderConfig:
    return EncoderConfig(
        vocab_size, d_model=768, n_layers=12, n_heads=12, d_ff=3072, max_len=max_len,
        shared_layers=True
    )


_CONFIG_FIELDS = tuple(field.name for field in fields(EncoderConfig))


def config_to_meta(config: EncoderConfig) -> dict[str, str]:
    """The enc.* header keys of config; shared_layers reads 0 or 1."""
    meta = {f"enc.{name}": str(int(getattr(config, name))) for name in _CONFIG_FIELDS}
    meta["enc.dropout_p"] = repr(DROPOUT_P)
    return meta


def check_dropout_meta(meta: Mapping[str, str], key: str) -> None:
    """Raise DataError unless meta[key] records DROPOUT_P."""
    if meta.get(key) != repr(DROPOUT_P):
        raise DataError(f"checkpoint {key}={meta.get(key)!r}; the only dropout rate is {DROPOUT_P}")


def header_int(key: str, value: str) -> int:
    """int(value) for the checkpoint header entry key; a DataError names
    key and the value's first 40 characters when it is not an integer."""
    try:
        return int(value)
    except ValueError:
        raise DataError(f"checkpoint {key} {value[:40]!r} is not an integer") from None


def config_from_meta(meta: Mapping[str, str]) -> EncoderConfig:
    # A header written before enc.shared_layers existed holds a set per layer.
    meta = {"enc.shared_layers": "0", **meta}
    shared = meta["enc.shared_layers"]
    if shared not in ("0", "1"):
        raise DataError(f"checkpoint enc.shared_layers={shared!r}; it must be 0 or 1")
    try:
        kwargs = {name: header_int(f"enc.{name}", meta[f"enc.{name}"]) for name in _CONFIG_FIELDS}
    except KeyError as exc:
        raise DataError(f"checkpoint metadata missing encoder config: {exc}") from None
    check_dropout_meta(meta, "enc.dropout_p")
    return EncoderConfig(**{**kwargs, "shared_layers": shared == "1"})


# Values drawn per rng.uniform call when initialising a weight tensor.
INIT_BLOCK = 65536

# Seed streams: a run with seed s makes each random draw from
# default_rng([s, stream]), one stream per use. A model draws its
# cleaned-text encoder, hashtag encoder and fusion head from the three
# *_INIT_STREAMs. TAPT draws the body and then the MLM head from the
# text stream, so its starting body is the text encoder's.
TEXT_INIT_STREAM = 0
HASHTAG_INIT_STREAM = 1
HEAD_INIT_STREAM = 2
SPLIT_STREAM = 3
TAPT_TRAIN_STREAM = 5
TAPT_MASK_STREAM = 6
FINETUNE_STREAM = 9


def init_array(name: str, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Uniform(-0.05, 0.05) for weights and embeddings; layer-norm gains
    start at 1 and every bias at 0.

    Weights are drawn INIT_BLOCK values at a time into the float32
    result, so no float64 temporary is as large as the tensor. The draws
    and the values are those of one rng.uniform(..., size=shape) call."""
    leaf = name.rsplit(".", 1)[-1]
    if leaf == "gain":
        return np.ones(shape, dtype=np.float32)
    if leaf.startswith("b"):
        return np.zeros(shape, dtype=np.float32)
    out = np.empty(shape, dtype=np.float32)
    flat = out.reshape(-1)
    for start in range(0, flat.size, INIT_BLOCK):
        block = flat[start : start + INIT_BLOCK]
        block[...] = rng.uniform(-0.05, 0.05, size=block.size)
    return out


def init_params(
    table: Mapping[str, tuple[int, ...]], rng: np.random.Generator
) -> dict[str, Tensor]:
    """A fresh trainable parameter set: init_array of each name of
    table, drawn from rng in table order."""
    return {
        name: Tensor(init_array(name, shape, rng), requires_grad=True)
        for name, shape in table.items()
    }


def params_from_arrays(
    table: Mapping[str, tuple[int, ...]], arrays: Mapping[str, np.ndarray], what: str
) -> dict[str, Tensor]:
    """Trainable float32 copies of arrays, in the order of table, whose
    names and shapes must be exactly the table's; what names the tensor
    set in the error."""
    if set(arrays) != set(table):
        missing = sorted(set(table) - set(arrays))
        extra = sorted(set(arrays) - set(table))
        raise ShapeError(f"{what} tensors mismatch: missing {missing}, extra {extra}")
    params = {}
    for name, shape in table.items():
        arr = arrays[name]
        if tuple(arr.shape) != shape:
            raise ShapeError(f"{name}: shape {tuple(arr.shape)} != expected {shape}")
        params[name] = Tensor(np.array(arr, dtype=np.float32), requires_grad=True)
    return params


def encoder_shape_table(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Names and shapes of the encoder body's parameters, in draw order:
    one layers.<i> set per layer, or layers.0 alone when they are shared."""
    e, v = config.d_model, config.vocab_size
    table: dict[str, tuple[int, ...]] = {
        "tok_emb": (v, e),
        "pos_emb": (config.max_len, e),
    }
    for i in range(1 if config.shared_layers else config.n_layers):
        p = f"layers.{i}"
        table[f"{p}.ln1.gain"] = (e,)
        table[f"{p}.ln1.bias"] = (e,)
        for mat in ("wq", "wk", "wv", "wo"):
            table[f"{p}.attn.{mat}"] = (e, e)
        for vec in ("bq", "bk", "bv", "bo"):
            table[f"{p}.attn.{vec}"] = (e,)
        table[f"{p}.ln2.gain"] = (e,)
        table[f"{p}.ln2.bias"] = (e,)
        table[f"{p}.ffn.w1"] = (e, config.d_ff)
        table[f"{p}.ffn.b1"] = (config.d_ff,)
        table[f"{p}.ffn.w2"] = (config.d_ff, e)
        table[f"{p}.ffn.b2"] = (e,)
    table["ln_f.gain"] = (e,)
    table["ln_f.bias"] = (e,)
    return table


def mlm_head_shape_table(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """The masked-LM output layer: mlm.w [E, V] and mlm.b [V]."""
    return {"mlm.w": (config.d_model, config.vocab_size), "mlm.b": (config.vocab_size,)}


def _check_lengths(seqs: Sequence[Sequence[int]], config: EncoderConfig) -> list[int]:
    if not seqs:
        raise ShapeError("encode needs at least one sequence")
    lengths = [len(ids) for ids in seqs]
    if min(lengths) == 0:
        raise ShapeError("encode needs at least one token id")
    if max(lengths) > config.max_len:
        raise ShapeError(f"sequence length {max(lengths)} exceeds max_len {config.max_len}")
    return lengths


def _encode_rows(
    params: Mapping[str, Tensor],
    config: EncoderConfig,
    ids: np.ndarray,
    positions: np.ndarray,
    blocks: Sequence[np.ndarray],
    rng: np.random.Generator | None,
) -> Tensor:
    """The encoder stack over one graph of token rows: ids and positions
    per row, laid out in attention blocks (see numeric.attention).
    Returns the final hidden rows [R, E]."""
    tok = embedding_lookup(params["tok_emb"], ids)
    pos = embedding_lookup(params["pos_emb"], positions)
    x = dropout(add(tok, pos), DROPOUT_P, rng)
    for i in range(config.n_layers):
        p = f"layers.{0 if config.shared_layers else i}"
        normed = layer_norm(x, params[f"{p}.ln1.gain"], params[f"{p}.ln1.bias"])
        q, k, v = (
            linear(normed, params[f"{p}.attn.w{n}"], params[f"{p}.attn.b{n}"]) for n in "qkv"
        )
        heads = attention(q, k, v, config.n_heads, blocks, DROPOUT_P, rng)
        attn_out = linear(heads, params[f"{p}.attn.wo"], params[f"{p}.attn.bo"])
        x = add(x, dropout(attn_out, DROPOUT_P, rng))
        normed = layer_norm(x, params[f"{p}.ln2.gain"], params[f"{p}.ln2.bias"])
        ff = linear(
            relu(linear(normed, params[f"{p}.ffn.w1"], params[f"{p}.ffn.b1"])),
            params[f"{p}.ffn.w2"],
            params[f"{p}.ffn.b2"],
        )
        x = add(x, dropout(ff, DROPOUT_P, rng))
    return layer_norm(x, params["ln_f.gain"], params["ln_f.bias"])


def _packed_hidden(
    params: Mapping[str, Tensor],
    config: EncoderConfig,
    seqs: Sequence[Sequence[int]],
    rng: np.random.Generator | None,
) -> tuple[Tensor, np.ndarray]:
    """The hidden rows [sum(len), E] of id sequences packed end to end in
    stable length order, and the row where each sequence starts, in input
    order: row start[b] + i holds position i of sequence b.

    Each run of sequences of one length is one attention block, so every
    row-wise op runs once over the whole graph and attention works per
    block, with no mask and no padding."""
    lengths = _check_lengths(seqs, config)
    order = np.argsort(lengths, kind="stable")
    packed = [lengths[j] for j in order]
    ids = np.fromiter((i for j in order for i in seqs[j]), dtype=np.intp, count=sum(lengths))
    blocks = [np.zeros((len(list(run)), t), dtype=bool) for t, run in groupby(packed)]
    positions = np.concatenate([np.arange(t) for t in packed])
    hidden = _encode_rows(params, config, ids, positions, blocks, rng)
    start = np.empty(len(seqs), dtype=np.intp)
    start[order] = np.cumsum([0] + packed[:-1])
    return hidden, start


def encode_packed(
    params: Mapping[str, Tensor],
    config: EncoderConfig,
    seqs: Sequence[Sequence[int]],
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Pooled CLS rows [N, E] of N id sequences, in input order, encoded
    as one unpadded graph of sum(len) token rows (see _packed_hidden);
    dropout only when an rng is given.

    Without dropout, each pooled row is the one a graph of that sequence
    alone gives, as far as a matmul row does not depend on the rows
    around it. Sequences already in length order keep their order.
    """
    hidden, start = _packed_hidden(params, config, seqs, rng)
    return gather_rows(hidden, start)


def _corrupt(tid: int, vocab_size: int, rng: np.random.Generator) -> int:
    """The input id at one selected position: 80% MASK, 10% a random
    non-special id, 10% the original id."""
    branch = rng.random()
    if branch < 0.8:
        return MASK_ID
    if branch < 0.9 and vocab_size > N_SPECIALS:
        return int(rng.integers(N_SPECIALS, vocab_size))
    return tid


def mask_tokens(
    ids: Sequence[int], vocab_size: int, rng: np.random.Generator, p: float
) -> tuple[list[int], list[int]]:
    """BERT-style masking: select each non-special position with
    probability p; of the selected, 80% become MASK, 10% a random
    non-special id, 10% stay. targets holds the original id at selected
    positions and IGNORE_ID elsewhere. Specials are never selected.
    """
    masked = [int(i) for i in ids]
    targets = [IGNORE_ID] * len(masked)
    for i, tid in enumerate(masked):
        if tid < N_SPECIALS:
            continue
        if rng.random() >= p:
            continue
        targets[i] = tid
        masked[i] = _corrupt(tid, vocab_size, rng)
    return masked, targets


def mask_with_target(
    ids: Sequence[int], vocab_size: int, rng: np.random.Generator
) -> tuple[list[int], list[int]]:
    """mask_tokens at MASK_PROB with at least one target: when its draw
    selects nothing, one non-special position picked with rng.integers
    is selected and corrupted by the same 80/10/10 rule. ids must hold a
    non-special id."""
    masked, targets = mask_tokens(ids, vocab_size, rng, MASK_PROB)
    if all(t == IGNORE_ID for t in targets):
        maskable = [i for i, tid in enumerate(ids) if tid >= N_SPECIALS]
        if not maskable:
            raise ValueError("sequence has no maskable token")
        i = maskable[int(rng.integers(len(maskable)))]
        targets[i] = int(ids[i])
        masked[i] = _corrupt(targets[i], vocab_size, rng)
    return masked, targets


def mlm_loss(
    params: Mapping[str, Tensor],
    config: EncoderConfig,
    masked_batch: Sequence[Sequence[int]],
    target_batch: Sequence[Sequence[int]],
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Masked-LM loss of a batch of lines under params, which hold the
    encoder body and the MLM head: the mean over lines of each line's
    mean vocab cross-entropy at its target positions; dropout only when
    an rng is given."""
    if len(masked_batch) != len(target_batch) or any(
        len(m) != len(t) for m, t in zip(masked_batch, target_batch)
    ):
        raise ShapeError("masked ids and targets differ in shape")
    per_line = [[i for i, t in enumerate(targets) if t != IGNORE_ID] for targets in target_batch]
    if not all(per_line):
        raise ValueError("mlm_loss needs at least one target position per line")
    hidden, start = _packed_hidden(params, config, masked_batch, rng)
    rows, labels, row_weights = [], [], []
    for b, (positions, targets) in enumerate(zip(per_line, target_batch)):
        rows.extend(start[b] + i for i in positions)
        labels.extend(int(targets[i]) for i in positions)
        row_weights.extend([1.0 / (len(positions) * len(per_line))] * len(positions))
    selected = gather_rows(hidden, rows)
    logits = linear(selected, params["mlm.w"], params["mlm.b"])
    return cross_entropy(logits, labels, row_weights)
