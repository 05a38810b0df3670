"""Compact transformer encoder with learned positions and an MLM head.

Pre-norm residual blocks, CLS pooling, word-level vocabulary with five
fixed specials. A batch of sequences runs as one padded graph. Two
named profiles: "desk" (small, exercised by tests) and "paper"
(768-dim, 12 layers).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError, ShapeError
from .numeric import (
    Tensor,
    add,
    add_bias,
    attention,
    cross_entropy,
    dropout,
    embedding_lookup,
    gather_rows,
    layer_norm,
    matmul,
    relu,
)

SPECIALS = ("<pad>", "<unk>", "<cls>", "<sep>", "<mask>")
PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID = range(5)
N_SPECIALS = len(SPECIALS)
IGNORE_ID = -1


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
    def build(cls, lines: Iterable[str], min_count: int = 1) -> "Vocab":
        """Count case-folded whitespace tokens and keep those seen at
        least min_count times, most frequent first."""
        counts: dict[str, int] = {}
        for line in lines:
            for word in line.casefold().split():
                counts[word] = counts.get(word, 0) + 1
        words = sorted(
            (w for w, c in counts.items() if c >= min_count and w not in SPECIALS),
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
        with open(path, "r", encoding="utf-8") as fh:
            tokens = fh.read().splitlines()
        if len(tokens) < N_SPECIALS:
            raise DataError(f"{path}: vocab file too short")
        return cls(tokens)

    def sha256(self) -> str:
        return hashlib.sha256("\n".join(self.tokens).encode("utf-8")).hexdigest()


def encode_ids(vocab: Vocab, text: str, max_len: int = 128) -> list[int]:
    """[CLS] + case-folded word ids + [SEP], truncated to max_len total."""
    words = text.casefold().split()[: max_len - 2]
    return [CLS_ID] + [vocab.id_of(w) for w in words] + [SEP_ID]


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 256
    max_len: int = 128
    dropout_p: float = 0.1

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ShapeError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if self.vocab_size < N_SPECIALS:
            raise ShapeError(f"vocab_size {self.vocab_size} < {N_SPECIALS}")


def desk_config(vocab_size: int, max_len: int = 128) -> EncoderConfig:
    return EncoderConfig(vocab_size, d_model=64, n_layers=2, n_heads=4, d_ff=256, max_len=max_len)


def paper_config(vocab_size: int, max_len: int = 128) -> EncoderConfig:
    return EncoderConfig(vocab_size, d_model=768, n_layers=12, n_heads=12, d_ff=3072, max_len=max_len)


_CONFIG_FIELDS = ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff", "max_len")


def config_to_meta(config: EncoderConfig) -> dict[str, str]:
    meta = {f"enc.{name}": str(getattr(config, name)) for name in _CONFIG_FIELDS}
    meta["enc.dropout_p"] = repr(config.dropout_p)
    return meta


def config_from_meta(meta: Mapping[str, str]) -> EncoderConfig:
    try:
        kwargs = {name: int(meta[f"enc.{name}"]) for name in _CONFIG_FIELDS}
        kwargs["dropout_p"] = float(meta["enc.dropout_p"])
    except (KeyError, ValueError) as exc:
        raise DataError(f"checkpoint metadata missing encoder config: {exc}") from None
    return EncoderConfig(**kwargs)


def init_array(name: str, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Uniform(-0.05, 0.05) for weights and embeddings; layer-norm gains
    start at 1 and every bias at 0."""
    leaf = name.rsplit(".", 1)[-1]
    if leaf == "gain":
        return np.ones(shape, dtype=np.float32)
    if leaf.startswith("b"):
        return np.zeros(shape, dtype=np.float32)
    return rng.uniform(-0.05, 0.05, size=shape).astype(np.float32)


class EncoderWeights:
    """Named parameter tensors of one encoder, in a fixed order."""

    def __init__(self, params: dict[str, Tensor]):
        self.params = params

    @staticmethod
    def shape_table(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
        e, v = config.d_model, config.vocab_size
        table: dict[str, tuple[int, ...]] = {
            "tok_emb": (v, e),
            "pos_emb": (config.max_len, e),
        }
        for i in range(config.n_layers):
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
        table["mlm.w"] = (e, v)
        table["mlm.b"] = (v,)
        return table

    @classmethod
    def init(cls, config: EncoderConfig, rng: np.random.Generator) -> "EncoderWeights":
        params = {
            name: Tensor(init_array(name, shape, rng), requires_grad=True)
            for name, shape in cls.shape_table(config).items()
        }
        return cls(params)

    @classmethod
    def from_arrays(cls, config: EncoderConfig, arrays: Mapping[str, np.ndarray]) -> "EncoderWeights":
        table = cls.shape_table(config)
        if set(arrays) != set(table):
            missing = sorted(set(table) - set(arrays))
            extra = sorted(set(arrays) - set(table))
            raise ShapeError(f"encoder tensors mismatch: missing {missing}, extra {extra}")
        params = {}
        for name, shape in table.items():
            arr = arrays[name]
            if tuple(arr.shape) != shape:
                raise ShapeError(f"{name}: shape {tuple(arr.shape)} != expected {shape}")
            params[name] = Tensor(np.array(arr, dtype=np.float32), requires_grad=True)
        return cls(params)

    def copy(self) -> "EncoderWeights":
        return EncoderWeights(
            {k: Tensor(p.data.copy(), requires_grad=True) for k, p in self.params.items()}
        )

    def astype(self, dtype) -> "EncoderWeights":
        return EncoderWeights(
            {k: Tensor(p.data.astype(dtype), requires_grad=True) for k, p in self.params.items()}
        )

    def arrays(self) -> dict[str, np.ndarray]:
        return {k: p.data for k, p in self.params.items()}

    def equals(self, other: "EncoderWeights") -> bool:
        return set(self.params) == set(other.params) and all(
            np.array_equal(p.data, other.params[k].data) for k, p in self.params.items()
        )


def encode_batch(
    weights: EncoderWeights,
    config: EncoderConfig,
    batch: Sequence[Sequence[int]],
    training: bool = False,
    rng: np.random.Generator | None = None,
    attn_sink: list | None = None,
) -> tuple[Tensor, Tensor]:
    """Run the encoder stack over B id sequences as one padded graph.

    Sequences are right-padded with PAD to the longest length T, and PAD
    keys are masked out of attention, so padding does not change the
    other positions. Returns (pooled CLS rows [B,E], hidden [B*T,E]);
    row b*T + t of hidden is position t of sequence b.
    """
    if not batch:
        raise ShapeError("encode needs at least one sequence")
    t = max(len(ids) for ids in batch)
    if min(len(ids) for ids in batch) == 0:
        raise ShapeError("encode needs at least one token id")
    if t > config.max_len:
        raise ShapeError(f"sequence length {t} exceeds max_len {config.max_len}")
    padded = np.full((len(batch), t), PAD_ID, dtype=np.intp)
    for row, ids in zip(padded, batch):
        row[: len(ids)] = ids
    bad = (padded < 0) | (padded >= config.vocab_size)
    if bad.any():
        raise ValueError(
            f"token id {int(padded[bad][0])} out of range for vocab of {config.vocab_size}"
        )
    params = weights.params
    tok = embedding_lookup(params["tok_emb"], padded.reshape(-1))
    pos = embedding_lookup(params["pos_emb"], np.tile(np.arange(t), len(batch)))
    x = dropout(add(tok, pos), config.dropout_p, training, rng)
    key_pad = padded == PAD_ID
    for i in range(config.n_layers):
        p = f"layers.{i}"
        normed = layer_norm(x, params[f"{p}.ln1.gain"], params[f"{p}.ln1.bias"])
        q, k, v = (
            add_bias(matmul(normed, params[f"{p}.attn.w{n}"]), params[f"{p}.attn.b{n}"])
            for n in "qkv"
        )
        heads = attention(
            q, k, v, config.n_heads, key_pad, config.dropout_p, training, rng, attn_sink
        )
        attn_out = add_bias(matmul(heads, params[f"{p}.attn.wo"]), params[f"{p}.attn.bo"])
        x = add(x, dropout(attn_out, config.dropout_p, training, rng))
        normed = layer_norm(x, params[f"{p}.ln2.gain"], params[f"{p}.ln2.bias"])
        ff = add_bias(
            matmul(
                relu(add_bias(matmul(normed, params[f"{p}.ffn.w1"]), params[f"{p}.ffn.b1"])),
                params[f"{p}.ffn.w2"],
            ),
            params[f"{p}.ffn.b2"],
        )
        x = add(x, dropout(ff, config.dropout_p, training, rng))
    hidden = layer_norm(x, params["ln_f.gain"], params["ln_f.bias"])
    pooled = gather_rows(hidden, range(0, len(batch) * t, t))
    return pooled, hidden


def encode(
    weights: EncoderWeights,
    config: EncoderConfig,
    ids: Sequence[int],
    training: bool = False,
    rng: np.random.Generator | None = None,
    attn_sink: list | None = None,
) -> tuple[Tensor, Tensor]:
    """encode_batch of one sequence: (pooled CLS row [1,E], hidden [T,E])."""
    return encode_batch(weights, config, [ids], training, rng, attn_sink)


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
    ids: Sequence[int],
    vocab_size: int,
    rng: np.random.Generator,
    p: float = 0.15,
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
    ids: Sequence[int],
    vocab_size: int,
    rng: np.random.Generator,
    p: float = 0.15,
) -> tuple[list[int], list[int]]:
    """mask_tokens with at least one target: when its draw selects
    nothing, one non-special position picked with rng.integers is
    selected and corrupted by the same 80/10/10 rule. ids must hold a
    non-special id."""
    masked, targets = mask_tokens(ids, vocab_size, rng, p)
    if all(t == IGNORE_ID for t in targets):
        maskable = [i for i, tid in enumerate(ids) if tid >= N_SPECIALS]
        if not maskable:
            raise ValueError("sequence has no maskable token")
        i = maskable[int(rng.integers(len(maskable)))]
        targets[i] = int(ids[i])
        masked[i] = _corrupt(targets[i], vocab_size, rng)
    return masked, targets


def mlm_loss(
    weights: EncoderWeights,
    config: EncoderConfig,
    masked_batch: Sequence[Sequence[int]],
    target_batch: Sequence[Sequence[int]],
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Masked-LM loss of a batch of lines: the mean over lines of each
    line's mean vocab cross-entropy at its target positions."""
    if len(masked_batch) != len(target_batch) or any(
        len(m) != len(t) for m, t in zip(masked_batch, target_batch)
    ):
        raise ShapeError("masked ids and targets differ in shape")
    per_line = [[i for i, t in enumerate(targets) if t != IGNORE_ID] for targets in target_batch]
    if not all(per_line):
        raise ValueError("mlm_loss needs at least one target position per line")
    _, hidden = encode_batch(weights, config, masked_batch, training, rng)
    t = hidden.shape[0] // len(masked_batch)
    rows, labels, row_weights = [], [], []
    for b, (positions, targets) in enumerate(zip(per_line, target_batch)):
        rows.extend(b * t + i for i in positions)
        labels.extend(int(targets[i]) for i in positions)
        row_weights.extend([1.0 / (len(positions) * len(per_line))] * len(positions))
    selected = gather_rows(hidden, rows)
    logits = add_bias(matmul(selected, weights.params["mlm.w"]), weights.params["mlm.b"])
    return cross_entropy(logits, labels, row_weights)
