"""Dual-encoder fusion classifier for one binary task.

Cleaned text and hashtag flow each pass through their own encoder and a
two-layer projection; the two projected vectors and the mean emoji
vector are concatenated, passed through a fusion linear layer, and
classified by a small MLP ending in two logits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .checkpoint import checkpoint_bytes, parse_checkpoint, read_checkpoint
from .encoder import (
    EncoderConfig,
    EncoderWeights,
    Vocab,
    config_from_meta,
    config_to_meta,
    encode_batch,
    encode_ids,
    init_array,
)
from .errors import DataError, ShapeError
from .numeric import Tensor, add_bias, concat_rows, dropout, matmul, relu
from .preprocess import FeatureBundle
from .tapt import HASHTAG_INIT_STREAM, TEXT_INIT_STREAM

_HEAD_INIT_STREAM = 2


@dataclass(frozen=True)
class FusionConfig:
    encoder: EncoderConfig
    emoji_dim: int = 300
    mlp_hidden: tuple[int, ...] = (256, 64)
    dropout_p: float = 0.1

    @property
    def fused_dim(self) -> int:
        return 2 * self.encoder.d_model + self.emoji_dim


def head_shape_table(config: FusionConfig) -> dict[str, tuple[int, ...]]:
    e = config.encoder.d_model
    f = config.fused_dim
    table: dict[str, tuple[int, ...]] = {}
    for proj in ("text_proj", "hash_proj"):
        table[f"{proj}.w1"] = (e, e)
        table[f"{proj}.b1"] = (e,)
        table[f"{proj}.w2"] = (e, e)
        table[f"{proj}.b2"] = (e,)
    table["fusion.w"] = (f, f)
    table["fusion.b"] = (f,)
    width = f
    for i, hidden in enumerate(config.mlp_hidden):
        table[f"mlp.{i}.w"] = (width, hidden)
        table[f"mlp.{i}.b"] = (hidden,)
        width = hidden
    table["mlp.out.w"] = (width, 2)
    table["mlp.out.b"] = (2,)
    return table


class FusionModel:
    """Two distinct encoder parameter sets plus the fusion head."""

    def __init__(
        self,
        config: FusionConfig,
        vocab: Vocab,
        task: str,
        text_encoder: EncoderWeights,
        hashtag_encoder: EncoderWeights,
        head: dict[str, Tensor],
    ):
        if text_encoder is hashtag_encoder:
            raise ShapeError("text and hashtag encoders must be distinct parameter sets")
        self.config = config
        self.vocab = vocab
        self.task = task
        self.text_encoder = text_encoder
        self.hashtag_encoder = hashtag_encoder
        self.head = head

    def named_params(self) -> dict[str, Tensor]:
        params = {f"text_enc.{k}": p for k, p in self.text_encoder.params.items()}
        params.update({f"hash_enc.{k}": p for k, p in self.hashtag_encoder.params.items()})
        params.update(self.head)
        return params


def text_encoder_init(config: EncoderConfig, base_seed: int) -> EncoderWeights:
    return EncoderWeights.init(config, np.random.default_rng([base_seed, TEXT_INIT_STREAM]))


def hashtag_encoder_init(config: EncoderConfig, base_seed: int) -> EncoderWeights:
    return EncoderWeights.init(config, np.random.default_rng([base_seed, HASHTAG_INIT_STREAM]))


def init_model(
    config: FusionConfig,
    vocab: Vocab,
    task: str,
    tapt_weights: EncoderWeights | None = None,
    base_seed: int = 0,
) -> FusionModel:
    """Fresh model; the cleaned-text encoder takes the adapted weights
    when given, the hashtag encoder always takes the base init.

    The hashtag and head draws come from their own seed streams, so they
    are identical whether or not adapted weights are supplied.
    """
    enc_cfg = config.encoder
    if enc_cfg.vocab_size != len(vocab):
        raise ShapeError(f"config vocab_size {enc_cfg.vocab_size} != vocab size {len(vocab)}")
    if tapt_weights is not None:
        expected = EncoderWeights.shape_table(enc_cfg)
        for name, shape in expected.items():
            got = tapt_weights.params.get(name)
            if got is None or tuple(got.data.shape) != shape:
                raise ShapeError(f"adapted weights do not match encoder config at {name}")
        text_encoder = tapt_weights.copy()
    else:
        text_encoder = text_encoder_init(enc_cfg, base_seed)
    hashtag_encoder = hashtag_encoder_init(enc_cfg, base_seed)
    rng = np.random.default_rng([base_seed, _HEAD_INIT_STREAM])
    head = {
        name: Tensor(init_array(name, shape, rng), requires_grad=True)
        for name, shape in head_shape_table(config).items()
    }
    return FusionModel(config, vocab, task, text_encoder, hashtag_encoder, head)


def _project(head: Mapping[str, Tensor], prefix: str, pooled: Tensor) -> Tensor:
    h = relu(add_bias(matmul(pooled, head[f"{prefix}.w1"]), head[f"{prefix}.b1"]))
    return add_bias(matmul(h, head[f"{prefix}.w2"]), head[f"{prefix}.b2"])


@dataclass(frozen=True)
class EncodedPost:
    """A feature bundle in model input form: the token ids of both
    encoders and the emoji mean vector."""

    text_ids: list[int]
    hash_ids: list[int]
    emoji_vec: np.ndarray


def encode_post(model: FusionModel, bundle: FeatureBundle) -> EncodedPost:
    """The bundle in model input form; training encodes each example
    once per run."""
    cfg = model.config
    vec = np.asarray(bundle.emoji_vec)
    if vec.shape != (cfg.emoji_dim,):
        raise ShapeError(f"emoji vector shape {vec.shape} != ({cfg.emoji_dim},)")
    max_len = cfg.encoder.max_len
    return EncodedPost(
        encode_ids(model.vocab, bundle.cleaned_text, max_len),
        encode_ids(model.vocab, bundle.hashtag_flow, max_len),
        vec,
    )


def _fused_input(
    model: FusionModel,
    batch: Sequence[EncodedPost],
    training: bool,
    rng: np.random.Generator | None,
) -> Tensor:
    enc_cfg = model.config.encoder
    text_pooled, _ = encode_batch(
        model.text_encoder, enc_cfg, [x.text_ids for x in batch], training, rng
    )
    hash_pooled, _ = encode_batch(
        model.hashtag_encoder, enc_cfg, [x.hash_ids for x in batch], training, rng
    )
    dtype = model.head["fusion.w"].data.dtype
    emoji = Tensor(np.stack([x.emoji_vec for x in batch]).astype(dtype))
    return concat_rows(
        [
            _project(model.head, "text_proj", text_pooled),
            _project(model.head, "hash_proj", hash_pooled),
            emoji,
        ]
    )


def fused_vector(model: FusionModel, bundle: FeatureBundle) -> np.ndarray:
    """The concatenated feature vector fed to the fusion layer (length
    2*d_model + emoji_dim)."""
    batch = [encode_post(model, bundle)]
    return _fused_input(model, batch, training=False, rng=None).data[0].copy()


def forward(
    model: FusionModel,
    batch: Sequence[EncodedPost],
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Logits [B, 2] for a batch of encoded posts, computed as one padded
    graph; dropout only when training."""
    cfg = model.config
    head = model.head
    fused = add_bias(
        matmul(_fused_input(model, batch, training, rng), head["fusion.w"]),
        head["fusion.b"],
    )
    x = fused
    for i in range(len(cfg.mlp_hidden)):
        x = add_bias(matmul(x, head[f"mlp.{i}.w"]), head[f"mlp.{i}.b"])
        x = dropout(relu(x), cfg.dropout_p, training, rng)
    return add_bias(matmul(x, head["mlp.out.w"]), head["mlp.out.b"])


def prob_of_positive(logits_row: np.ndarray) -> float:
    """Softmax probability of class 1 from a two-logit row."""
    z = np.asarray(logits_row, dtype=np.float64)
    z = z - z.max()
    e = np.exp(z)
    return float(e[1] / e.sum())


def predict(model: FusionModel, post: FeatureBundle | EncodedPost) -> tuple[int, float]:
    """(label, positive-class probability); label is 1 iff prob >= 0.5.
    One post at a time: a padded batch of mixed lengths costs more than
    it saves at inference."""
    if not isinstance(post, EncodedPost):
        post = encode_post(model, post)
    logits = forward(model, [post], training=False).data[0]
    prob = prob_of_positive(logits)
    return (1 if prob >= 0.5 else 0, prob)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def _fusion_meta(model: FusionModel, extra: Mapping[str, str] | None) -> dict[str, str]:
    meta = {
        "kind": "fusion",
        "task": model.task,
        "emoji_dim": str(model.config.emoji_dim),
        "mlp_hidden": ",".join(str(h) for h in model.config.mlp_hidden),
        "dropout_p": repr(model.config.dropout_p),
        "vocab_sha256": model.vocab.sha256(),
    }
    meta.update(config_to_meta(model.config.encoder))
    if extra:
        meta.update(extra)
    return meta


def model_to_bytes(model: FusionModel, extra: Mapping[str, str] | None = None) -> bytes:
    tensors = {name: p.data for name, p in model.named_params().items()}
    return checkpoint_bytes(_fusion_meta(model, extra), tensors)


def save_model(model: FusionModel, path, extra: Mapping[str, str] | None = None) -> None:
    with open(path, "wb") as fh:
        fh.write(model_to_bytes(model, extra))


def _model_from_parsed(
    metadata: dict[str, str], arrays: dict[str, np.ndarray], vocab: Vocab
) -> tuple[FusionModel, dict[str, str]]:
    if metadata.get("kind") != "fusion":
        raise DataError("checkpoint does not hold a fusion model")
    if metadata.get("vocab_sha256") != vocab.sha256():
        raise DataError("vocab hash mismatch between checkpoint and current vocab")
    enc_cfg = config_from_meta(metadata)
    try:
        mlp_hidden = tuple(int(x) for x in metadata["mlp_hidden"].split(",") if x)
        config = FusionConfig(
            encoder=enc_cfg,
            emoji_dim=int(metadata["emoji_dim"]),
            mlp_hidden=mlp_hidden,
            dropout_p=float(metadata["dropout_p"]),
        )
    except (KeyError, ValueError) as exc:
        raise DataError(f"checkpoint metadata missing fusion config: {exc}") from None
    text_arrays = {}
    hash_arrays = {}
    head_arrays = {}
    for name, arr in arrays.items():
        if name.startswith("text_enc."):
            text_arrays[name[len("text_enc.") :]] = arr
        elif name.startswith("hash_enc."):
            hash_arrays[name[len("hash_enc.") :]] = arr
        else:
            head_arrays[name] = arr
    text_encoder = EncoderWeights.from_arrays(enc_cfg, text_arrays)
    hashtag_encoder = EncoderWeights.from_arrays(enc_cfg, hash_arrays)
    expected = head_shape_table(config)
    if set(head_arrays) != set(expected):
        raise ShapeError("fusion head tensors do not match the configuration")
    head = {}
    for name, shape in expected.items():
        arr = head_arrays[name]
        if tuple(arr.shape) != shape:
            raise ShapeError(f"{name}: shape {tuple(arr.shape)} != expected {shape}")
        head[name] = Tensor(np.array(arr, dtype=np.float32), requires_grad=True)
    task = metadata.get("task", "")
    model = FusionModel(config, vocab, task, text_encoder, hashtag_encoder, head)
    return model, metadata


def model_from_bytes(blob: bytes, vocab: Vocab) -> FusionModel:
    metadata, arrays = parse_checkpoint(blob)
    model, _ = _model_from_parsed(metadata, arrays, vocab)
    return model


def load_model(path, vocab: Vocab) -> tuple[FusionModel, dict[str, str]]:
    metadata, arrays = read_checkpoint(path)
    return _model_from_parsed(metadata, arrays, vocab)
