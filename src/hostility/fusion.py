"""Dual-encoder fusion classifier for one binary task.

Cleaned text and hashtag flow each pass through their own encoder and a
two-layer projection; the two projected vectors and the mean emoji
vector are concatenated, passed through a fusion linear layer, and
classified by a small MLP ending in two logits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .checkpoint import checkpoint_bytes, parse_checkpoint, read_checkpoint
from .encoder import (
    DROPOUT_P,
    HASHTAG_INIT_STREAM,
    HEAD_INIT_STREAM,
    MAX_LAYERS,
    TEXT_INIT_STREAM,
    EncoderConfig,
    Vocab,
    check_dropout_meta,
    config_from_meta,
    config_to_meta,
    encode_ids,
    encode_packed,
    encoder_shape_table,
    header_int,
    init_params,
    params_from_arrays,
)
from .errors import DataError, ShapeError
from .numeric import Tensor, concat_rows, dropout, linear, relu
from .preprocess import FeatureBundle

# At most this many token rows (the sum of sequence lengths) per encoder
# graph when scoring; a longer sequence runs alone.
SCORE_ROWS = 512
# The length of an emoji vector when no emoji table sets it.
EMOJI_DIM = 300


@dataclass(frozen=True)
class FusionConfig:
    encoder: EncoderConfig
    emoji_dim: int = EMOJI_DIM
    mlp_hidden: tuple[int, ...] = (256, 64)

    def __post_init__(self):
        if self.emoji_dim < 0:
            raise ShapeError(f"emoji_dim must be >= 0, got {self.emoji_dim}")

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


@dataclass(frozen=True, eq=False)
class FusionModel:
    """Two distinct encoder parameter sets plus the fusion head, each a
    name -> Tensor dict. Models compare and hash by identity."""

    config: FusionConfig
    vocab: Vocab
    task: str
    text_encoder: dict[str, Tensor]
    hashtag_encoder: dict[str, Tensor]
    head: dict[str, Tensor]

    def __post_init__(self):
        if self.text_encoder is self.hashtag_encoder:
            raise ShapeError("text and hashtag encoders must be distinct parameter sets")

    def named_params(self) -> dict[str, Tensor]:
        params = {f"text_enc.{k}": p for k, p in self.text_encoder.items()}
        params.update({f"hash_enc.{k}": p for k, p in self.hashtag_encoder.items()})
        params.update(self.head)
        return params


def text_encoder_init(config: EncoderConfig, base_seed: int) -> dict[str, Tensor]:
    rng = np.random.default_rng([base_seed, TEXT_INIT_STREAM])
    return init_params(encoder_shape_table(config), rng)


def hashtag_encoder_init(config: EncoderConfig, base_seed: int) -> dict[str, Tensor]:
    rng = np.random.default_rng([base_seed, HASHTAG_INIT_STREAM])
    return init_params(encoder_shape_table(config), rng)


def init_model(
    config: FusionConfig,
    vocab: Vocab,
    task: str,
    tapt_weights: Mapping[str, Tensor] | None = None,
    *,
    base_seed: int,
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
        arrays = {name: p.data for name, p in tapt_weights.items()}
        text_encoder = params_from_arrays(encoder_shape_table(enc_cfg), arrays, "encoder")
    else:
        text_encoder = text_encoder_init(enc_cfg, base_seed)
    hashtag_encoder = hashtag_encoder_init(enc_cfg, base_seed)
    rng = np.random.default_rng([base_seed, HEAD_INIT_STREAM])
    head = init_params(head_shape_table(config), rng)
    return FusionModel(config, vocab, task, text_encoder, hashtag_encoder, head)


def _project(head: Mapping[str, Tensor], prefix: str, pooled: Tensor) -> Tensor:
    h = relu(linear(pooled, head[f"{prefix}.w1"], head[f"{prefix}.b1"]))
    return linear(h, head[f"{prefix}.w2"], head[f"{prefix}.b2"])


def _token_ids(model: FusionModel, texts: Sequence[str]) -> list[list[int]]:
    max_len = model.config.encoder.max_len
    return [encode_ids(model.vocab, text, max_len) for text in texts]


def _fused_input(
    model: FusionModel,
    posts: Sequence[FeatureBundle],
    pool: Callable[[Mapping[str, Tensor], list[list[int]]], Tensor],
) -> Tensor:
    """The fusion-layer input of the posts, with each encoder's token ids
    pooled by pool(encoder_params, ids): [B, fused_dim] from pooled rows
    [B, E], or a stack [B, 1, fused_dim] from pooled rows [B, 1, E]."""
    text_pooled = pool(model.text_encoder, _token_ids(model, [x.cleaned_text for x in posts]))
    hash_pooled = pool(model.hashtag_encoder, _token_ids(model, [x.hashtag_flow for x in posts]))
    dim = model.config.emoji_dim
    for x in posts:
        if np.shape(x.emoji_vec) != (dim,):
            raise ShapeError(f"emoji vector shape {np.shape(x.emoji_vec)} != ({dim},)")
    emoji = np.stack([x.emoji_vec for x in posts]).astype(model.head["fusion.w"].data.dtype)
    emoji = Tensor(emoji.reshape(text_pooled.shape[:-1] + emoji.shape[-1:]))
    return concat_rows(
        [
            _project(model.head, "text_proj", text_pooled),
            _project(model.head, "hash_proj", hash_pooled),
            emoji,
        ]
    )


def _classify(model: FusionModel, fused_in: Tensor, rng: np.random.Generator | None) -> Tensor:
    """Fusion layer and MLP: logits [B, 2], or [B, 1, 2] for a stacked
    input; dropout only when an rng is given."""
    cfg = model.config
    head = model.head
    x = linear(fused_in, head["fusion.w"], head["fusion.b"])
    for i in range(len(cfg.mlp_hidden)):
        x = linear(x, head[f"mlp.{i}.w"], head[f"mlp.{i}.b"])
        x = dropout(relu(x), DROPOUT_P, rng)
    return linear(x, head["mlp.out.w"], head["mlp.out.b"])


def forward(
    model: FusionModel,
    batch: Sequence[FeatureBundle],
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Logits [B, 2] for a batch of FeatureBundles; each encoder runs the
    batch's token ids as one packed graph (see encoder.encode_packed),
    and dropout applies only when an rng is given."""
    enc_cfg = model.config.encoder
    fused_in = _fused_input(model, batch, lambda p, ids: encode_packed(p, enc_cfg, ids, rng))
    return _classify(model, fused_in, rng)


def prob_of_positive(logits_row: np.ndarray) -> float:
    """Softmax probability of class 1 from a two-logit row."""
    z = np.asarray(logits_row, dtype=np.float64)
    z = z - z.max()
    e = np.exp(z)
    return float(e[1] / e.sum())


def _packed_graphs(distinct: Sequence[tuple[int, ...]]) -> list[list[tuple[int, ...]]]:
    """distinct sequences sorted by length and cut into graphs of at most
    SCORE_ROWS token rows; a sequence longer than that is a graph alone."""
    graphs: list[list[tuple[int, ...]]] = []
    rows = SCORE_ROWS
    for ids in sorted(distinct, key=len):
        if rows + len(ids) > SCORE_ROWS:
            graphs.append([])
            rows = 0
        graphs[-1].append(ids)
        rows += len(ids)
    return graphs


def _pooled_rows(
    params: Mapping[str, Tensor], config: EncoderConfig, seqs: Sequence[list[int]]
) -> np.ndarray:
    """The pooled rows [N, 1, E] of N id sequences, in input order.

    Each distinct sequence is encoded once, packed with others of any
    length into unpadded graphs (see encode_packed and _packed_graphs),
    so every row is the one a graph of that sequence alone gives.
    """
    rows: dict[tuple[int, ...], np.ndarray] = {}
    for graph in _packed_graphs(list(dict.fromkeys(tuple(ids) for ids in seqs))):
        pooled = encode_packed(params, config, graph)
        rows.update(zip(graph, pooled.data))
    return np.stack([rows[tuple(ids)] for ids in seqs])[:, None, :]


def _fused_rows(model: FusionModel, posts: Sequence[FeatureBundle]) -> Tensor:
    """The fusion-layer inputs of the posts as a stack [N, 1, fused_dim],
    in input order; both encoders go through `_pooled_rows`."""
    enc_cfg = model.config.encoder
    return _fused_input(model, posts, lambda p, ids: Tensor(_pooled_rows(p, enc_cfg, ids)))


def _scoring_view(model: FusionModel) -> FusionModel:
    """The model over new Tensors that wrap its own parameter arrays, with
    no copy and requires_grad off. Ops on them record no tape, so each
    intermediate is freed as soon as the next op is done with it, and
    the model's own parameters are left as they were."""

    def frozen(params: Mapping[str, Tensor]) -> dict[str, Tensor]:
        return {name: Tensor(p.data) for name, p in params.items()}

    return replace(
        model,
        text_encoder=frozen(model.text_encoder),
        hashtag_encoder=frozen(model.hashtag_encoder),
        head=frozen(model.head),
    )


def fused_vector(model: FusionModel, bundle: FeatureBundle) -> np.ndarray:
    """The concatenated feature vector fed to the fusion layer (length
    2*d_model + emoji_dim)."""
    return _fused_rows(_scoring_view(model), [bundle]).data[0, 0].copy()


def predict_batch(model: FusionModel, posts: Sequence[FeatureBundle]) -> list[tuple[int, float]]:
    """(label, positive-class probability) per FeatureBundle, in input
    order; label is 1 iff prob >= 0.5.

    The head runs once, on the posts' fusion inputs stacked as
    [N, 1, fused_dim]: each [1, F] @ W of the stack gets the BLAS kernel
    of a one-row matmul, where a [N, F] matmul may round differently. So
    each result is exactly that of `forward` on the post alone.
    """
    if not posts:
        return []
    view = _scoring_view(model)
    logits = _classify(view, _fused_rows(view, posts), None).data
    probs = [prob_of_positive(row[0]) for row in logits]
    return [(1 if prob >= 0.5 else 0, prob) for prob in probs]


def predict(model: FusionModel, bundle: FeatureBundle) -> tuple[int, float]:
    """(label, positive-class probability) of one post: predict_batch of
    that post alone."""
    return predict_batch(model, [bundle])[0]


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def _fusion_meta(model: FusionModel, extra: Mapping[str, str]) -> dict[str, str]:
    return {
        "kind": "fusion",
        "task": model.task,
        "emoji_dim": str(model.config.emoji_dim),
        "mlp_hidden": ",".join(str(h) for h in model.config.mlp_hidden),
        "dropout_p": repr(DROPOUT_P),
        "vocab_sha256": model.vocab.sha256(),
        **config_to_meta(model.config.encoder),
        **extra,
    }


def model_to_bytes(model: FusionModel, extra: Mapping[str, str]) -> bytes:
    tensors = {name: p.data for name, p in model.named_params().items()}
    return checkpoint_bytes(_fusion_meta(model, extra), tensors)


def fusion_config_from_meta(metadata: Mapping[str, str], vocab: Vocab) -> FusionConfig:
    """The model configuration a fusion checkpoint's metadata declares.
    Metadata of another kind, or of a model built on another vocab,
    raises DataError."""
    if metadata.get("kind") != "fusion":
        raise DataError("checkpoint does not hold a fusion model")
    if metadata.get("vocab_sha256") != vocab.sha256():
        raise DataError("vocab hash mismatch between checkpoint and current vocab")
    enc_cfg = config_from_meta(metadata)
    check_dropout_meta(metadata, "dropout_p")
    try:
        hidden = metadata["mlp_hidden"].split(",")
        emoji_dim = header_int("emoji_dim", metadata["emoji_dim"])
    except KeyError as exc:
        raise DataError(f"checkpoint metadata missing fusion config: {exc}") from None
    mlp_hidden = tuple(header_int("mlp_hidden entry", x) for x in hidden if x)
    return FusionConfig(enc_cfg, emoji_dim=emoji_dim, mlp_hidden=mlp_hidden)


def _model_from_parsed(
    metadata: dict[str, str], arrays: dict[str, np.ndarray], vocab: Vocab
) -> FusionModel:
    config = fusion_config_from_meta(metadata, vocab)
    enc_cfg = config.encoder
    # Each layer holds a tensor: refuse a larger count before any shape table.
    # A shared encoder layer set is held once at any depth, so MAX_LAYERS
    # bounds the depth as well.
    for count, layers in ((enc_cfg.n_layers, "layers"), (len(config.mlp_hidden), "hidden layers")):
        if count > len(arrays):
            raise DataError(f"checkpoint declares {count} {layers} in {len(arrays)} tensors")
    if enc_cfg.n_layers > MAX_LAYERS:
        raise DataError(f"checkpoint declares {enc_cfg.n_layers} layers; at most {MAX_LAYERS}")
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
    text_encoder = params_from_arrays(encoder_shape_table(enc_cfg), text_arrays, "encoder")
    hashtag_encoder = params_from_arrays(encoder_shape_table(enc_cfg), hash_arrays, "encoder")
    head = params_from_arrays(head_shape_table(config), head_arrays, "fusion head")
    task = metadata.get("task", "")
    return FusionModel(config, vocab, task, text_encoder, hashtag_encoder, head)


def model_from_bytes(blob: bytes, vocab: Vocab) -> FusionModel:
    return _model_from_parsed(*parse_checkpoint(blob), vocab)


def load_model(path, vocab: Vocab) -> tuple[FusionModel, dict[str, str]]:
    """The model in a checkpoint file and the file's metadata."""
    metadata, arrays = read_checkpoint(path)
    return _model_from_parsed(metadata, arrays, vocab), metadata
