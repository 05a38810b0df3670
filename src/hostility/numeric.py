"""Dense tensors with reverse-mode automatic differentiation.

Every forward op records its inputs and a closure that pushes gradients
back to them; backward() walks the recorded graph in reverse topological
order. The op set is deliberately coarse (matmul, layer norm, row
softmax, fused multi-head attention, ...) — just what a small
transformer stack needs. float32 is
the training dtype; float64 graphs are supported so finite-difference
checks can run at full precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InvariantError, ShapeError

# Additive score for masked attention keys; exp() of it underflows to 0.
_ATTN_MASK_VALUE = -1e9


class Tensor:
    """A dense float array plus the bookkeeping needed for backprop.

    grad is None until backward() reaches the tensor; repeated backward
    calls accumulate into it (use zero_grad between optimizer steps).
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backprop")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents: tuple[Tensor, ...] = ()
        self._backprop = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"


def _result(data: np.ndarray, parents: tuple, backprop) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backprop = backprop
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=t.data.dtype, copy=True)
    else:
        t.grad += g


def backward(loss: Tensor) -> None:
    """Propagate dLoss/dT into .grad of every requires_grad tensor.

    loss must be a scalar. Gradients accumulate across calls; reset with
    zero_grad() between optimizer steps.
    """
    if loss.data.shape != ():
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return
    # Iterative postorder DFS; graphs can be deeper than the recursion limit.
    order: list[Tensor] = []
    seen = {id(loss)}
    stack: list[tuple[Tensor, Iterable[Tensor]]] = [(loss, iter(loss._parents))]
    while stack:
        node, parents = stack[-1]
        advanced = False
        for parent in parents:
            if id(parent) not in seen and parent.requires_grad:
                seen.add(id(parent))
                stack.append((parent, iter(parent._parents)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    _accum(loss, np.ones((), dtype=loss.data.dtype))
    for node in reversed(order):
        if node._backprop is not None and node.grad is not None:
            node._backprop(node.grad)


def zero_grad(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# Elementwise and linear-algebra ops
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul mismatch: {a.data.shape} @ {b.data.shape}")
    ad, bd = a.data, b.data

    def bp(g):
        _accum(a, g @ bd.T)
        _accum(b, ad.T @ g)

    return _result(ad @ bd, (a, b), bp)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add mismatch: {a.data.shape} vs {b.data.shape}")

    def bp(g):
        _accum(a, g)
        _accum(b, g)

    return _result(a.data + b.data, (a, b), bp)


def add_bias(x: Tensor, bias: Tensor) -> Tensor:
    """Add a length-n vector to every row of an m*n matrix."""
    if x.data.ndim != 2 or bias.data.shape != (x.data.shape[1],):
        raise ShapeError(f"add_bias mismatch: {x.data.shape} + {bias.data.shape}")

    def bp(g):
        _accum(x, g)
        _accum(bias, g.sum(axis=0))

    return _result(x.data + bias.data, (x, bias), bp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul mismatch: {a.data.shape} vs {b.data.shape}")

    def bp(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _result(a.data * b.data, (a, b), bp)


def scale(x: Tensor, factor: float) -> Tensor:
    def bp(g):
        _accum(x, g * factor)

    return _result(x.data * x.data.dtype.type(factor), (x,), bp)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def bp(g):
        _accum(x, g * mask)

    return _result(np.where(mask, x.data, 0), (x,), bp)


def sum_all(x: Tensor) -> Tensor:
    def bp(g):
        _accum(x, np.broadcast_to(g, x.data.shape))

    return _result(x.data.sum(), (x,), bp)


# ---------------------------------------------------------------------------
# Shape manipulation
# ---------------------------------------------------------------------------


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {x.data.shape}")

    def bp(g):
        _accum(x, g.T)

    return _result(x.data.T.copy(), (x,), bp)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate matrices row-wise along the feature axis."""
    if not parts:
        raise ShapeError("concat_rows needs at least one tensor")
    rows = parts[0].data.shape[0]
    for p in parts:
        if p.data.ndim != 2 or p.data.shape[0] != rows:
            raise ShapeError(
                f"concat_rows mismatch: {[tuple(q.data.shape) for q in parts]}"
            )
    widths = [p.data.shape[1] for p in parts]
    offsets = np.cumsum([0] + widths)

    def bp(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _accum(p, g[:, lo:hi])

    return _result(np.concatenate([p.data for p in parts], axis=1), tuple(parts), bp)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    if x.data.ndim != 2 or not (0 <= start < stop <= x.data.shape[1]):
        raise ShapeError(f"slice_cols [{start}:{stop}] on shape {x.data.shape}")

    def bp(g):
        if x.requires_grad:
            z = np.zeros_like(x.data)
            z[:, start:stop] = g
            _accum(x, z)

    return _result(x.data[:, start:stop].copy(), (x,), bp)


def gather_rows(x: Tensor, rows: Sequence[int]) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"gather_rows expects a matrix, got shape {x.data.shape}")
    idx = np.asarray(list(rows), dtype=np.intp)
    if idx.size == 0:
        raise ShapeError("gather_rows needs at least one row index")
    if (idx < 0).any() or (idx >= x.data.shape[0]).any():
        raise ShapeError(f"row index out of range for {x.data.shape[0]} rows")

    def bp(g):
        if x.requires_grad:
            z = np.zeros_like(x.data)
            np.add.at(z, idx, g)
            _accum(x, z)

    return _result(x.data[idx], (x,), bp)


def embedding_lookup(table: Tensor, ids: Sequence[int]) -> Tensor:
    if table.data.ndim != 2:
        raise ShapeError(f"embedding table must be a matrix, got {table.data.shape}")
    idx = np.asarray(list(ids), dtype=np.intp)
    if idx.ndim != 1 or idx.size == 0:
        raise ShapeError("embedding_lookup needs a non-empty 1-d id sequence")
    if (idx < 0).any() or (idx >= table.data.shape[0]).any():
        raise ValueError(f"token id out of range for table of {table.data.shape[0]} rows")

    def bp(g):
        if table.requires_grad:
            z = np.zeros_like(table.data)
            np.add.at(z, idx, g)
            _accum(table, z)

    return _result(table.data[idx], (table,), bp)


# ---------------------------------------------------------------------------
# Normalization, regularization, loss
# ---------------------------------------------------------------------------


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax, stabilized by max subtraction."""
    if x.data.ndim != 2:
        raise ShapeError(f"softmax_rows expects a matrix, got shape {x.data.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def bp(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        _accum(x, y * (g - dot))

    return _result(y, (x,), bp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row to zero mean / unit variance, then scale and shift."""
    if x.data.ndim != 2:
        raise ShapeError(f"layer_norm expects a matrix, got shape {x.data.shape}")
    n = x.data.shape[1]
    if gain.data.shape != (n,) or bias.data.shape != (n,):
        raise ShapeError(
            f"layer_norm affine mismatch: x {x.data.shape}, "
            f"gain {gain.data.shape}, bias {bias.data.shape}"
        )
    mu = x.data.mean(axis=1, keepdims=True)
    sd = np.sqrt(x.data.var(axis=1, keepdims=True) + x.data.dtype.type(eps))
    yhat = (x.data - mu) / sd

    def bp(g):
        gdy = g * gain.data
        gx = (
            gdy
            - gdy.mean(axis=1, keepdims=True)
            - yhat * (gdy * yhat).mean(axis=1, keepdims=True)
        ) / sd
        _accum(x, gx)
        _accum(gain, (g * yhat).sum(axis=0))
        _accum(bias, g.sum(axis=0))

    return _result(yhat * gain.data + bias.data, (x, gain, bias), bp)


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout: zero with probability p and rescale survivors by 1/(1-p)."""
    if not 0 <= p < 1:
        raise ValueError(f"dropout probability must satisfy 0 <= p < 1, got {p}")
    if not training or p == 0:
        return x
    if rng is None:
        raise ValueError("dropout in training mode needs an rng")
    keep = rng.random(x.data.shape) >= p
    factor = keep.astype(x.data.dtype) / x.data.dtype.type(1 - p)

    def bp(g):
        _accum(x, g * factor)

    return _result(x.data * factor, (x,), bp)


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    n_heads: int,
    key_pad: np.ndarray,
    p: float,
    training: bool,
    rng: np.random.Generator | None,
    attn_sink: list | None = None,
) -> Tensor:
    """Multi-head scaled dot-product attention over a padded batch.

    q, k and v are [B*T, E], row b*T + t holding position t of sequence
    b; each is viewed as [B, H, T, E/H]. key_pad is a [B, T] bool array,
    True at keys to mask out (PAD). Attention probabilities get
    inverted dropout with probability p when training, drawn as one
    rng.random((B, H, T, T)). Returns the heads merged back to [B*T, E].
    attn_sink, when given, receives each (sequence, head) pre-dropout
    probability matrix [T, T].
    """
    if not 0 <= p < 1:
        raise ValueError(f"dropout probability must satisfy 0 <= p < 1, got {p}")
    if q.data.ndim != 2 or q.data.shape != k.data.shape or q.data.shape != v.data.shape:
        raise ShapeError(
            f"attention mismatch: q {q.data.shape}, k {k.data.shape}, v {v.data.shape}"
        )
    bt, e = q.data.shape
    if n_heads < 1 or e % n_heads:
        raise ShapeError(f"width {e} not divisible into {n_heads} heads")
    if key_pad.ndim != 2 or key_pad.size != bt:
        raise ShapeError(f"key_pad shape {key_pad.shape} does not cover {bt} rows")
    b = key_pad.shape[0]
    t, h, dh = bt // b, n_heads, e // n_heads
    dtype = q.data.dtype

    # Contiguous [T, dh] and [dh, T] blocks make BLAS compute each head
    # exactly as a 2-D matmul of that head's columns would; strided views
    # can round differently.
    def heads(x):  # [B*T, E] -> [B, H, T, dh]
        return np.ascontiguousarray(x.reshape(b, t, h, dh).transpose(0, 2, 1, 3))

    qh, kh, vh = heads(q.data), heads(k.data), heads(v.data)
    c = dtype.type(1.0 / math.sqrt(dh))
    scores = (qh @ np.ascontiguousarray(kh.transpose(0, 1, 3, 2))) * c
    if key_pad.any():
        scores = scores + np.where(key_pad, _ATTN_MASK_VALUE, 0.0).astype(dtype)[:, None, None, :]
    e_scores = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = e_scores / e_scores.sum(axis=-1, keepdims=True)
    if attn_sink is not None:
        attn_sink.extend(probs.reshape(-1, t, t).copy())
    factor = None
    if training and p > 0:
        if rng is None:
            raise ValueError("attention dropout in training mode needs an rng")
        keep = rng.random((b, h, t, t)) >= p
        factor = keep.astype(dtype) / dtype.type(1 - p)
    dropped = probs if factor is None else probs * factor
    out = (dropped @ vh).transpose(0, 2, 1, 3).reshape(bt, e)

    def bp(g):
        gh = heads(g)
        _accum(v, (dropped.transpose(0, 1, 3, 2) @ gh).transpose(0, 2, 1, 3).reshape(bt, e))
        g_probs = gh @ vh.transpose(0, 1, 3, 2)
        if factor is not None:
            g_probs = g_probs * factor
        g_scores = probs * (g_probs - (g_probs * probs).sum(axis=-1, keepdims=True)) * c
        _accum(q, (g_scores @ kh).transpose(0, 2, 1, 3).reshape(bt, e))
        _accum(k, (g_scores.transpose(0, 1, 3, 2) @ qh).transpose(0, 2, 1, 3).reshape(bt, e))

    return _result(out, (q, k, v), bp)


def cross_entropy(
    logits: Tensor, labels: Sequence[int], weights: Sequence[float] | None = None
) -> Tensor:
    """Negative log softmax probability of the given class per row,
    averaged over rows, or summed with the given per-row weights."""
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy expects a matrix, got shape {logits.data.shape}")
    b, n_classes = logits.data.shape
    y = np.asarray(list(labels), dtype=np.intp)
    if y.shape != (b,):
        raise ShapeError(f"cross_entropy got {y.size} labels for {b} rows")
    if ((y < 0) | (y >= n_classes)).any():
        raise ValueError(f"label outside [0, {n_classes})")
    m = logits.data.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(logits.data - m).sum(axis=1, keepdims=True))
    picked = logits.data[np.arange(b), y]
    losses = lse[:, 0] - picked
    probs = np.exp(logits.data - lse)
    if weights is None:
        w = None
        loss = losses.mean()
    else:
        w = np.asarray(weights, dtype=logits.data.dtype)
        if w.shape != (b,):
            raise ShapeError(f"cross_entropy got {w.size} weights for {b} rows")
        loss = (losses * w).sum()

    def bp(g):
        gl = probs.copy()
        gl[np.arange(b), y] -= 1
        gl *= g / b if w is None else (g * w)[:, None]
        _accum(logits, gl)

    return _result(loss, (logits,), bp)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """First/second moment buffers keyed like the parameter dict."""

    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adam_init(params: Mapping[str, Tensor]) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(p.data) for k, p in params.items()},
        v={k: np.zeros_like(p.data) for k, p in params.items()},
    )


def adam_step(params: Mapping[str, Tensor], state: AdamState, lr: float) -> None:
    """One bias-corrected update in place; params with grad None are skipped."""
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        if g.shape != p.data.shape:
            raise ShapeError(f"grad shape {g.shape} != param shape {p.data.shape} for {name}")
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


def train_step(params: Mapping[str, Tensor], state: AdamState, loss: Tensor, lr: float) -> None:
    """One optimizer step on a scalar batch loss: zero the gradients,
    backpropagate and take an Adam step. A non-finite loss raises
    InvariantError before any parameter changes."""
    if not np.isfinite(loss.data):
        raise InvariantError(f"non-finite batch loss {float(loss.data)}")
    zero_grad(params.values())
    backward(loss)
    adam_step(params, state, lr)
