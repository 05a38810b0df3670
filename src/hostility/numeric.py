"""Dense tensors with reverse-mode automatic differentiation.

Every forward op records its inputs and a closure that pushes gradients
back to them; backward() walks the recorded graph in reverse topological
order. The op set is deliberately coarse (linear, matmul, layer norm,
row softmax, fused multi-head attention, ...) — just what a small
transformer stack needs. float32 is
the training dtype; float64 graphs are supported so finite-difference
checks can run at full precision.

Each gradient array is held by one tensor (disjoint views of one array
count as distinct): a closure hands the array it computes to an input,
which keeps it as its .grad on first arrival and adds later arrivals
into it in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError, ShapeError

# Additive score for masked attention keys; exp() of it underflows to 0.
_ATTN_MASK_VALUE = -1e9
# Added to each row's variance in layer_norm before the square root.
LN_EPS = 1e-5


class Tensor:
    """A dense float array plus the bookkeeping needed for backprop.

    grad is None until backward() reaches the tensor, and stays None on
    an op output; on a leaf, repeated backward calls accumulate into it
    (use zero_grad between optimizer steps).
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backprop", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
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
        t.grad = np.asarray(g, dtype=t.data.dtype)
    else:
        t.grad += g


def backward(loss: Tensor) -> None:
    """Propagate dLoss/dT into .grad of every requires_grad leaf.

    loss must be a scalar. Only leaves (tensors no op produced, such as
    parameters) keep .grad; an op output's .grad is dropped once it has
    been pushed to the op's inputs. The tape stays, so a second call on
    the same loss adds one more gradient to each leaf; reset with
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
            node.grad = None


def zero_grad(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# Elementwise and linear-algebra ops
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b for a matrix b and a matrix or stack of matrices a: [M, K]
    or [N, M, K] times [K, P]. A stack runs each [M, K] @ b with the BLAS
    kernel that matrix alone would get."""
    if a.data.ndim not in (2, 3) or b.data.ndim != 2 or a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul mismatch: {a.data.shape} @ {b.data.shape}")
    ad, bd = a.data, b.data

    def bp(g):
        _accum(a, g @ bd.T)
        _accum(b, ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1]))

    return _result(ad @ bd, (a, b), bp)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add mismatch: {a.data.shape} vs {b.data.shape}")

    def bp(g):
        _accum(a, g)
        _accum(b, g.copy())

    return _result(a.data + b.data, (a, b), bp)


def add_bias(x: Tensor, bias: Tensor) -> Tensor:
    """Add a length-n vector to every row of an m*n matrix or of a stack
    of them."""
    if x.data.ndim not in (2, 3) or bias.data.shape != (x.data.shape[-1],):
        raise ShapeError(f"add_bias mismatch: {x.data.shape} + {bias.data.shape}")

    def bp(g):
        _accum(x, g)
        _accum(bias, g.reshape(-1, g.shape[-1]).sum(axis=0))

    return _result(x.data + bias.data, (x, bias), bp)


def linear(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """x @ w + bias as one op, with the arithmetic of
    add_bias(matmul(x, w), bias) and no pre-bias product on the tape."""
    xd, wd = x.data, w.data
    if xd.ndim not in (2, 3) or wd.ndim != 2 or xd.shape[-1] != wd.shape[0]:
        raise ShapeError(f"linear mismatch: {xd.shape} @ {wd.shape}")
    if bias.data.shape != (wd.shape[1],):
        raise ShapeError(f"linear bias mismatch: {xd.shape} @ {wd.shape} + {bias.data.shape}")

    def bp(g):
        rows = g.reshape(-1, g.shape[-1])
        _accum(bias, rows.sum(axis=0))
        _accum(x, g @ wd.T)
        _accum(w, xd.reshape(-1, xd.shape[-1]).T @ rows)

    out = xd @ wd
    out += bias.data
    return _result(out, (x, w, bias), bp)


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
    """max(x, 0); NaN propagates. The gradient mask is built only when
    backward reaches the op."""

    def bp(g):
        _accum(x, g * (x.data > 0))

    return _result(np.maximum(x.data, 0), (x,), bp)


def sum_all(x: Tensor) -> Tensor:
    def bp(g):
        _accum(x, np.full(x.data.shape, g, dtype=x.data.dtype))

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
    """Concatenate matrices, or stacks of matrices, row-wise along the
    feature (last) axis."""
    if not parts:
        raise ShapeError("concat_rows needs at least one tensor")
    rows = parts[0].data.shape[:-1]
    for p in parts:
        if p.data.ndim not in (2, 3) or p.data.shape[:-1] != rows:
            raise ShapeError(
                f"concat_rows mismatch: {[tuple(q.data.shape) for q in parts]}"
            )
    widths = [p.data.shape[-1] for p in parts]
    offsets = np.cumsum([0] + widths)

    def bp(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _accum(p, g[..., lo:hi])

    return _result(np.concatenate([p.data for p in parts], axis=-1), tuple(parts), bp)


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
    """Rows rows[i] of the matrix x, in order: a row gather, as an
    embedding lookup is. Backward adds row i of the gradient into row
    rows[i] of x's, in place, so repeated rows sum."""
    if x.data.ndim != 2:
        raise ShapeError(f"gather_rows expects a matrix, got shape {x.data.shape}")
    idx = np.asarray(rows, dtype=np.intp)
    if idx.ndim != 1 or idx.size == 0:
        raise ShapeError("gather_rows needs a non-empty 1-d row index sequence")
    bad = (idx < 0) | (idx >= len(x.data))
    if bad.any():
        raise ValueError(f"token id {idx[bad][0]} out of range for table of {len(x.data)} rows")

    def bp(g):
        if x.requires_grad:
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            np.add.at(x.grad, idx, g)

    return _result(x.data[idx], (x,), bp)


embedding_lookup = gather_rows


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


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each row to zero mean / unit variance, then scale and shift."""
    if x.data.ndim != 2:
        raise ShapeError(f"layer_norm expects a matrix, got shape {x.data.shape}")
    n = x.data.shape[1]
    if gain.data.shape != (n,) or bias.data.shape != (n,):
        raise ShapeError(
            f"layer_norm affine mismatch: x {x.data.shape}, "
            f"gain {gain.data.shape}, bias {bias.data.shape}"
        )
    # The same sums and divisions as x.mean() and x.var(), with the mean
    # and the centred rows computed once.
    centred = x.data - x.data.mean(axis=1, keepdims=True)
    var = (centred * centred).sum(axis=1, keepdims=True) / n
    sd = np.sqrt(var + x.data.dtype.type(LN_EPS))
    yhat = centred / sd

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


def _dropout_mask(
    shape: tuple[int, ...], p: float, rng: np.random.Generator | None, dtype: np.dtype
) -> Callable[[np.ndarray], np.ndarray] | None:
    """Inverted dropout's draw over an array of shape: a function that
    zeroes the entries where rng.random(shape) < p and rescales the rest
    by 1/(1-p) in dtype, keeping the draw as a bool mask. None when rng
    is None or p is 0."""
    if not 0 <= p < 1:
        raise ValueError(f"dropout probability must satisfy 0 <= p < 1, got {p}")
    if rng is None or p == 0:
        return None
    keep = rng.random(shape) >= p
    scale = dtype.type(1) / dtype.type(1 - p)
    # Bit for bit a * (keep / (1 - p)): a * 1 and a * 0 are exact.
    return lambda a: a * keep * scale


def dropout(x: Tensor, p: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout: zero with probability p and rescale survivors by
    1/(1-p), drawn from rng; x itself when rng is None or p is 0."""
    drop = _dropout_mask(x.data.shape, p, rng, x.data.dtype)
    if drop is None:
        return x

    def bp(g):
        _accum(x, drop(g))

    return _result(drop(x.data), (x,), bp)


def _join_rows(parts: list[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _attend_block(qd, kd, vd, key_pad, n_heads, p, rng):
    """Forward of one block of B sequences of T positions (see attention):
    the merged heads [B*T, E] and a closure that maps their gradient to
    those of qd, kd and vd."""
    b, t = key_pad.shape
    e = qd.shape[1]
    h, dh = n_heads, e // n_heads
    dtype = qd.dtype

    # Contiguous [T, dh] and [dh, T] blocks make BLAS compute each head
    # exactly as a 2-D matmul of that head's columns would; strided views
    # can round differently.
    def heads(x):  # [B*T, E] -> [B, H, T, dh]
        return np.ascontiguousarray(x.reshape(b, t, h, dh).transpose(0, 2, 1, 3))

    def merge(x):  # [B, H, T, dh] -> [B*T, E]
        return x.transpose(0, 2, 1, 3).reshape(b * t, e)

    qh, kh, vh = heads(qd), heads(kd), heads(vd)
    c = dtype.type(1.0 / math.sqrt(dh))
    scores = (qh @ np.ascontiguousarray(kh.transpose(0, 1, 3, 2))) * c
    if key_pad.any():
        scores = scores + np.where(key_pad, _ATTN_MASK_VALUE, 0.0).astype(dtype)[:, None, None, :]
    e_scores = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = e_scores / e_scores.sum(axis=-1, keepdims=True)
    # Backward keeps probs and the bool mask, and rebuilds the dropped
    # probabilities from them.
    drop = _dropout_mask((b, h, t, t), p, rng, dtype) or (lambda a: a)

    def block_bp(g):
        gh = heads(g)
        gv = merge(drop(probs).transpose(0, 1, 3, 2) @ gh)
        g_probs = drop(gh @ vh.transpose(0, 1, 3, 2))
        g_scores = probs * (g_probs - (g_probs * probs).sum(axis=-1, keepdims=True)) * c
        return merge(g_scores @ kh), merge(g_scores.transpose(0, 1, 3, 2) @ qh), gv

    return merge(drop(probs) @ vh), block_bp


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    n_heads: int,
    blocks: Sequence[np.ndarray],
    p: float,
    rng: np.random.Generator | None,
) -> Tensor:
    """Multi-head scaled dot-product attention within each sequence of a
    row layout.

    q, k and v are [R, E]. blocks lays the R rows out in order as blocks
    of equal-length sequences: a [B, T] bool array, True at keys to mask
    out, covers the next B*T rows, row b*T + t holding position t of
    sequence b, viewed as [B, H, T, E/H]. A masked key gets no attention
    mass from any position. The encoder packs sequences of several
    lengths as one unmasked block per length. Attention probabilities
    get inverted dropout with probability p when rng is given, drawn per
    block in order as one rng.random((B, H, T, T)). Returns the heads
    merged back to [R, E].
    """
    if q.data.ndim != 2 or q.data.shape != k.data.shape or q.data.shape != v.data.shape:
        raise ShapeError(
            f"attention mismatch: q {q.data.shape}, k {k.data.shape}, v {v.data.shape}"
        )
    rows, e = q.data.shape
    if n_heads < 1 or e % n_heads:
        raise ShapeError(f"width {e} not divisible into {n_heads} heads")
    if not blocks or any(key_pad.ndim != 2 or key_pad.size == 0 for key_pad in blocks):
        raise ShapeError("attention needs non-empty [B, T] key_pad blocks")
    offsets = np.cumsum([0] + [key_pad.size for key_pad in blocks])
    if offsets[-1] != rows:
        raise ShapeError(f"key_pad blocks cover {offsets[-1]} rows, not {rows}")
    spans = list(zip(offsets[:-1], offsets[1:]))
    outs, block_bps = [], []
    for key_pad, (lo, hi) in zip(blocks, spans):
        out, block_bp = _attend_block(
            q.data[lo:hi], k.data[lo:hi], v.data[lo:hi], key_pad, n_heads, p, rng
        )
        outs.append(out)
        block_bps.append(block_bp)

    def bp(g):
        gq, gk, gv = zip(*(block_bp(g[lo:hi]) for block_bp, (lo, hi) in zip(block_bps, spans)))
        _accum(v, _join_rows(list(gv)))
        _accum(q, _join_rows(list(gq)))
        _accum(k, _join_rows(list(gk)))

    return _result(_join_rows(outs), (q, k, v), bp)


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


# Adam's moment decay rates and denominator term.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment buffers keyed like the parameter dict."""

    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]


def adam_init(params: Mapping[str, Tensor]) -> AdamState:
    return AdamState(
        step=0,
        m={k: np.zeros_like(p.data) for k, p in params.items()},
        v={k: np.zeros_like(p.data) for k, p in params.items()},
    )


def adam_step(params: Mapping[str, Tensor], state: AdamState, lr: float) -> None:
    """One bias-corrected update in place; params with grad None are skipped."""
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        if g.shape != p.data.shape:
            raise ShapeError(f"grad shape {g.shape} != param shape {p.data.shape} for {name}")
        m = state.m[name]
        v = state.v[name]
        # The operations of p -= lr * (m / c1) / (sqrt(v / c2) + eps), in
        # the same order, through two scratch arrays.
        step, denom = np.empty_like(g), np.empty_like(g)
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=step)
        v *= ADAM_BETA2
        np.multiply(g, g, out=step)
        v += np.multiply(step, 1.0 - ADAM_BETA2, out=step)
        np.multiply(np.divide(m, c1, out=step), lr, out=step)
        np.sqrt(np.divide(v, c2, out=denom), out=denom)
        denom += ADAM_EPS
        p.data -= np.divide(step, denom, out=step)


@np.errstate(all="ignore")
def train_epoch(
    params: Mapping[str, Tensor], state: AdamState, lr: float, batches: Iterable, batch_loss: Callable
) -> float:
    """One Adam step per batch, in order, on the scalar loss
    batch_loss(batch); returns the mean loss weighted by len(batch).
    Each step's graph is released once backward has run, before the
    gradient-norm check, Adam and the next batch_loss. A non-finite
    loss, or a non-finite global gradient norm, raises DataError naming
    lr before that step changes any parameter or optimizer state: the
    run diverged, as a too-large learning rate makes it do. numpy's own
    floating-point warnings are off inside, so these checks alone
    report the fault. The squared norm sums one float32 np.vdot
    per gradient, so a norm past float32 range (about 1.8e19, where
    Adam's g*g overflows too) also counts."""
    loss_total = 0.0
    n_items = 0
    for batch in batches:
        loss = batch_loss(batch)
        value = float(loss.data)
        if not math.isfinite(value):
            raise DataError(f"non-finite batch loss {value} at learning rate {lr}")
        zero_grad(params.values())
        backward(loss)
        del loss
        norm_sq = sum(float(np.vdot(p.grad, p.grad)) for p in params.values() if p.grad is not None)
        if not math.isfinite(norm_sq):
            raise DataError(
                f"non-finite gradient norm (squared norm {norm_sq}) at learning rate {lr}"
            )
        adam_step(params, state, lr)
        loss_total += value * len(batch)
        n_items += len(batch)
    return loss_total / n_items
