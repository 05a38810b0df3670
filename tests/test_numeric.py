import math
import struct
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import gradcheck
from hostility.checkpoint import VERSION, checkpoint_bytes, parse_checkpoint, read_metadata
from hostility.encoder import (
    IGNORE_ID,
    EncoderConfig,
    encoder_shape_table,
    init_params,
    mlm_head_shape_table,
    mlm_loss,
)
from hostility.errors import DataError, ShapeError
from hostility.numeric import (
    Tensor,
    adam_init,
    adam_step,
    add,
    add_bias,
    attention,
    backward,
    concat_rows,
    cross_entropy,
    dropout,
    embedding_lookup,
    gather_rows,
    layer_norm,
    linear,
    matmul,
    mul,
    relu,
    scale,
    slice_cols,
    softmax_rows,
    sum_all,
    train_epoch,
    transpose,
    zero_grad,
)


def t64(arr, requires_grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad)


def graph_nodes(loss):
    """Every tensor the loss was computed from, the loss included."""
    nodes, stack = {id(loss): loss}, [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in nodes:
                nodes[id(parent)] = parent
                stack.append(parent)
    return list(nodes.values())


class TestForwardSemantics:
    def test_matmul_identity(self):
        x = np.arange(9, dtype=np.float32).reshape(3, 3)
        out = matmul(Tensor(np.eye(3)), Tensor(x))
        np.testing.assert_array_equal(out.data, x)

    def test_matmul_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_softmax_uniform(self):
        out = softmax_rows(Tensor(np.array([[0.0, 0.0]])))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_layer_norm_hand_value(self):
        out = layer_norm(t64([[1.0, 2.0, 3.0]]), t64(np.ones(3)), t64(np.zeros(3)))
        # mean 2, population std sqrt(2/3)
        np.testing.assert_allclose(out.data, [[-1.2247, 0.0, 1.2247]], atol=1e-3)

    def test_relu(self):
        out = relu(Tensor(np.array([[-1.0, 2.0]])))
        np.testing.assert_array_equal(out.data, [[0.0, 2.0]])

    def test_relu_negative_zero_is_positive_zero(self):
        out = relu(Tensor(np.array([[-0.0, 0.0, -1.5]], dtype=np.float32)))
        assert out.data.dtype == np.float32
        assert out.data.tobytes() == np.zeros((1, 3), dtype=np.float32).tobytes()

    def test_relu_propagates_nan(self):
        out = relu(Tensor(np.array([[np.nan, -1.0, 2.0]], dtype=np.float32)))
        assert np.isnan(out.data[0, 0]) and out.data[0, 1:].tolist() == [0.0, 2.0]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_matches_mask_formula(self, dtype):
        rng = np.random.default_rng(5)
        for n in (1, 2, 7, 64, 199):
            for at in {0, n // 2, n - 1}:
                x = rng.standard_normal((1, n)).astype(dtype)
                x[0, at] = -0.0
                expected = np.where(x > 0, x, 0).astype(dtype)
                assert relu(Tensor(x)).data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layer_norm_matches_mean_var_formula(self, dtype):
        rng = np.random.default_rng(6)
        for rows, n in ((1, 1), (3, 2), (280, 64), (4, 768), (2, 3072), (9, 7)):
            x = (rng.standard_normal((rows, n)) * rng.uniform(0.01, 100) + 3).astype(dtype)
            gain = rng.standard_normal(n).astype(dtype)
            bias = rng.standard_normal(n).astype(dtype)
            sd = np.sqrt(x.var(axis=1, keepdims=True) + dtype(1e-5))
            expected = (x - x.mean(axis=1, keepdims=True)) / sd * gain + bias
            out = layer_norm(Tensor(x), Tensor(gain), Tensor(bias))
            assert out.data.dtype == dtype
            assert out.data.tobytes() == expected.tobytes()

    def test_concat_rows(self):
        out = concat_rows([Tensor(np.ones((2, 2))), Tensor(np.zeros((2, 3)))])
        assert out.shape == (2, 5)

    def test_embedding_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            embedding_lookup(Tensor(np.zeros((3, 2))), [3])
        with pytest.raises(ValueError, match="token id -1 out of range for table of 3 rows"):
            embedding_lookup(Tensor(np.zeros((3, 2))), [0, -1, 5])

    @pytest.mark.parametrize(
        "op", [embedding_lookup, gather_rows], ids=["embedding_lookup", "gather_rows"]
    )
    def test_lookup_backward_writes_one_table_sized_gradient(self, op):
        table = Tensor(np.zeros((4096, 64), dtype=np.float32), requires_grad=True)
        ids = np.array([5, 9, 5, 4095])
        out = op(table, ids)
        g = np.arange(out.data.size, dtype=np.float32).reshape(out.shape)
        tracemalloc.start()
        try:
            out._backprop(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * table.data.nbytes
        expected = np.zeros_like(table.data)
        np.add.at(expected, ids, g)
        np.testing.assert_array_equal(table.grad, expected)
        # A second lookup adds into the same buffer.
        buffer = table.grad
        op(table, [9])._backprop(np.ones((1, 64), dtype=np.float32))
        assert table.grad is buffer
        np.testing.assert_array_equal(table.grad[9], g[1] + 1)


class TestSoftmaxProperties:
    @given(
        st.lists(
            st.lists(st.floats(-50, 50), min_size=2, max_size=6),
            min_size=1,
            max_size=5,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    def test_rows_sum_to_one(self, rows):
        out = softmax_rows(t64(rows))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-6)

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=6), st.floats(-20, 20))
    def test_shift_invariance(self, row, const):
        base = softmax_rows(t64([row])).data
        shifted = softmax_rows(t64([[x + const for x in row]])).data
        np.testing.assert_allclose(base, shifted, atol=1e-9)


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = cross_entropy(t64([[0.0, 0.0]]), [1])
        assert loss.item() == pytest.approx(math.log(2), rel=1e-9)

    def test_confident_correct(self):
        loss = cross_entropy(t64([[10.0, -10.0]]), [0])
        # log(1 + e^-20)
        assert loss.item() == pytest.approx(2.061153622e-09, rel=1e-3)

    def test_batch_mean_invariance(self):
        loss = cross_entropy(t64([[0.0, 0.0], [0.0, 0.0]]), [1, 1])
        assert loss.item() == pytest.approx(math.log(2), rel=1e-9)

    def test_bad_label(self):
        with pytest.raises(ValueError, match="label"):
            cross_entropy(t64([[0.0, 0.0]]), [2])

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            logits = t64(rng.normal(size=(4, 3)))
            labels = rng.integers(0, 3, size=4).tolist()
            assert cross_entropy(logits, labels).item() >= 0


class TestBackward:
    def test_sum_gives_ones(self):
        x = t64(np.arange(6).reshape(2, 3), requires_grad=True)
        backward(sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_sum_of_squares(self):
        x = t64([[1.0, -2.0, 3.0]], requires_grad=True)
        backward(sum_all(mul(x, x)))
        np.testing.assert_allclose(x.grad, 2 * x.data)

    def test_backward_requires_scalar(self):
        x = t64(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ShapeError, match="scalar"):
            backward(add(x, x))

    def test_grads_accumulate_until_reset(self):
        x = t64([[1.0]], requires_grad=True)
        backward(sum_all(x))
        backward(sum_all(x))
        np.testing.assert_array_equal(x.grad, [[2.0]])
        zero_grad([x])
        assert x.grad is None

    def test_second_call_on_one_graph_adds_one_gradient(self):
        x = t64([1.0, 2.0, 3.0], requires_grad=True)
        loss = sum_all(mul(x, x))
        backward(loss)
        backward(loss)
        np.testing.assert_array_equal(x.grad, [4.0, 8.0, 12.0])


class TestGradcheckPerOp:
    """Central finite differences vs analytic grads, float64, h=1e-4."""

    TOL = 1e-4

    def _check(self, build, params):
        assert gradcheck(build, params) < self.TOL

    def test_matmul(self):
        rng = np.random.default_rng(1)
        a = t64(rng.normal(size=(3, 4)), requires_grad=True)
        b = t64(rng.normal(size=(4, 2)), requires_grad=True)
        self._check(lambda: sum_all(mul(matmul(a, b), matmul(a, b))), {"a": a, "b": b})

    def test_add_and_scale(self):
        rng = np.random.default_rng(2)
        a = t64(rng.normal(size=(2, 3)), requires_grad=True)
        b = t64(rng.normal(size=(2, 3)), requires_grad=True)
        self._check(lambda: sum_all(mul(scale(add(a, b), 1.7), add(a, b))), {"a": a, "b": b})

    def test_add_bias(self):
        rng = np.random.default_rng(3)
        x = t64(rng.normal(size=(3, 4)), requires_grad=True)
        b = t64(rng.normal(size=4), requires_grad=True)
        self._check(lambda: sum_all(mul(add_bias(x, b), add_bias(x, b))), {"x": x, "b": b})

    def test_stacked_matmul_bias_concat(self):
        rng = np.random.default_rng(17)
        x = t64(rng.normal(size=(3, 2, 4)), requires_grad=True)
        w = t64(rng.normal(size=(4, 3)), requires_grad=True)
        b = t64(rng.normal(size=3), requires_grad=True)

        def build():
            out = concat_rows([add_bias(matmul(x, w), b), x])
            return sum_all(mul(out, out))

        self._check(build, {"x": x, "w": w, "b": b})

    @pytest.mark.parametrize("shape", [(3, 4), (3, 1, 4)], ids=["matrix", "stack"])
    def test_linear(self, shape):
        rng = np.random.default_rng(18)
        x = t64(rng.normal(size=shape), requires_grad=True)
        w = t64(rng.normal(size=(4, 4)), requires_grad=True)
        b = t64(rng.normal(size=4), requires_grad=True)
        # x reaches the loss through linear and through mul, so its two
        # gradients accumulate.
        self._check(lambda: sum_all(mul(linear(x, w, b), x)), {"x": x, "w": w, "b": b})

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(4)
        vals = rng.normal(size=(3, 3))
        vals = np.where(np.abs(vals) < 0.05, 0.5, vals)
        x = t64(vals, requires_grad=True)
        self._check(lambda: sum_all(mul(relu(x), relu(x))), {"x": x})

    def test_softmax_rows(self):
        rng = np.random.default_rng(5)
        x = t64(rng.normal(size=(2, 5)), requires_grad=True)
        w = t64(rng.normal(size=(2, 5)))
        self._check(lambda: sum_all(mul(softmax_rows(x), w)), {"x": x})

    def test_layer_norm(self):
        rng = np.random.default_rng(6)
        x = t64(rng.normal(size=(3, 6)), requires_grad=True)
        gain = t64(rng.normal(size=6), requires_grad=True)
        bias = t64(rng.normal(size=6), requires_grad=True)
        w = t64(rng.normal(size=(3, 6)))
        self._check(
            lambda: sum_all(mul(layer_norm(x, gain, bias), w)),
            {"x": x, "gain": gain, "bias": bias},
        )

    def test_embedding_lookup_with_repeats(self):
        rng = np.random.default_rng(7)
        table = t64(rng.normal(size=(5, 3)), requires_grad=True)
        ids = [0, 2, 2, 4]
        self._check(
            lambda: sum_all(mul(embedding_lookup(table, ids), embedding_lookup(table, ids))),
            {"table": table},
        )

    def test_shape_ops(self):
        rng = np.random.default_rng(8)
        x = t64(rng.normal(size=(4, 6)), requires_grad=True)

        def build():
            parts = concat_rows([slice_cols(x, 0, 2), slice_cols(x, 3, 6)])
            picked = gather_rows(transpose(parts), [0, 2, 2])
            return sum_all(mul(picked, picked))

        self._check(build, {"x": x})

    def test_dropout_fixed_mask(self):
        rng = np.random.default_rng(9)
        x = t64(rng.normal(size=(4, 4)), requires_grad=True)

        def build():
            out = dropout(x, 0.4, rng=np.random.default_rng(123))
            return sum_all(mul(out, out))

        self._check(build, {"x": x})

    def test_cross_entropy(self):
        rng = np.random.default_rng(10)
        x = t64(rng.normal(size=(4, 5)), requires_grad=True)
        labels = [0, 3, 2, 4]
        self._check(lambda: cross_entropy(x, labels), {"x": x})


def assert_one_holder(leaves):
    """Each leaf's gradient is its own writable array."""
    grads = [leaf.grad for leaf in leaves]
    assert all(g.flags.writeable for g in grads)
    for i, g in enumerate(grads):
        for other in grads[i + 1 :]:
            assert not np.shares_memory(g, other)


class TestOneGradientHolder:
    """Closures hand the gradient arrays they compute to their inputs
    without a copy, so an op that handed one array to two tensors would
    let one tensor's later accumulation change the other's gradient."""

    @staticmethod
    def _leaves(rng, *shapes):
        return [t64(rng.normal(size=shape), requires_grad=True) for shape in shapes]

    def test_add_of_one_leaf_twice(self):
        rng = np.random.default_rng(40)
        (x,) = self._leaves(rng, (3, 4))
        c = rng.normal(size=(3, 4))
        backward(sum_all(mul(add(x, x), t64(c))))
        assert_one_holder([x])
        np.testing.assert_array_equal(x.grad, 2 * c)

    def test_add_of_two_leaves(self):
        rng = np.random.default_rng(41)
        a, b = self._leaves(rng, (3, 4), (3, 4))
        c = rng.normal(size=(3, 4))
        # Backward reaches the add before mul(a, a), so a shared array
        # would add a's second gradient into b's.
        backward(sum_all(add(mul(a, a), mul(add(a, b), t64(c)))))
        assert_one_holder([a, b])
        np.testing.assert_array_equal(b.grad, c)
        np.testing.assert_allclose(a.grad, c + 2 * a.data, rtol=1e-12)

    def test_concat_rows_with_a_repeated_part(self):
        rng = np.random.default_rng(42)
        x, y = self._leaves(rng, (3, 2), (3, 4))
        c = rng.normal(size=(3, 8))
        backward(sum_all(mul(concat_rows([x, y, x]), t64(c))))
        assert_one_holder([x, y])
        np.testing.assert_array_equal(x.grad, c[:, :2] + c[:, 6:])
        np.testing.assert_array_equal(y.grad, c[:, 2:6])

    def test_linear_with_its_input_reused(self):
        rng = np.random.default_rng(43)
        x, w, b = self._leaves(rng, (3, 4), (4, 4), (4,))
        y = x.data @ w.data + b.data
        backward(sum_all(mul(linear(x, w, b), x)))
        assert_one_holder([x, w, b])
        np.testing.assert_allclose(x.grad, x.data @ w.data.T + y, rtol=1e-12)
        np.testing.assert_allclose(w.grad, x.data.T @ x.data, rtol=1e-12)
        np.testing.assert_allclose(b.grad, x.data.sum(axis=0), rtol=1e-12)

    def test_sum_all(self):
        rng = np.random.default_rng(44)
        x, y = self._leaves(rng, (2, 3), (2, 3))
        backward(add(sum_all(x), sum_all(mul(y, y))))
        assert_one_holder([x, y])
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))
        np.testing.assert_array_equal(y.grad, 2 * y.data)


class TestDropout:
    def test_p_zero_is_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert dropout(x, 0.0, rng=np.random.default_rng(0)) is x

    def test_inference_passthrough(self):
        x = Tensor(np.ones((3, 3)))
        assert dropout(x, 0.1, None) is x

    def test_bad_probability(self):
        with pytest.raises(ValueError, match="probability"):
            dropout(Tensor(np.ones((2, 2))), 1.0, rng=np.random.default_rng(0))

    def test_mean_and_zero_fraction(self):
        x = Tensor(np.ones((1000, 1000)))
        out = dropout(x, 0.5, rng=np.random.default_rng(42))
        assert abs(out.data.mean() - 1.0) < 0.01
        zero_fraction = float((out.data == 0).mean())
        assert abs(zero_fraction - 0.5) < 0.005

    def test_fixed_seed_gives_identical_masks(self):
        x = Tensor(np.ones((50, 50)))
        a = dropout(x, 0.3, rng=np.random.default_rng(7))
        b = dropout(x, 0.3, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(a.data, b.data)


def _per_head_attention(q, k, v, n_heads, key_pad_row, p, rng):
    """Reference for one sequence: attention composed from 2-D ops, one
    head at a time, dropout drawn per head."""
    dh = q.shape[1] // n_heads
    mask = Tensor(np.where(key_pad_row, -1e9, 0.0).astype(q.data.dtype))
    heads = []
    for h in range(n_heads):
        lo, hi = h * dh, (h + 1) * dh
        scores = scale(matmul(slice_cols(q, lo, hi), transpose(slice_cols(k, lo, hi))), dh**-0.5)
        attn = dropout(softmax_rows(add_bias(scores, mask)), p, rng)
        heads.append(matmul(attn, slice_cols(v, lo, hi)))
    return concat_rows(heads)


class TestAttention:
    KEY_PAD = np.array([[False] * 6 + [True]])

    def _qkv(self, dtype):
        rng = np.random.default_rng(11)
        return [Tensor(rng.normal(size=(7, 16)).astype(dtype), requires_grad=True) for _ in "qkv"]

    @pytest.mark.parametrize("p", [0.0, 0.25])
    def test_one_sequence_matches_per_head_ops(self, p):
        q, k, v = self._qkv(np.float32)
        fused = attention(q, k, v, 4, [self.KEY_PAD], p, np.random.default_rng(5))
        ref = _per_head_attention(q, k, v, 4, self.KEY_PAD[0], p, np.random.default_rng(5))
        np.testing.assert_array_equal(fused.data, ref.data)

    def test_one_sequence_grads_match_per_head_ops(self):
        w = t64(np.random.default_rng(12).normal(size=(7, 16)))
        grads = []
        for fused in (True, False):
            qkv = self._qkv(np.float64)
            rng = np.random.default_rng(5)
            if fused:
                out = attention(*qkv, 4, [self.KEY_PAD], 0.25, rng)
            else:
                out = _per_head_attention(*qkv, 4, self.KEY_PAD[0], 0.25, rng)
            backward(sum_all(mul(out, w)))
            grads.append([t.grad for t in qkv])
        for fused, ref in zip(*grads):
            np.testing.assert_allclose(fused, ref, rtol=1e-12, atol=1e-12)

    def test_key_pad_must_cover_rows(self):
        q, k, v = self._qkv(np.float32)
        with pytest.raises(ShapeError, match="key_pad"):
            attention(q, k, v, 4, [np.zeros((2, 3), dtype=bool)], 0.0, None)
        with pytest.raises(ShapeError, match="key_pad"):
            attention(q, k, v, 4, [np.zeros((2, 3), dtype=bool)] * 2, 0.0, None)
        with pytest.raises(ShapeError, match="key_pad"):
            attention(q, k, v, 4, [], 0.0, None)

    # Sequences of lengths 3, 3, 5 and 2 packed on 13 rows: one unmasked
    # block per run of one length. SPANS are the sequences' rows.
    PACKED = [np.zeros((2, 3), dtype=bool), np.zeros((1, 5), dtype=bool), np.zeros((1, 2), dtype=bool)]
    SPANS = [(0, 3), (3, 6), (6, 11), (11, 13)]

    def test_blocks_give_each_sequence_alone(self):
        rng = np.random.default_rng(13)
        q, k, v = (Tensor(rng.normal(size=(13, 16)).astype(np.float32)) for _ in "qkv")
        packed = attention(q, k, v, 4, self.PACKED, 0.0, None)
        for lo, hi in self.SPANS:
            alone = attention(
                *(Tensor(x.data[lo:hi]) for x in (q, k, v)), 4,
                [np.zeros((1, hi - lo), dtype=bool)], 0.0, None,
            )
            np.testing.assert_array_equal(packed.data[lo:hi], alone.data)

    def test_blocks_draw_dropout_per_block_in_order(self):
        rng = np.random.default_rng(14)
        q, k, v = (Tensor(rng.normal(size=(13, 16)).astype(np.float32)) for _ in "qkv")
        packed = attention(q, k, v, 4, self.PACKED, 0.25, np.random.default_rng(3))
        draws = np.random.default_rng(3)
        for key_pad, (lo, hi) in zip(self.PACKED, [(0, 6), (6, 11), (11, 13)]):
            block = attention(
                *(Tensor(x.data[lo:hi]) for x in (q, k, v)), 4, [key_pad], 0.25, draws
            )
            np.testing.assert_array_equal(packed.data[lo:hi], block.data)

    @pytest.mark.parametrize("p", [0.0, 0.3])
    def test_block_grads(self, p):
        rng = np.random.default_rng(15)
        qkv = {n: t64(rng.normal(size=(13, 4)), requires_grad=True) for n in "qkv"}
        w = t64(rng.normal(size=(13, 4)))
        # The middle block as a padded sequence of 3 tokens in 5 rows.
        blocks = [self.PACKED[0], np.array([[False, False, False, True, True]]), self.PACKED[2]]

        def build():
            out = attention(
                qkv["q"], qkv["k"], qkv["v"], 2, blocks, p, np.random.default_rng(16)
            )
            return sum_all(mul(out, w))

        assert gradcheck(build, qkv) < 1e-4


class TestAdam:
    def _param(self, value):
        p = Tensor(np.array([value], dtype=np.float32), requires_grad=True)
        return {"p": p}

    def test_zero_grad_means_no_change(self):
        params = self._param(1.5)
        params["p"].grad = np.zeros(1, dtype=np.float32)
        state = adam_init(params)
        adam_step(params, state, lr=0.1)
        np.testing.assert_array_equal(params["p"].data, [1.5])
        assert state.step == 1

    def test_first_step_hand_value(self):
        # t=1, g=1: m_hat = v_hat = 1, update = lr / (1 + eps)
        params = self._param(0.0)
        params["p"].grad = np.ones(1, dtype=np.float32)
        state = adam_init(params)
        adam_step(params, state, lr=0.1)
        expected = -0.1 * 1.0 / (1.0 + 1e-8)
        assert params["p"].data[0] == pytest.approx(expected, rel=1e-6)

    def test_second_step_hand_value(self):
        # Constant g=1: m2 = 0.19, m_hat = 1; v2 = 0.001999, v_hat = 1.
        params = self._param(0.0)
        state = adam_init(params)
        for _ in range(2):
            params["p"].grad = np.ones(1, dtype=np.float32)
            adam_step(params, state, lr=0.1)
        m2 = 0.9 * 0.1 + 0.1
        v2 = 0.999 * 0.001 + 0.001
        m_hat = m2 / (1 - 0.9**2)
        v_hat = v2 / (1 - 0.999**2)
        step1 = 0.1 / (1 + 1e-8)
        step2 = 0.1 * m_hat / (math.sqrt(v_hat) + 1e-8)
        assert params["p"].data[0] == pytest.approx(-(step1 + step2), rel=1e-5)
        assert state.step == 2

    def test_none_grad_is_skipped(self):
        params = {"a": Tensor(np.ones(2), requires_grad=True)}
        state = adam_init(params)
        adam_step(params, state, lr=0.1)
        np.testing.assert_array_equal(params["a"].data, np.ones(2))


class TestTrainEpoch:
    @staticmethod
    def _model():
        return {
            "w": Tensor(np.array([[0.5, -1.0], [2.0, 0.25]], dtype=np.float32), requires_grad=True),
            "b": Tensor(np.array([0.1, 0.2], dtype=np.float32), requires_grad=True),
        }

    @staticmethod
    def _loss_of(params, losses):
        """A batch is a list of targets; each row of the input is ones."""

        def batch_loss(targets):
            x = Tensor(np.ones((len(targets), 2), dtype=np.float32))
            loss = cross_entropy(add_bias(matmul(x, params["w"]), params["b"]), targets)
            losses.append(float(loss.data))
            return loss

        return batch_loss

    @pytest.mark.parametrize("planted", [np.nan, np.inf])
    def test_non_finite_gradient_changes_nothing(self, monkeypatch, planted):
        import hostility.numeric

        params = self._model()
        losses = []
        batch_loss = self._loss_of(params, losses)
        state = adam_init(params)
        train_epoch(params, state, 0.1, [[0, 1, 1]], batch_loss)  # nonzero moments to compare
        real_backward = hostility.numeric.backward

        def planting_backward(loss):
            real_backward(loss)
            params["b"].grad[1] = planted

        monkeypatch.setattr(hostility.numeric, "backward", planting_backward)
        before = {k: p.data.copy() for k, p in params.items()}
        moments = {k: (state.m[k].copy(), state.v[k].copy()) for k in params}
        with pytest.raises(DataError, match="non-finite gradient norm"):
            train_epoch(params, state, 0.1, [[0, 1, 1]], batch_loss)
        assert len(losses) == 2 and np.isfinite(losses[1])
        assert state.step == 1
        for k, p in params.items():
            np.testing.assert_array_equal(p.data, before[k])
            np.testing.assert_array_equal(state.m[k], moments[k][0])
            np.testing.assert_array_equal(state.v[k], moments[k][1])

    def test_non_finite_loss_changes_nothing(self):
        params = self._model()
        state = adam_init(params)
        train_epoch(params, state, 0.1, [[0, 1, 1]], self._loss_of(params, []))
        grads = {k: p.grad.copy() for k, p in params.items()}
        before = {k: p.data.copy() for k, p in params.items()}
        moments = {k: (state.m[k].copy(), state.v[k].copy()) for k in params}
        with pytest.raises(DataError, match="non-finite batch loss nan"):
            train_epoch(params, state, 0.1, [[0]], lambda _: Tensor(np.float32(np.nan)))
        assert state.step == 1
        for k, p in params.items():
            np.testing.assert_array_equal(p.data, before[k])
            np.testing.assert_array_equal(p.grad, grads[k])
            np.testing.assert_array_equal(state.m[k], moments[k][0])
            np.testing.assert_array_equal(state.v[k], moments[k][1])

    def _linear_run(self):
        params = self._model()
        return params, self._loss_of(params, []), [[0, 1], [1], [0, 0, 1]]

    @staticmethod
    def _mlm_run():
        """A two-layer encoder under the masked-LM loss with dropout on:
        embedding, attention, layer norm and gather closures."""
        config = EncoderConfig(12, d_model=8, n_layers=2, n_heads=2, d_ff=8, max_len=8, shared_layers=False)
        params = init_params(
            {**encoder_shape_table(config), **mlm_head_shape_table(config)}, np.random.default_rng(4)
        )
        rng = np.random.default_rng(5)

        def loss_of(lines):
            targets = [[IGNORE_ID, ids[1]] + [IGNORE_ID] * (len(ids) - 2) for ids in lines]
            return mlm_loss(params, config, lines, targets, rng=rng)

        return params, loss_of, [[[2, 7, 5, 3], [2, 9, 3]], [[2, 6, 8, 11, 3]], [[2, 10, 3], [2, 5, 6, 3]]]

    @pytest.mark.parametrize("run", ["_linear_run", "_mlm_run"])
    def test_each_step_graph_is_released_after_backward(self, monkeypatch, run):
        import hostility.numeric

        params, loss_of, batches = getattr(self, run)()
        earlier, after_backward = [], []

        def batch_loss(batch):
            assert all(ref() is None for ref in earlier), "an earlier step's graph is alive"
            loss = loss_of(batch)
            earlier.extend(weakref.ref(n) for n in graph_nodes(loss) if n._backprop is not None)
            return loss

        real_backward = hostility.numeric.backward

        def checking_backward(loss):
            real_backward(loss)
            ops = [n for n in graph_nodes(loss) if n._backprop is not None]
            after_backward.append((len(ops), sum(n.grad is not None for n in ops)))

        monkeypatch.setattr(hostility.numeric, "backward", checking_backward)
        train_epoch(params, adam_init(params), 0.1, batches, batch_loss)
        assert len(after_backward) == 3
        assert all(n_ops > 1 and with_grad == 0 for n_ops, with_grad in after_backward)
        assert all(ref() is None for ref in earlier)
        assert all(p.grad is not None for p in params.values())

    def test_returns_length_weighted_mean_of_batch_losses(self):
        params = self._model()
        losses = []
        state = adam_init(params)
        batches = [[0], [1, 1, 0], [1, 0]]
        mean = train_epoch(params, state, 0.1, batches, self._loss_of(params, losses))
        assert len(set(losses)) == 3
        assert mean == (losses[0] * 1 + losses[1] * 3 + losses[2] * 2) / 6
        assert state.step == 3


class TestCheckpoint:
    def test_roundtrip(self):
        tensors = {
            "a.w": np.arange(6, dtype=np.float32).reshape(2, 3),
            "b": np.array(3.5, dtype=np.float32),
        }
        blob = checkpoint_bytes({"task": "coarse", "seed": "1"}, tensors)
        meta, loaded = parse_checkpoint(blob)
        assert meta == {"task": "coarse", "seed": "1"}
        assert set(loaded) == {"a.w", "b"}
        np.testing.assert_array_equal(loaded["a.w"], tensors["a.w"])
        assert loaded["b"].shape == ()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_is_data_error(self, value):
        w = np.arange(6, dtype=np.float32).reshape(2, 3)
        w[1, 2] = value
        blob = checkpoint_bytes({}, {"a": np.ones(2, dtype=np.float32), "w": w})
        with pytest.raises(DataError, match="'w' holds a non-finite value"):
            parse_checkpoint(blob)

    def test_blob_is_the_only_model_sized_allocation(self):
        rng = np.random.default_rng(0)
        tensors = {f"t{i}": rng.standard_normal((256, 512)).astype(np.float32) for i in range(8)}
        tracemalloc.start()
        try:
            blob = checkpoint_bytes({"task": "coarse"}, tensors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(blob) > 8 * 256 * 512 * 4
        assert peak < 1.3 * len(blob)

    def test_tensors_are_read_only_views_of_the_blob(self):
        blob = checkpoint_bytes({}, {"w": np.arange(6, dtype=np.float32).reshape(2, 3)})
        _, loaded = parse_checkpoint(blob)
        w = loaded["w"]
        assert w.dtype == np.dtype("<f4") and not w.flags.writeable and not w.flags.owndata
        assert np.shares_memory(w, np.frombuffer(blob, dtype=np.uint8))

    def test_deterministic_bytes(self):
        tensors = {"w": np.ones((2, 2), dtype=np.float32)}
        assert checkpoint_bytes({"b": "2", "a": "1"}, tensors) == checkpoint_bytes(
            {"a": "1", "b": "2"}, tensors
        )

    def test_bad_magic(self):
        with pytest.raises(DataError, match="magic"):
            parse_checkpoint(b"NOTACKPT" + b"\x00" * 16)

    def test_truncated(self):
        blob = checkpoint_bytes({}, {"w": np.ones(4, dtype=np.float32)})
        with pytest.raises(DataError, match="truncated"):
            parse_checkpoint(blob[:-3])

    def test_duplicate_tensor_name(self):
        # Header with no metadata, then two one-element tensors named "w".
        record = struct.pack("<I", 1) + b"w" + struct.pack("<II", 1, 1) + struct.pack("<f", 2.0)
        blob = b"TAPTCKPT" + struct.pack("<II", VERSION, 0) + record + record
        with pytest.raises(DataError, match="duplicate tensor name 'w'"):
            parse_checkpoint(blob)

    def test_corrupt_ndim_is_refused_in_bounded_time(self):
        # One tensor whose ndim is half the word count of a 640 KB nonzero
        # payload, so the payload would be read as 81920 dimensions.
        payload = b"\xff" * (640 * 1024)
        record = struct.pack("<I", 1) + b"w" + struct.pack("<I", len(payload) // 8) + payload
        blob = b"TAPTCKPT" + struct.pack("<II", VERSION, 0) + record
        start = time.perf_counter()
        with pytest.raises(DataError, match="'w' has an unusable shape: ndim 81920 > 64"):
            parse_checkpoint(blob)
        assert time.perf_counter() - start < 1.0

    def test_non_utf8_tensor_name(self):
        record = struct.pack("<I", 2) + b"\xff\xfe" + struct.pack("<II", 1, 1) + struct.pack("<f", 2.0)
        blob = b"TAPTCKPT" + struct.pack("<II", VERSION, 0) + record
        with pytest.raises(DataError, match="tensor name is not valid UTF-8"):
            parse_checkpoint(blob)

    def test_non_utf8_metadata(self):
        blob = b"TAPTCKPT" + struct.pack("<II", VERSION, 3) + b"a=\xff"
        with pytest.raises(DataError, match="metadata is not valid UTF-8"):
            parse_checkpoint(blob)

    @pytest.mark.parametrize("dims", [(0, 2**32 - 1, 2**32 - 1, 2**32 - 1), (0,) * 70])
    def test_unusable_shape(self, dims):
        record = struct.pack("<I", 1) + b"w" + struct.pack(f"<I{len(dims)}I", len(dims), *dims)
        blob = b"TAPTCKPT" + struct.pack("<II", VERSION, 0) + record
        with pytest.raises(DataError, match="unusable shape"):
            parse_checkpoint(blob)

    VALID = checkpoint_bytes(
        {"kind": "fusion", "task": "hate"},
        {"a.w": np.arange(6, dtype=np.float32).reshape(2, 3), "b": np.array(1.5, dtype=np.float32)},
    )

    @staticmethod
    def _parses_or_data_error(blob):
        try:
            parse_checkpoint(blob)
        except DataError:
            pass

    @settings(max_examples=300, deadline=500)
    @given(st.binary(max_size=200))
    def test_fuzz_arbitrary_bytes(self, tail):
        self._parses_or_data_error(tail)
        self._parses_or_data_error(b"TAPTCKPT" + struct.pack("<I", VERSION) + tail)

    @settings(max_examples=300, deadline=500)
    @given(st.data())
    def test_fuzz_mutated_valid_blob(self, data):
        blob = bytearray(self.VALID)
        at = data.draw(st.integers(0, len(blob) - 1))
        blob[at] = data.draw(st.integers(0, 255))
        self._parses_or_data_error(bytes(blob))
        self._parses_or_data_error(self.VALID[:at])

    def test_version_1_rejected(self):
        blob = checkpoint_bytes({"kind": "encoder"}, {"w": np.ones(2, dtype=np.float32)})
        old = blob[:8] + struct.pack("<I", 1) + blob[12:]
        with pytest.raises(DataError, match="unsupported checkpoint version 1"):
            parse_checkpoint(old)


@pytest.fixture(scope="module")
def ckpt_path(tmp_path_factory):
    return tmp_path_factory.mktemp("header") / "model.ckpt"


class TestReadMetadata:
    VALID = TestCheckpoint.VALID

    def test_valid_blob(self, ckpt_path):
        ckpt_path.write_bytes(self.VALID)
        assert read_metadata(ckpt_path) == parse_checkpoint(self.VALID)[0]
        assert read_metadata(ckpt_path) == {"kind": "fusion", "task": "hate"}

    def test_reads_no_tensor_record(self, ckpt_path):
        # Tensors that parse_checkpoint refuses: a NaN, then a cut record.
        meta = {"kind": "fusion", "task": "fake"}
        blob = checkpoint_bytes(meta, {"w": np.array([np.nan, 1.0], dtype=np.float32)})
        for bad in (blob, blob[:-2]):
            with pytest.raises(DataError):
                parse_checkpoint(bad)
            ckpt_path.write_bytes(bad)
            assert read_metadata(ckpt_path) == meta

    def test_truncated_header(self, ckpt_path):
        header_end = 8 + 4 + 4 + len("kind=fusion\ntask=hate")
        for cut in (0, 5, 10, 14, header_end - 1):
            ckpt_path.write_bytes(self.VALID[:cut])
            with pytest.raises(DataError, match=f"{ckpt_path.name}: truncated checkpoint"):
                read_metadata(ckpt_path)
        ckpt_path.write_bytes(self.VALID[:header_end])
        assert read_metadata(ckpt_path)["task"] == "hate"

    def test_bad_magic(self, ckpt_path):
        ckpt_path.write_bytes(b"NOTACKPT" + self.VALID[8:])
        with pytest.raises(DataError, match="bad magic"):
            read_metadata(ckpt_path)

    def test_huge_declared_metadata_length(self, ckpt_path):
        ckpt_path.write_bytes(b"TAPTCKPT" + struct.pack("<II", VERSION, 2**32 - 1) + b"a=b")
        with pytest.raises(DataError, match="truncated checkpoint"):
            read_metadata(ckpt_path)

    @staticmethod
    def _reads_or_data_error(path, blob):
        path.write_bytes(blob)
        try:
            read_metadata(path)
        except DataError:
            pass

    @settings(max_examples=300, deadline=500)
    @given(st.binary(max_size=200))
    def test_fuzz_arbitrary_bytes(self, ckpt_path, tail):
        self._reads_or_data_error(ckpt_path, tail)
        self._reads_or_data_error(ckpt_path, b"TAPTCKPT" + struct.pack("<I", VERSION) + tail)

    @settings(max_examples=300, deadline=500)
    @given(st.data())
    def test_fuzz_mutated_valid_blob(self, ckpt_path, data):
        blob = bytearray(self.VALID)
        at = data.draw(st.integers(0, len(blob) - 1))
        blob[at] = data.draw(st.integers(0, 255))
        self._reads_or_data_error(ckpt_path, bytes(blob))
        self._reads_or_data_error(ckpt_path, self.VALID[:at])
