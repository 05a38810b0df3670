import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gradcheck import gradcheck
from hostility.checkpoint import checkpoint_bytes, parse_checkpoint
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
    matmul,
    mul,
    relu,
    scale,
    slice_cols,
    softmax_rows,
    sum_all,
    transpose,
    zero_grad,
)


def t64(arr, requires_grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad)


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

    def test_concat_rows(self):
        out = concat_rows([Tensor(np.ones((2, 2))), Tensor(np.zeros((2, 3)))])
        assert out.shape == (2, 5)

    def test_embedding_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            embedding_lookup(Tensor(np.zeros((3, 2))), [3])


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
            out = dropout(x, 0.4, training=True, rng=np.random.default_rng(123))
            return sum_all(mul(out, out))

        self._check(build, {"x": x})

    def test_cross_entropy(self):
        rng = np.random.default_rng(10)
        x = t64(rng.normal(size=(4, 5)), requires_grad=True)
        labels = [0, 3, 2, 4]
        self._check(lambda: cross_entropy(x, labels), {"x": x})


class TestDropout:
    def test_p_zero_is_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert dropout(x, 0.0, training=True, rng=np.random.default_rng(0)) is x

    def test_inference_passthrough(self):
        x = Tensor(np.ones((3, 3)))
        assert dropout(x, 0.1, training=False, rng=None) is x

    def test_bad_probability(self):
        with pytest.raises(ValueError, match="probability"):
            dropout(Tensor(np.ones((2, 2))), 1.0, training=True, rng=np.random.default_rng(0))

    def test_mean_and_zero_fraction(self):
        x = Tensor(np.ones((1000, 1000)))
        out = dropout(x, 0.5, training=True, rng=np.random.default_rng(42))
        assert abs(out.data.mean() - 1.0) < 0.01
        zero_fraction = float((out.data == 0).mean())
        assert abs(zero_fraction - 0.5) < 0.005

    def test_fixed_seed_gives_identical_masks(self):
        x = Tensor(np.ones((50, 50)))
        a = dropout(x, 0.3, training=True, rng=np.random.default_rng(7))
        b = dropout(x, 0.3, training=True, rng=np.random.default_rng(7))
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
        attn = dropout(softmax_rows(add_bias(scores, mask)), p, True, rng)
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
        fused = attention(q, k, v, 4, self.KEY_PAD, p, True, np.random.default_rng(5))
        ref = _per_head_attention(q, k, v, 4, self.KEY_PAD[0], p, np.random.default_rng(5))
        np.testing.assert_array_equal(fused.data, ref.data)

    def test_one_sequence_grads_match_per_head_ops(self):
        w = t64(np.random.default_rng(12).normal(size=(7, 16)))
        grads = []
        for fused in (True, False):
            qkv = self._qkv(np.float64)
            rng = np.random.default_rng(5)
            if fused:
                out = attention(*qkv, 4, self.KEY_PAD, 0.25, True, rng)
            else:
                out = _per_head_attention(*qkv, 4, self.KEY_PAD[0], 0.25, rng)
            backward(sum_all(mul(out, w)))
            grads.append([t.grad for t in qkv])
        for fused, ref in zip(*grads):
            np.testing.assert_allclose(fused, ref, rtol=1e-12, atol=1e-12)

    def test_key_pad_must_cover_rows(self):
        q, k, v = self._qkv(np.float32)
        with pytest.raises(ShapeError, match="key_pad"):
            attention(q, k, v, 4, np.zeros((2, 3), dtype=bool), 0.0, False, None)


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
