import dataclasses
import tracemalloc

import numpy as np
import pytest

import hostility.fusion
import hostility.numeric
from hostility.checkpoint import checkpoint_bytes, parse_checkpoint
from hostility.encoder import (
    CLS_ID,
    MAX_LAYERS,
    SEP_ID,
    EncoderConfig,
    Vocab,
    desk_config,
    encode_ids,
    encoder_shape_table,
    init_params,
    paper_config,
)
from hostility.errors import DataError, ShapeError
from hostility.fusion import (
    FusionConfig,
    forward,
    fused_vector,
    hashtag_encoder_init,
    head_shape_table,
    init_model,
    load_model,
    model_from_bytes,
    model_to_bytes,
    predict,
    predict_batch,
    prob_of_positive,
    text_encoder_init,
)
from hostility.numeric import Tensor, adam_init, adam_step, backward, cross_entropy, zero_grad
from hostility.preprocess import FeatureBundle
from hostility.tapt import TaptCorpus, run_tapt
from gradcheck import gradcheck
from param_sets import same_params


@pytest.fixture(scope="module")
def vocab():
    return Vocab.build(["yeh sach hai", "jhooth khabar nafrat", "acha din sach ka saath"])


@pytest.fixture(scope="module")
def config(vocab):
    enc = EncoderConfig(vocab_size=len(vocab), d_model=16, n_layers=1, n_heads=2, d_ff=32, max_len=16, shared_layers=False)
    return FusionConfig(encoder=enc, emoji_dim=6, mlp_hidden=(8, 4))


def bundle(cleaned="yeh sach hai", flow="sach ka saath", dim=6, fill=0.0):
    return FeatureBundle(cleaned, flow, np.full(dim, fill, dtype=np.float32), int(fill != 0))


class TestDimensionLaw:
    def test_fused_dim_formula(self, config):
        assert config.fused_dim == 2 * 16 + 6

    def test_desk_profile(self, vocab):
        cfg = FusionConfig(encoder=desk_config(len(vocab)))
        assert cfg.fused_dim == 2 * 64 + 300 == 428

    def test_paper_profile_is_1836(self, vocab):
        cfg = FusionConfig(encoder=paper_config(len(vocab)))
        assert cfg.fused_dim == 2 * 768 + 300 == 1836

    def test_forward_shapes(self, config, vocab):
        model = init_model(config, vocab, "coarse", base_seed=0)
        vec = fused_vector(model, bundle())
        assert vec.shape == (config.fused_dim,)
        logits = forward(model, [bundle()])
        assert logits.shape == (1, 2)

    def test_batch_rows_match_single_posts(self, config, vocab):
        model = init_model(config, vocab, "coarse", base_seed=0)
        # Unit-scale head weights make the logits O(1), so that posts
        # differ by far more than the tolerance.
        rng = np.random.default_rng(0)
        for p in model.head.values():
            if p.data.ndim == 2:
                p.data = (rng.standard_normal(p.data.shape) / np.sqrt(len(p.data))).astype(np.float32)
        # Text lengths 5, 3, 7 and hashtag lengths 5, 2, 3: neither
        # encoder's batch is in length order.
        posts = [bundle(), bundle("yeh", "", fill=1.0), bundle("sach ka saath dena hai", "sach")]
        batch = forward(model, posts).data
        assert batch.shape == (3, 2)
        singles = [forward(model, [b]).data[0] for b in posts]
        for row, single in zip(batch, singles):
            assert np.abs(row - single).max() <= 1e-6
        for i in range(3):
            assert np.abs(singles[i] - singles[i - 1]).max() > 1e-3


class TestInitModel:
    def test_deterministic(self, config, vocab):
        a = init_model(config, vocab, "coarse", base_seed=5)
        b = init_model(config, vocab, "coarse", base_seed=5)
        for name, p in a.named_params().items():
            np.testing.assert_array_equal(p.data, b.named_params()[name].data)

    def test_encoders_differ_from_each_other(self, config, vocab):
        model = init_model(config, vocab, "coarse", base_seed=5)
        assert not same_params(model.text_encoder, model.hashtag_encoder)

    def test_adapted_weights_go_to_text_encoder_only(self, config, vocab):
        corpus = TaptCorpus(["yeh sach hai", "jhooth khabar nafrat"], ["raw", "raw"])
        adapted = run_tapt(config.encoder, vocab, corpus, epochs=2, lr=1e-3, batch_size=4, seed=2).weights
        model = init_model(config, vocab, "coarse", tapt_weights=adapted, base_seed=7)
        assert same_params(model.text_encoder, adapted)
        assert model.text_encoder is not adapted
        assert same_params(model.hashtag_encoder, hashtag_encoder_init(config.encoder, 7))
        assert not same_params(model.hashtag_encoder, adapted)

    def test_hashtag_init_ignores_adapted_weights(self, config, vocab):
        corpus = TaptCorpus(["yeh sach hai"], ["raw"])
        adapted = run_tapt(config.encoder, vocab, corpus, epochs=1, lr=1e-3, batch_size=4, seed=2).weights
        with_tapt = init_model(config, vocab, "coarse", tapt_weights=adapted, base_seed=9)
        without = init_model(config, vocab, "coarse", base_seed=9)
        assert same_params(with_tapt.hashtag_encoder, without.hashtag_encoder)
        assert not same_params(with_tapt.text_encoder, without.text_encoder)
        assert same_params(without.text_encoder, text_encoder_init(config.encoder, 9))

    def test_shape_mismatch_rejected(self, config, vocab):
        other = EncoderConfig(vocab_size=len(vocab), d_model=8, n_layers=1, n_heads=2, d_ff=16, max_len=16, shared_layers=False)
        wrong = init_params(encoder_shape_table(other), np.random.default_rng(0))
        with pytest.raises(ShapeError):
            init_model(config, vocab, "coarse", tapt_weights=wrong, base_seed=0)


class TestForward:
    def test_inference_deterministic(self, config, vocab):
        model = init_model(config, vocab, "coarse", base_seed=1)
        a = forward(model, [bundle()]).data
        b = forward(model, [bundle()]).data
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("run", [forward, predict_batch], ids=["forward", "predict_batch"])
    def test_emoji_vector_length_checked(self, config, vocab, run):
        model = init_model(config, vocab, "coarse", base_seed=1)
        with pytest.raises(ShapeError, match="emoji"):
            run(model, [bundle(dim=5)])

    def test_emoji_block_perturbs_logits(self, config, vocab):
        model = init_model(config, vocab, "coarse", base_seed=1)
        # force a nonzero fusion column for the emoji block
        model.head["fusion.w"].data[2 * 16 + 1, :] = 0.5
        zero = forward(model, [bundle(fill=0.0)]).data
        nonzero = forward(model, [bundle(fill=1.0)]).data
        assert np.abs(zero - nonzero).max() > 1e-6

    def test_empty_flow_uses_uniform_path(self, config, vocab):
        model = init_model(config, vocab, "coarse", base_seed=1)
        logits = forward(model, [bundle(flow="")])
        assert np.isfinite(logits.data).all()

    def test_gradients_reach_both_encoders(self, config, vocab):
        model = init_model(config, vocab, "coarse", base_seed=4)
        before_text = {k: p.data.copy() for k, p in model.text_encoder.items()}
        before_hash = {k: p.data.copy() for k, p in model.hashtag_encoder.items()}
        params = model.named_params()
        state = adam_init(params)
        rng = np.random.default_rng(0)
        logits = forward(model, [bundle()], rng=rng)
        loss = cross_entropy(logits, [1])
        zero_grad(params.values())
        backward(loss)
        adam_step(params, state, lr=1e-2)
        assert any(
            not np.array_equal(p.data, before_text[k])
            for k, p in model.text_encoder.items()
        )
        assert any(
            not np.array_equal(p.data, before_hash[k])
            for k, p in model.hashtag_encoder.items()
        )


    def test_gradients_match_finite_differences_with_dropout(self, vocab):
        enc = EncoderConfig(vocab_size=len(vocab), d_model=8, n_layers=1, n_heads=2, d_ff=8, max_len=8, shared_layers=False)
        model = init_model(FusionConfig(encoder=enc, emoji_dim=4, mlp_hidden=(4,)), vocab, "coarse", base_seed=7)
        params = model.named_params()
        for p in params.values():
            p.data = p.data.astype(np.float64)
        # Text lengths 5, 3, 4 and hashtag lengths 2, 4, 2, in one batch.
        # At this point every ReLU input lies more than h from its kink.
        rng = np.random.default_rng(1)
        flows = [("sach ka saath", ""), ("yeh", "sach hai"), ("acha din", "")]
        batch = [FeatureBundle(t, f, rng.normal(size=4), 0) for t, f in flows]

        def build():
            # A fresh rng per build, so every evaluation draws the same dropout.
            logits = forward(model, batch, rng=np.random.default_rng(6))
            return cross_entropy(logits, [1, 0, 1])

        assert gradcheck(build, params) < 1e-4


class TestPredict:
    def test_concurrent_predict_is_consistent(self, config, vocab):
        from concurrent.futures import ThreadPoolExecutor

        model = init_model(config, vocab, "coarse", base_seed=8)
        expected = predict(model, bundle())
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda _: predict(model, bundle()), range(16)))
        assert all(r == expected for r in results)

    def test_tie_goes_to_positive(self):
        assert prob_of_positive(np.array([0.0, 0.0])) == 0.5

    def test_confident_negative(self):
        prob = prob_of_positive(np.array([10.0, -10.0]))
        assert prob == pytest.approx(2.061153622e-09, rel=1e-6)

    def test_shift_invariance(self):
        base = prob_of_positive(np.array([0.3, -1.2]))
        shifted = prob_of_positive(np.array([0.3 + 17.0, -1.2 + 17.0]))
        assert abs(base - shifted) < 1e-6

    def test_predict_uses_half_threshold(self, config, vocab):
        model = init_model(config, vocab, "coarse", base_seed=1)
        label, prob = predict(model, bundle())
        assert label == (1 if prob >= 0.5 else 0)


def _mixed_posts():
    """Posts of many text lengths (some truncated at max_len), duplicates,
    empty hashtag flows and distinct emoji vectors."""
    words = "yeh sach hai jhooth khabar nafrat acha din ka saath".split()
    posts = []
    for i in range(24):
        text = " ".join(words[(i + j) % len(words)] for j in range(1 + (i * 7) % 20))
        flow = "" if i % 3 else " ".join(words[i % 4 : i % 4 + 1 + i % 3])
        posts.append(bundle(text, flow, fill=0.1 * (i % 4)))
    posts.insert(5, posts[2])
    posts.append(posts[0])
    return posts


def _alone(model, post):
    prob = prob_of_positive(forward(model, [post]).data[0])
    return (1 if prob >= 0.5 else 0, prob)


@pytest.fixture
def encoder_graphs(monkeypatch):
    """The id sequences of every encoder graph fusion scores."""
    graphs = []
    real_encode_packed = hostility.fusion.encode_packed

    def recording_encode_packed(weights, enc_config, seqs, rng=None):
        graphs.append([tuple(ids) for ids in seqs])
        return real_encode_packed(weights, enc_config, seqs, rng)

    monkeypatch.setattr(hostility.fusion, "encode_packed", recording_encode_packed)
    return graphs


def _graph_rows(graph):
    return sum(len(ids) for ids in graph)


class TestPredictBatch:
    def test_each_result_equals_the_post_alone(self, config, vocab):
        posts = _mixed_posts()
        for seed in range(3):
            model = init_model(config, vocab, "coarse", base_seed=seed)
            assert predict_batch(model, posts) == [_alone(model, p) for p in posts]

    def test_input_order(self, config, vocab):
        model = init_model(config, vocab, "coarse", base_seed=4)
        posts = _mixed_posts()
        assert predict_batch(model, posts[::-1]) == predict_batch(model, posts)[::-1]

    def test_encoded_and_raw_posts_agree(self, config, vocab):
        model = init_model(config, vocab, "coarse", base_seed=4)
        posts = _mixed_posts()
        assert predict_batch(model, posts) == [predict(model, p) for p in posts]
        assert predict(model, posts[3]) == predict_batch(model, posts)[3]

    def test_empty(self, config, vocab):
        assert predict_batch(init_model(config, vocab, "coarse", base_seed=0), []) == []

    def test_distinct_inputs_in_packed_graphs(self, config, vocab, encoder_graphs):
        model = init_model(config, vocab, "coarse", base_seed=1)
        posts = _mixed_posts()
        predict_batch(model, posts)
        max_len = config.encoder.max_len
        texts = {tuple(encode_ids(vocab, x.cleaned_text, max_len)) for x in posts}
        hashtags = {tuple(encode_ids(vocab, x.hashtag_flow, max_len)) for x in posts}
        assert len(texts) < len(posts) and len(hashtags) < len(posts)
        # Every distinct sequence is encoded exactly once.
        seen = [ids for graph in encoder_graphs for ids in graph]
        assert sorted(seen) == sorted([*texts, *hashtags])
        assert (CLS_ID, SEP_ID) in seen
        # Both encoders' sequences fit one graph of SCORE_ROWS rows each,
        # so the 24 distinct text lengths share one graph.
        assert _graph_rows(texts) <= hostility.fusion.SCORE_ROWS
        assert len(encoder_graphs) == 2
        assert [set(graph) for graph in encoder_graphs] == [texts, hashtags]
        assert len({len(ids) for ids in encoder_graphs[0]}) > 5
        for graph in encoder_graphs:
            assert _graph_rows(graph) <= hostility.fusion.SCORE_ROWS
            assert [len(ids) for ids in graph] == sorted(len(ids) for ids in graph)

    def test_length_group_larger_than_score_rows(
        self, config, vocab, monkeypatch, encoder_graphs
    ):
        model = init_model(config, vocab, "coarse", base_seed=2)
        words = "yeh sach hai jhooth khabar nafrat acha din ka saath".split()
        posts = [bundle(" ".join(words[i : i + 4] + words[:i]), "") for i in range(7)]
        posts = [bundle(f"{w} {v} ka", "sach") for w in words for v in words[:3]] + posts
        posts.append(bundle(" ".join(words + words[:3]), "sach"))
        expected = [_alone(model, p) for p in posts]
        encoder_graphs.clear()
        monkeypatch.setattr(hostility.fusion, "SCORE_ROWS", 12)
        assert predict_batch(model, posts) == expected
        seen = [ids for graph in encoder_graphs for ids in graph]
        assert len(seen) == len(set(seen)) == 30 + 7 + 1 + 2
        # 30 texts of five tokens go two to a graph, those of 6 to 12
        # tokens one to a graph, the 15-token text alone; the hashtag
        # flows share one.
        rows = [[len(ids) for ids in graph] for graph in encoder_graphs]
        assert rows == [[5, 5]] * 15 + [[n] for n in (6, 7, 8, 9, 10, 11, 12, 15)] + [[2, 3]]


def _head_widths():
    """(K, P) of every weight matrix of the desk and paper fusion heads."""
    shapes = set()
    for make in (desk_config, paper_config):
        table = head_shape_table(FusionConfig(encoder=make(100)))
        shapes.update(shape for shape in table.values() if len(shape) == 2)
    return sorted(shapes)


def _encoder_widths():
    """(K, P) of every weight matrix of a desk and a paper encoder layer."""
    shapes = set()
    for make in (desk_config, paper_config):
        enc = make(100)
        shapes.update({(enc.d_model, enc.d_model), (enc.d_model, enc.d_ff), (enc.d_ff, enc.d_model)})
    return sorted(shapes)


def _products(rng, w):
    """x @ w as matmul, and x @ w + b as linear, the op the encoder and
    the head run, with a bias b drawn from rng."""
    b = Tensor(rng.uniform(-0.05, 0.05, size=w.shape[1]).astype(np.float32))
    return (
        lambda x: hostility.numeric.matmul(Tensor(x), w).data,
        lambda x: hostility.numeric.linear(Tensor(x), w, b).data,
    )


class TestBlasRowInvariance:
    """Packed scoring is bit-identical to scoring each post alone only
    while these hold for the BLAS numpy is linked against."""

    @pytest.mark.parametrize("shape", _head_widths())
    def test_stacked_one_row_matmul_equals_each_row_alone(self, shape):
        k, p = shape
        rng = np.random.default_rng(k * 7 + p)
        w = Tensor(rng.uniform(-0.05, 0.05, size=(k, p)).astype(np.float32))
        x = rng.standard_normal((9, 1, k)).astype(np.float32)
        for product in _products(rng, w):
            stacked = product(x)
            for i in range(len(x)):
                np.testing.assert_array_equal(stacked[i], product(x[i]))

    @pytest.mark.parametrize("shape", _encoder_widths())
    def test_sequence_rows_independent_of_graph_height_and_offset(self, shape):
        k, p = shape
        rng = np.random.default_rng(k * 11 + p)
        w = Tensor(rng.uniform(-0.05, 0.05, size=(k, p)).astype(np.float32))
        graph = rng.standard_normal((512, k)).astype(np.float32)
        for product in _products(rng, w):
            tall = product(graph)
            for offset, length in ((0, 2), (0, 64), (3, 5), (131, 17), (255, 33), (510, 2)):
                rows = np.ascontiguousarray(graph[offset : offset + length])
                np.testing.assert_array_equal(tall[offset : offset + length], product(rows))


@pytest.fixture
def op_outputs(monkeypatch):
    """Every Tensor a numeric op returns."""
    outputs = []
    real_result = hostility.numeric._result

    def recording_result(data, parents, backprop):
        out = real_result(data, parents, backprop)
        outputs.append(out)
        return out

    monkeypatch.setattr(hostility.numeric, "_result", recording_result)
    return outputs


def _peak_bytes(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestScoringRecordsNoTape:
    def test_scoring_ops_have_no_grad_and_no_parents(self, config, vocab, op_outputs):
        model = init_model(config, vocab, "coarse", base_seed=3)
        forward(model, [bundle()])
        assert any(t.requires_grad and t._parents for t in op_outputs)
        op_outputs.clear()
        predict_batch(model, _mixed_posts())
        fused_vector(model, bundle())
        # Both calls run each encoder's q, k, v, o, ffn1 and ffn2 per
        # layer and the two-layer text and hashtag projections;
        # predict_batch also runs the fusion layer, the MLP and the output
        # layer. Each of these linear layers records at least one output.
        encoder_linears = 2 * 6 * config.encoder.n_layers
        classifier_linears = 1 + len(config.mlp_hidden) + 1
        assert len(op_outputs) >= 2 * (encoder_linears + 4) + classifier_linears
        for t in op_outputs:
            assert not t.requires_grad and t._parents == () and t._backprop is None

    def test_parameters_keep_grad_and_values(self, config, vocab):
        model = init_model(config, vocab, "coarse", base_seed=3)
        before = {name: p.data.copy() for name, p in model.named_params().items()}
        predict_batch(model, _mixed_posts())
        fused_vector(model, bundle())
        for name, p in model.named_params().items():
            assert p.requires_grad and p.grad is None
            np.testing.assert_array_equal(p.data, before[name])

    def test_view_wraps_the_parameter_arrays(self, config, vocab):
        model = init_model(config, vocab, "coarse", base_seed=3)
        view = hostility.fusion._scoring_view(model).named_params()
        params = model.named_params()
        assert list(view) == list(params)
        for name, p in params.items():
            assert view[name].data is p.data and view[name] is not p
            assert not view[name].requires_grad

    def test_view_is_another_frozen_model(self, config, vocab):
        model = init_model(config, vocab, "coarse", base_seed=3)
        view = hostility.fusion._scoring_view(model)
        assert (view.config, view.vocab, view.task) == (model.config, model.vocab, model.task)
        # Models compare and hash by identity, and their fields are fixed.
        assert view != model and len({model, view}) == 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            view.task = "hate"
        with pytest.raises(ShapeError, match="distinct"):
            dataclasses.replace(model, hashtag_encoder=model.text_encoder)

    def test_peak_memory_below_a_quarter_of_forward(self, vocab):
        # 16 distinct posts of 32 tokens: one 512-row group per encoder.
        config = FusionConfig(encoder=desk_config(len(vocab), max_len=32))
        model = init_model(config, vocab, "coarse", base_seed=0)
        rng = np.random.default_rng(0)

        def words():
            return " ".join(rng.choice(vocab.tokens[5:], size=30))

        emoji = np.zeros(300, dtype=np.float32)
        posts = [FeatureBundle(words(), words(), emoji, 0) for _ in range(16)]
        assert len({tuple(encode_ids(vocab, x.cleaned_text, 32)) for x in posts}) == 16
        scoring = _peak_bytes(lambda: predict_batch(model, posts))
        taped = _peak_bytes(lambda: forward(model, posts))
        assert scoring < 0.25 * taped


class TestPersistence:
    def test_roundtrip(self, config, vocab, tmp_path):
        model = init_model(config, vocab, "hate", base_seed=6)
        path = tmp_path / "model.ckpt"
        path.write_bytes(model_to_bytes(model, extra={"seed": "6"}))
        loaded, meta = load_model(path, vocab)
        assert meta["task"] == "hate" and meta["seed"] == "6"
        assert loaded.task == "hate"
        assert loaded.config == config
        for name, p in model.named_params().items():
            np.testing.assert_array_equal(p.data, loaded.named_params()[name].data)

    def test_loaded_parameters_are_writable(self, config, vocab):
        model = model_from_bytes(model_to_bytes(init_model(config, vocab, "hate", base_seed=0), {}), vocab)
        params = model.named_params()
        for p in params.values():
            assert p.data.flags.writeable and p.requires_grad
        before = params["fusion.w"].data.copy()
        loss = cross_entropy(forward(model, [bundle()]), [1])
        backward(loss)
        adam_step(params, adam_init(params), 1e-2)
        assert not np.array_equal(params["fusion.w"].data, before)

    def test_zero_heads_rejected_at_load(self, config, vocab, tmp_path):
        meta, tensors = parse_checkpoint(model_to_bytes(init_model(config, vocab, "fake", base_seed=0), {}))
        meta["enc.n_heads"] = "0"
        path = tmp_path / "model.ckpt"
        path.write_bytes(checkpoint_bytes(meta, tensors))
        with pytest.raises(ShapeError, match="n_heads must be >= 1"):
            load_model(path, vocab)

    def test_negative_emoji_dim_rejected(self, config):
        with pytest.raises(ShapeError, match="emoji_dim must be >= 0, got -1"):
            FusionConfig(config.encoder, emoji_dim=-1, mlp_hidden=(4,))

    @pytest.mark.parametrize("width", [0, -3])
    def test_non_positive_hidden_width_rejected(self, config, width):
        with pytest.raises(ShapeError, match=f"mlp_hidden entries must be >= 1, got {width}$"):
            FusionConfig(config.encoder, mlp_hidden=(4, width))

    def test_bytes_deterministic(self, config, vocab):
        a = model_to_bytes(init_model(config, vocab, "fake", base_seed=2), {})
        b = model_to_bytes(init_model(config, vocab, "fake", base_seed=2), {})
        assert a == b

    def test_vocab_hash_checked(self, config, vocab):
        blob = model_to_bytes(init_model(config, vocab, "fake", base_seed=2), {})
        other = Vocab.build(["totally different words here"])
        with pytest.raises(DataError, match="vocab hash"):
            model_from_bytes(blob, other)


def shared_config(config):
    """config with a two-layer encoder that shares one layer weight set."""
    return dataclasses.replace(
        config, encoder=dataclasses.replace(config.encoder, n_layers=2, shared_layers=True)
    )


def refused_before_any_shape_table(blob, vocab, monkeypatch, expected):
    def no_table(*args):
        raise AssertionError("a shape table was built before the checks")

    monkeypatch.setattr(hostility.fusion, "encoder_shape_table", no_table)
    monkeypatch.setattr(hostility.fusion, "head_shape_table", no_table)
    with pytest.raises(DataError, match=expected):
        model_from_bytes(blob, vocab)


class TestSharedLayersPersistence:
    def test_roundtrip(self, config, vocab):
        model = init_model(shared_config(config), vocab, "hate", base_seed=6)
        blob = model_to_bytes(model, {})
        meta, tensors = parse_checkpoint(blob)
        assert meta["enc.shared_layers"] == "1" and meta["enc.n_layers"] == "2"
        # Each encoder holds tok_emb, pos_emb, one 16-tensor layer set and ln_f.
        assert len(tensors) == 2 * 20 + len(head_shape_table(config))
        loaded = model_from_bytes(blob, vocab)
        assert loaded.config == model.config
        assert same_params(loaded.named_params(), model.named_params())

    @pytest.mark.parametrize(
        "key, value, expected",
        [
            ("enc.n_layers", "99999999", f"^checkpoint declares 99999999 layers; at most {MAX_LAYERS}$"),
            ("enc.shared_layers", "2", "enc.shared_layers='2'"),
            ("mlp_hidden", "8,x", "checkpoint mlp_hidden entry 'x' is not an integer"),
            ("emoji_dim", "six", "checkpoint emoji_dim 'six' is not an integer"),
            ("enc.d_model", "x", "checkpoint enc.d_model 'x' is not an integer"),
        ],
    )
    def test_header_refused_before_any_shape_table(
        self, config, vocab, monkeypatch, key, value, expected
    ):
        model = init_model(shared_config(config), vocab, "hate", base_seed=6)
        # extra is written last, so it overrides the key.
        blob = model_to_bytes(model, {key: value})
        refused_before_any_shape_table(blob, vocab, monkeypatch, expected)

    def test_depth_within_the_tensor_count_refused_above_max_layers(
        self, config, vocab, monkeypatch
    ):
        # Each width-1 hidden layer adds two tiny tensors, so the file holds
        # more tensors than its declared depth without a second layer set.
        hostile = dataclasses.replace(shared_config(config), mlp_hidden=(1,) * 200)
        model = init_model(hostile, vocab, "hate", base_seed=6)
        n_tensors = len(parse_checkpoint(model_to_bytes(model, {}))[1])
        assert n_tensors > 400
        blob = model_to_bytes(model, {"enc.n_layers": str(n_tensors)})
        expected = f"declares {n_tensors} layers; at most {MAX_LAYERS}$"
        refused_before_any_shape_table(blob, vocab, monkeypatch, expected)

    def test_depth_beyond_the_tensors_refused_by_their_bytes(self, config, vocab):
        """A header that says 3 unshared layers over a file of 2."""

        def model(n_layers):
            enc = dataclasses.replace(config.encoder, n_layers=n_layers)
            return init_model(dataclasses.replace(config, encoder=enc), vocab, "hate", base_seed=6)

        def nbytes(m):
            return sum(p.data.nbytes for p in m.named_params().values())

        held = model(2)
        blob = model_to_bytes(held, {"enc.n_layers": "3"})
        need, room = nbytes(model(3)), nbytes(held)
        with pytest.raises(
            DataError, match=f"^checkpoint declares {need} bytes of tensors; the file holds {room}$"
        ):
            model_from_bytes(blob, vocab)
