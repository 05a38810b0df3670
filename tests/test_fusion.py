import numpy as np
import pytest

from hostility.encoder import EncoderConfig, Vocab, desk_config, paper_config
from hostility.errors import DataError, ShapeError
from hostility.fusion import (
    FusionConfig,
    encode_post,
    forward,
    fused_vector,
    hashtag_encoder_init,
    init_model,
    load_model,
    model_from_bytes,
    model_to_bytes,
    predict,
    prob_of_positive,
    save_model,
    text_encoder_init,
)
from hostility.numeric import adam_init, adam_step, backward, cross_entropy, zero_grad
from hostility.preprocess import FeatureBundle
from hostility.tapt import TaptCorpus, run_tapt


@pytest.fixture(scope="module")
def vocab():
    return Vocab.build(["yeh sach hai", "jhooth khabar nafrat", "acha din sach ka saath"])


@pytest.fixture(scope="module")
def config(vocab):
    enc = EncoderConfig(vocab_size=len(vocab), d_model=16, n_layers=1, n_heads=2, d_ff=32, max_len=16)
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
        logits = forward(model, [encode_post(model, bundle())])
        assert logits.shape == (1, 2)

    def test_batch_rows_match_single_posts(self, config, vocab):
        model = init_model(config, vocab, "coarse", base_seed=0)
        posts = [bundle(), bundle("yeh", "", fill=1.0), bundle("sach ka saath dena hai", "sach")]
        batch = forward(model, [encode_post(model, b) for b in posts]).data
        assert batch.shape == (3, 2)
        for row, b in zip(batch, posts):
            single = forward(model, [encode_post(model, b)]).data[0]
            assert np.abs(row - single).max() <= 1e-5


class TestInitModel:
    def test_deterministic(self, config, vocab):
        a = init_model(config, vocab, "coarse", base_seed=5)
        b = init_model(config, vocab, "coarse", base_seed=5)
        for name, p in a.named_params().items():
            np.testing.assert_array_equal(p.data, b.named_params()[name].data)

    def test_encoders_differ_from_each_other(self, config, vocab):
        model = init_model(config, vocab, "coarse", base_seed=5)
        assert not model.text_encoder.equals(model.hashtag_encoder)

    def test_adapted_weights_go_to_text_encoder_only(self, config, vocab):
        corpus = TaptCorpus(["yeh sach hai", "jhooth khabar nafrat"], ["raw", "raw"])
        adapted = run_tapt(config.encoder, vocab, corpus, epochs=2, lr=1e-3, batch_size=4, seed=2).weights
        model = init_model(config, vocab, "coarse", tapt_weights=adapted, base_seed=7)
        assert model.text_encoder.equals(adapted)
        assert model.text_encoder is not adapted
        assert model.hashtag_encoder.equals(hashtag_encoder_init(config.encoder, 7))
        assert not model.hashtag_encoder.equals(adapted)

    def test_hashtag_init_ignores_adapted_weights(self, config, vocab):
        corpus = TaptCorpus(["yeh sach hai"], ["raw"])
        adapted = run_tapt(config.encoder, vocab, corpus, epochs=1, lr=1e-3, batch_size=4, seed=2).weights
        with_tapt = init_model(config, vocab, "coarse", tapt_weights=adapted, base_seed=9)
        without = init_model(config, vocab, "coarse", base_seed=9)
        assert with_tapt.hashtag_encoder.equals(without.hashtag_encoder)
        assert not with_tapt.text_encoder.equals(without.text_encoder)
        assert without.text_encoder.equals(text_encoder_init(config.encoder, 9))

    def test_shape_mismatch_rejected(self, config, vocab):
        other = EncoderConfig(vocab_size=len(vocab), d_model=8, n_layers=1, n_heads=2, d_ff=16, max_len=16)
        from hostility.encoder import EncoderWeights

        wrong = EncoderWeights.init(other, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            init_model(config, vocab, "coarse", tapt_weights=wrong, base_seed=0)


class TestForward:
    def test_inference_deterministic(self, config, vocab):
        model = init_model(config, vocab, "coarse", base_seed=1)
        a = forward(model, [encode_post(model, bundle())]).data
        b = forward(model, [encode_post(model, bundle())]).data
        np.testing.assert_array_equal(a, b)

    def test_emoji_vector_length_checked(self, config, vocab):
        model = init_model(config, vocab, "coarse", base_seed=1)
        with pytest.raises(ShapeError, match="emoji"):
            forward(model, [encode_post(model, bundle(dim=5))])

    def test_emoji_block_perturbs_logits(self, config, vocab):
        model = init_model(config, vocab, "coarse", base_seed=1)
        # force a nonzero fusion column for the emoji block
        model.head["fusion.w"].data[2 * 16 + 1, :] = 0.5
        zero = forward(model, [encode_post(model, bundle(fill=0.0))]).data
        nonzero = forward(model, [encode_post(model, bundle(fill=1.0))]).data
        assert np.abs(zero - nonzero).max() > 1e-6

    def test_empty_flow_uses_uniform_path(self, config, vocab):
        model = init_model(config, vocab, "coarse", base_seed=1)
        logits = forward(model, [encode_post(model, bundle(flow=""))])
        assert np.isfinite(logits.data).all()

    def test_gradients_reach_both_encoders(self, config, vocab):
        model = init_model(config, vocab, "coarse", base_seed=4)
        before_text = {k: p.data.copy() for k, p in model.text_encoder.params.items()}
        before_hash = {k: p.data.copy() for k, p in model.hashtag_encoder.params.items()}
        params = model.named_params()
        state = adam_init(params)
        rng = np.random.default_rng(0)
        logits = forward(model, [encode_post(model, bundle())], training=True, rng=rng)
        loss = cross_entropy(logits, [1])
        zero_grad(params.values())
        backward(loss)
        adam_step(params, state, lr=1e-2)
        assert any(
            not np.array_equal(p.data, before_text[k])
            for k, p in model.text_encoder.params.items()
        )
        assert any(
            not np.array_equal(p.data, before_hash[k])
            for k, p in model.hashtag_encoder.params.items()
        )


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


class TestPersistence:
    def test_roundtrip(self, config, vocab, tmp_path):
        model = init_model(config, vocab, "hate", base_seed=6)
        path = tmp_path / "model.ckpt"
        save_model(model, path, extra={"seed": "6"})
        loaded, meta = load_model(path, vocab)
        assert meta["task"] == "hate" and meta["seed"] == "6"
        assert loaded.task == "hate"
        assert loaded.config == config
        for name, p in model.named_params().items():
            np.testing.assert_array_equal(p.data, loaded.named_params()[name].data)

    def test_bytes_deterministic(self, config, vocab):
        a = model_to_bytes(init_model(config, vocab, "fake", base_seed=2))
        b = model_to_bytes(init_model(config, vocab, "fake", base_seed=2))
        assert a == b

    def test_vocab_hash_checked(self, config, vocab):
        blob = model_to_bytes(init_model(config, vocab, "fake", base_seed=2))
        other = Vocab.build(["totally different words here"])
        with pytest.raises(DataError, match="vocab hash"):
            model_from_bytes(blob, other)
