import math

import numpy as np
import pytest

from hostility.encoder import (
    CLS_ID,
    IGNORE_ID,
    MASK_ID,
    N_SPECIALS,
    PAD_ID,
    SEP_ID,
    SPECIALS,
    UNK_ID,
    EncoderConfig,
    EncoderWeights,
    Vocab,
    config_from_meta,
    config_to_meta,
    desk_config,
    encode,
    encode_batch,
    encode_ids,
    mask_tokens,
    mlm_loss,
    paper_config,
)
from hostility.errors import DataError, ShapeError


@pytest.fixture(scope="module")
def vocab():
    lines = [
        "yeh sach hai",
        "sach ka saath dena",
        "jhooth khabar nafrat gaali mat bolo",
        "acha din shanti path",
    ]
    return Vocab.build(lines)


@pytest.fixture(scope="module")
def config(vocab):
    return EncoderConfig(vocab_size=len(vocab), d_model=16, n_layers=2, n_heads=2, d_ff=32, max_len=24)


@pytest.fixture(scope="module")
def weights(config):
    return EncoderWeights.init(config, np.random.default_rng(11))


class TestVocab:
    def test_specials_fixed(self, vocab):
        assert vocab.tokens[:5] == list(SPECIALS)
        assert (PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID) == (0, 1, 2, 3, 4)

    def test_ids_dense_and_unique(self, vocab):
        assert sorted(vocab.index.values()) == list(range(len(vocab)))

    def test_unknown_falls_back_to_unk(self, vocab):
        assert vocab.id_of("zzzz") == UNK_ID

    def test_frequency_order(self):
        v = Vocab.build(["b a a", "a c b"])
        assert v.tokens[5:] == ["a", "b", "c"]

    def test_save_load_roundtrip(self, vocab, tmp_path):
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = Vocab.load(path)
        assert loaded.tokens == vocab.tokens
        assert loaded.sha256() == vocab.sha256()

    def test_load_rejects_missing_specials(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("a\nb\nc\nd\ne\nf\n", encoding="utf-8")
        with pytest.raises(DataError, match="special"):
            Vocab.load(path)


class TestEncodeIds:
    def test_empty(self, vocab):
        assert encode_ids(vocab, "") == [CLS_ID, SEP_ID]

    def test_known_words(self, vocab):
        ids = encode_ids(vocab, "sach hai")
        assert ids == [CLS_ID, vocab.id_of("sach"), vocab.id_of("hai"), SEP_ID]

    def test_case_folded(self, vocab):
        assert encode_ids(vocab, "SACH") == encode_ids(vocab, "sach")

    def test_truncation_to_max_len(self, vocab):
        text = " ".join(["sach"] * 200)
        ids = encode_ids(vocab, text, max_len=128)
        assert len(ids) == 128
        assert ids[0] == CLS_ID and ids[-1] == SEP_ID


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ShapeError, match="divisible"):
            EncoderConfig(vocab_size=10, d_model=10, n_heads=3)

    def test_profiles(self):
        desk = desk_config(100)
        assert (desk.d_model, desk.n_layers, desk.n_heads, desk.d_ff) == (64, 2, 4, 256)
        paper = paper_config(100)
        assert (paper.d_model, paper.n_layers, paper.n_heads, paper.d_ff) == (768, 12, 12, 3072)
        assert desk.max_len == paper.max_len == 128
        assert desk.dropout_p == paper.dropout_p == 0.1

    def test_meta_roundtrip(self, config):
        assert config_from_meta(config_to_meta(config)) == config


class TestWeights:
    def test_shape_audit(self, weights, config):
        table = EncoderWeights.shape_table(config)
        assert set(weights.params) == set(table)
        for name, shape in table.items():
            assert weights.params[name].data.shape == shape, name

    def test_init_deterministic(self, config):
        a = EncoderWeights.init(config, np.random.default_rng(5))
        b = EncoderWeights.init(config, np.random.default_rng(5))
        assert a.equals(b)

    def test_copy_is_deep(self, weights):
        clone = weights.copy()
        clone.params["tok_emb"].data[0, 0] += 1.0
        assert not clone.equals(weights)

    def test_from_arrays_validates_shapes(self, config, weights):
        arrays = weights.arrays()
        arrays["tok_emb"] = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(ShapeError, match="tok_emb"):
            EncoderWeights.from_arrays(config, arrays)


class TestEncode:
    def test_output_shapes_and_finite(self, weights, config, vocab):
        pooled, hidden = encode(weights, config, [CLS_ID, SEP_ID])
        assert pooled.shape == (1, config.d_model)
        assert hidden.shape == (2, config.d_model)
        assert np.isfinite(pooled.data).all()

    def test_deterministic_without_dropout(self, weights, config, vocab):
        ids = encode_ids(vocab, "yeh sach hai", config.max_len)
        a, _ = encode(weights, config, ids)
        b, _ = encode(weights, config, ids)
        np.testing.assert_array_equal(a.data, b.data)

    def test_padding_invariance(self, weights, config, vocab):
        ids = encode_ids(vocab, "sach ka saath", config.max_len)
        base, _ = encode(weights, config, ids)
        padded, _ = encode(weights, config, ids + [PAD_ID] * 6)
        assert np.abs(padded.data - base.data).max() <= 1e-5

    def test_padded_batch_matches_single_sequences(self, weights, config, vocab):
        texts = ["sach", "jhooth khabar nafrat gaali mat bolo", "acha din"]
        batch = [encode_ids(vocab, text, config.max_len) for text in texts]
        batch[2] = batch[2] + [PAD_ID] * 2  # an explicit PAD stays masked
        pooled, hidden = encode_batch(weights, config, batch)
        t = max(len(ids) for ids in batch)
        assert pooled.shape == (3, config.d_model)
        assert hidden.shape == (3 * t, config.d_model)
        for b, ids in enumerate(batch):
            single_pooled, single_hidden = encode(weights, config, ids)
            assert np.abs(pooled.data[b] - single_pooled.data[0]).max() <= 1e-5
            rows = hidden.data[b * t : b * t + len(ids)]
            assert np.abs(rows - single_hidden.data).max() <= 1e-5

    def test_attention_rows_sum_to_one(self, weights, config, vocab):
        ids = encode_ids(vocab, "jhooth khabar nafrat", config.max_len) + [PAD_ID] * 3
        sink = []
        encode(weights, config, ids, attn_sink=sink)
        assert len(sink) == config.n_layers * config.n_heads
        for attn in sink:
            np.testing.assert_allclose(attn.sum(axis=1), 1.0, atol=1e-6)
            # PAD keys receive no attention mass from real positions
            assert attn[0, -3:].max() < 1e-8

    def test_id_out_of_range(self, weights, config):
        with pytest.raises(ValueError, match="out of range"):
            encode(weights, config, [CLS_ID, config.vocab_size, SEP_ID])

    def test_too_long(self, weights, config):
        with pytest.raises(ShapeError, match="max_len"):
            encode(weights, config, [CLS_ID] * (config.max_len + 1))


class TestMaskTokens:
    def test_p_zero_changes_nothing(self, vocab):
        ids = encode_ids(vocab, "yeh sach hai")
        masked, targets = mask_tokens(ids, len(vocab), np.random.default_rng(0), p=0.0)
        assert masked == ids
        assert all(t == IGNORE_ID for t in targets)

    def test_forced_mask_branch(self, vocab):
        # seed 0: the branch draw is 0.2698 < 0.8, i.e. the MASK branch
        w = vocab.id_of("sach")
        masked, targets = mask_tokens(
            [CLS_ID, w, SEP_ID], len(vocab), np.random.default_rng(0), p=1.0
        )
        assert masked == [CLS_ID, MASK_ID, SEP_ID]
        assert targets == [IGNORE_ID, w, IGNORE_ID]

    def test_forced_random_branch(self, vocab):
        # seed 5: branch draw 0.8079 lands in the random-replacement bucket
        w = vocab.id_of("sach")
        masked, targets = mask_tokens(
            [CLS_ID, w, SEP_ID], len(vocab), np.random.default_rng(5), p=1.0
        )
        assert masked[1] >= N_SPECIALS
        assert targets[1] == w

    def test_forced_keep_branch(self, vocab):
        # seed 1: branch draw 0.9505 keeps the original token
        w = vocab.id_of("sach")
        masked, targets = mask_tokens(
            [CLS_ID, w, SEP_ID], len(vocab), np.random.default_rng(1), p=1.0
        )
        assert masked[1] == w
        assert targets[1] == w

    def test_specials_never_selected(self, vocab):
        ids = [CLS_ID, PAD_ID, SEP_ID, MASK_ID, UNK_ID]
        masked, targets = mask_tokens(ids, len(vocab), np.random.default_rng(3), p=1.0)
        assert masked == ids
        assert all(t == IGNORE_ID for t in targets)

    def test_statistics(self, vocab):
        rng = np.random.default_rng(2024)
        n = 100_000
        ids = [N_SPECIALS + i % (len(vocab) - N_SPECIALS) for i in range(n)]
        masked, targets = mask_tokens(ids, len(vocab), rng, p=0.15)
        selected = [i for i, t in enumerate(targets) if t != IGNORE_ID]
        frac = len(selected) / n
        assert abs(frac - 0.15) < 0.01
        n_mask = sum(1 for i in selected if masked[i] == MASK_ID)
        n_keep = sum(1 for i in selected if masked[i] == ids[i])
        n_rand = len(selected) - n_mask - n_keep
        assert abs(n_mask / len(selected) - 0.8) < 0.02
        # random replacements can coincide with the original token, so the
        # observed keep fraction absorbs part of the random bucket
        assert abs((n_rand + n_keep) / len(selected) - 0.2) < 0.02
        assert n_rand / len(selected) < 0.12


class TestMlmLoss:
    def test_untrained_loss_near_log_vocab(self, weights, config, vocab):
        ids = encode_ids(vocab, "yeh sach hai sach ka saath", config.max_len)
        masked, targets = mask_tokens(ids, len(vocab), np.random.default_rng(8), p=0.9)
        loss = mlm_loss(weights, config, [masked], [targets])
        expected = math.log(config.vocab_size)
        assert abs(loss.item() - expected) / expected < 0.15

    def test_batch_loss_is_mean_of_line_losses(self, weights, config, vocab):
        rng = np.random.default_rng(6)
        texts = ("yeh sach hai", "acha din shanti path ka")
        lines = [encode_ids(vocab, t, config.max_len) for t in texts]
        masks = [mask_tokens(ids, len(vocab), rng, p=0.7) for ids in lines]
        masked, targets = [m for m, _ in masks], [t for _, t in masks]
        batch = mlm_loss(weights, config, masked, targets).item()
        singles = [mlm_loss(weights, config, [m], [t]).item() for m, t in masks]
        assert batch == pytest.approx(sum(singles) / 2, abs=1e-5)

    def test_no_targets_is_an_error(self, weights, config):
        with pytest.raises(ValueError, match="target"):
            mlm_loss(weights, config, [[CLS_ID, SEP_ID]], [[IGNORE_ID, IGNORE_ID]])

    def test_nonnegative(self, weights, config, vocab):
        ids = encode_ids(vocab, "nafrat gaali mat bolo", config.max_len)
        masked, targets = mask_tokens(ids, len(vocab), np.random.default_rng(4), p=0.8)
        assert mlm_loss(weights, config, [masked], [targets]).item() >= 0
