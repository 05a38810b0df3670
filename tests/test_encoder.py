import math

import numpy as np
import pytest

import hostility.encoder
from hostility.encoder import (
    CLS_ID,
    IGNORE_ID,
    INIT_BLOCK,
    MASK_ID,
    MAX_LEN,
    N_SPECIALS,
    PAD_ID,
    SEP_ID,
    SPECIALS,
    UNK_ID,
    EncoderConfig,
    Vocab,
    config_from_meta,
    config_to_meta,
    desk_config,
    _packed_hidden,
    encode_ids,
    encode_packed,
    encoder_shape_table,
    init_array,
    init_params,
    mask_tokens,
    mlm_head_shape_table,
    mlm_loss,
    paper_config,
    params_from_arrays,
)
from hostility.errors import DataError, ShapeError
from hostility.numeric import Tensor, attention
from gradcheck import gradcheck
from param_sets import same_params


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
    return EncoderConfig(vocab_size=len(vocab), d_model=16, n_layers=2, n_heads=2, d_ff=32, max_len=24, shared_layers=False)


@pytest.fixture(scope="module")
def weights(config):
    return init_params(encoder_shape_table(config), np.random.default_rng(11))


@pytest.fixture(scope="module")
def head(config):
    return init_params(mlm_head_shape_table(config), np.random.default_rng(12))


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
        with pytest.raises(DataError, match=f"{path.name}: .*special"):
            Vocab.load(path)
        path.write_text("\n".join(SPECIALS[:3]) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"{path.name}: .*special"):
            Vocab.load(path)

    def test_load_rejects_duplicates_naming_the_file(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join([*SPECIALS, "sach", "ka", "sach"]) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"{path.name}: vocab contains duplicate tokens"):
            Vocab.load(path)


class TestEncodeIds:
    def test_empty(self, vocab):
        assert encode_ids(vocab, "", MAX_LEN) == [CLS_ID, SEP_ID]

    def test_known_words(self, vocab):
        ids = encode_ids(vocab, "sach hai", MAX_LEN)
        assert ids == [CLS_ID, vocab.id_of("sach"), vocab.id_of("hai"), SEP_ID]

    def test_case_folded(self, vocab):
        assert encode_ids(vocab, "SACH", MAX_LEN) == encode_ids(vocab, "sach", MAX_LEN)

    def test_truncation_to_max_len(self, vocab):
        text = " ".join(["sach"] * 200)
        ids = encode_ids(vocab, text, max_len=128)
        assert len(ids) == 128
        assert ids[0] == CLS_ID and ids[-1] == SEP_ID

    def test_special_words_encode_as_unknown(self):
        vocab = Vocab.build(["yeh sach hai"])
        ids = encode_ids(vocab, "yeh <pad> <MASK> <sep> sach", 16)
        yeh, sach = vocab.id_of("yeh"), vocab.id_of("sach")
        assert ids == [CLS_ID, yeh, UNK_ID, UNK_ID, UNK_ID, sach, SEP_ID]
        assert encode_ids(vocab, "<cls> <UNK> <Sep>", 16) == [CLS_ID, UNK_ID, UNK_ID, UNK_ID, SEP_ID]


SIZES = dict(vocab_size=10, d_model=8, n_layers=1, n_heads=2, d_ff=8, max_len=8, shared_layers=False)


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ShapeError, match="divisible"):
            EncoderConfig(**{**SIZES, "d_model": 10, "n_heads": 3})

    def test_profiles(self):
        desk = desk_config(100)
        assert (desk.d_model, desk.n_layers, desk.n_heads, desk.d_ff) == (64, 2, 4, 256)
        paper = paper_config(100)
        assert (paper.d_model, paper.n_layers, paper.n_heads, paper.d_ff) == (768, 12, 12, 3072)
        assert desk.max_len == paper.max_len == 128

    def test_meta_roundtrip(self, config):
        assert config_from_meta(config_to_meta(config)) == config

    @pytest.mark.parametrize("rate", ["0.2", None])
    def test_meta_with_another_dropout_rate_rejected(self, config, rate):
        meta = config_to_meta(config)
        if rate is None:
            del meta["enc.dropout_p"]
        else:
            meta["enc.dropout_p"] = rate
        with pytest.raises(DataError, match="enc.dropout_p"):
            config_from_meta(meta)

    def test_meta_records_shared_layers_as_0_or_1(self):
        for make, value in ((desk_config, "0"), (paper_config, "1")):
            meta = config_to_meta(make(100))
            assert meta["enc.shared_layers"] == value
            assert config_from_meta(meta) == make(100)

    def test_meta_written_before_shared_layers_reads_unshared(self):
        meta = config_to_meta(desk_config(100))
        del meta["enc.shared_layers"]
        assert config_from_meta(meta) == desk_config(100)

    @pytest.mark.parametrize("value", ["2", "True", "01", ""])
    def test_meta_with_another_shared_layers_value_rejected(self, config, value):
        meta = {**config_to_meta(config), "enc.shared_layers": value}
        with pytest.raises(DataError, match=f"enc.shared_layers={value!r}"):
            config_from_meta(meta)

    @pytest.mark.parametrize("name, value", [("d_model", "x"), ("n_layers", "1.5"), ("vocab_size", "")])
    def test_meta_with_a_non_integer_size_names_the_key(self, config, name, value):
        meta = {**config_to_meta(config), f"enc.{name}": value}
        with pytest.raises(DataError, match=f"^checkpoint enc.{name} {value!r} is not an integer$"):
            config_from_meta(meta)

    @pytest.mark.parametrize("name", ["d_model", "n_layers", "n_heads", "d_ff", "max_len"])
    def test_sizes_below_one_rejected(self, name):
        with pytest.raises(ShapeError, match=f"{name} must be >= 1"):
            EncoderConfig(**{**SIZES, name: 0})


class TestWeights:
    def test_shape_audit(self, weights, config):
        table = encoder_shape_table(config)
        assert set(weights) == set(table)
        for name, shape in table.items():
            assert weights[name].data.shape == shape, name

    def test_paper_encoder_holds_one_layer_set(self):
        table = encoder_shape_table(paper_config(1734))
        assert {name.split(".")[1] for name in table if name.startswith("layers.")} == {"0"}
        assert sum(math.prod(shape) for shape in table.values()) == 8_519_424

    def test_shared_table_is_the_one_layer_table(self):
        shared = EncoderConfig(**{**SIZES, "n_layers": 3, "shared_layers": True})
        one = EncoderConfig(**SIZES)
        assert list(encoder_shape_table(shared).items()) == list(encoder_shape_table(one).items())

    def test_mlm_head_shapes(self, head, config):
        assert head["mlm.w"].data.shape == (config.d_model, config.vocab_size)
        assert head["mlm.b"].data.shape == (config.vocab_size,)
        assert not head["mlm.b"].data.any()

    def test_init_deterministic(self, config):
        a = init_params(encoder_shape_table(config), np.random.default_rng(5))
        b = init_params(encoder_shape_table(config), np.random.default_rng(5))
        assert same_params(a, b)

    def test_init_params_draws_in_table_order(self, config):
        body, head = encoder_shape_table(config), mlm_head_shape_table(config)
        both = init_params({**body, **head}, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        apart = init_params(body, rng)
        apart.update(init_params(head, rng))
        assert list(both) == list(apart) == [*body, *head]
        assert same_params(both, apart)
        assert all(p.requires_grad and p.data.dtype == np.float32 for p in both.values())

    @pytest.mark.parametrize(
        "shape", [(7,), (3, 5), (INIT_BLOCK,), (2, INIT_BLOCK // 2), (INIT_BLOCK * 2 + 13,), (0, 4)]
    )
    def test_init_array_is_one_uniform_draw(self, shape):
        drawn, reference = np.random.default_rng(11), np.random.default_rng(11)
        arr = init_array("layers.0.ffn.w1", shape, drawn)
        expected = reference.uniform(-0.05, 0.05, size=shape).astype(np.float32)
        assert arr.dtype == np.float32 and arr.shape == shape
        assert arr.tobytes() == expected.tobytes()
        assert drawn.random() == reference.random()

    def test_params_from_read_only_views_are_writable_copies(self, weights, config):
        views = {}
        for name, p in weights.items():
            views[name] = p.data.view()
            views[name].flags.writeable = False
        params = params_from_arrays(encoder_shape_table(config), views, "encoder")
        for name, p in params.items():
            assert p.data.flags.writeable and p.data.flags.owndata and p.requires_grad
            assert not np.shares_memory(p.data, views[name])
            np.testing.assert_array_equal(p.data, views[name])

    def test_seed_streams_are_distinct_and_fixed(self):
        # Changing a stream's number changes every artifact drawn from it.
        streams = {k: v for k, v in vars(hostility.encoder).items() if k.endswith("_STREAM")}
        assert streams == {
            "TEXT_INIT_STREAM": 0,
            "HASHTAG_INIT_STREAM": 1,
            "HEAD_INIT_STREAM": 2,
            "SPLIT_STREAM": 3,
            "TAPT_TRAIN_STREAM": 5,
            "TAPT_MASK_STREAM": 6,
            "FINETUNE_STREAM": 9,
        }
        assert len(set(streams.values())) == len(streams)

    def test_from_arrays_validates_shapes(self, config, weights):
        arrays = {name: p.data for name, p in weights.items()}
        arrays["tok_emb"] = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(ShapeError, match="tok_emb"):
            params_from_arrays(encoder_shape_table(config), arrays, "encoder")


class TestEncode:
    def test_output_shapes_and_finite(self, weights, config, vocab):
        pooled = encode_packed(weights, config, [[CLS_ID, SEP_ID]])
        hidden, start = _packed_hidden(weights, config, [[CLS_ID, SEP_ID]], None)
        assert pooled.shape == (1, config.d_model)
        assert hidden.shape == (2, config.d_model)
        assert start.tolist() == [0]
        assert np.isfinite(pooled.data).all()

    def test_deterministic_without_dropout(self, weights, config, vocab):
        ids = encode_ids(vocab, "yeh sach hai", config.max_len)
        a = encode_packed(weights, config, [ids])
        b = encode_packed(weights, config, [ids])
        np.testing.assert_array_equal(a.data, b.data)

    def test_unsorted_batch_rows_equal_each_sequence_alone(self, weights, config, vocab):
        texts = ["sach ka saath din", "sach", "jhooth khabar nafrat gaali mat bolo", "acha din", "yeh"]
        batch = [encode_ids(vocab, text, config.max_len) for text in texts]
        pooled = encode_packed(weights, config, batch)
        hidden, start = _packed_hidden(weights, config, batch, None)
        assert pooled.shape == (len(batch), config.d_model)
        assert hidden.shape == (sum(len(ids) for ids in batch), config.d_model)
        # Stable length order: "sach" and "yeh" (3), "acha din" (4), ...
        assert start.tolist() == [10, 0, 16, 6, 3]
        for b, ids in enumerate(batch):
            alone = encode_packed(weights, config, [ids])
            alone_hidden, _ = _packed_hidden(weights, config, [ids], None)
            np.testing.assert_array_equal(pooled.data[b], alone.data[0])
            np.testing.assert_array_equal(hidden.data[start[b] : start[b] + len(ids)], alone_hidden.data)

    def test_attention_rows_sum_to_one(self, config, vocab):
        ids = encode_ids(vocab, "jhooth khabar nafrat", config.max_len) + [PAD_ID] * 3
        key_pad = np.array([ids]) == PAD_ID
        rng = np.random.default_rng(3)
        q, k = (Tensor(3 * rng.standard_normal((len(ids), config.d_model))) for _ in "qk")

        def mass(on_keys):
            """Per query and head, the attention mass on the keys where
            on_keys is 1: the output of attention with v = on_keys in
            every column."""
            v = Tensor(np.repeat(on_keys.astype(np.float32)[:, None], config.d_model, axis=1))
            return attention(q, k, v, config.n_heads, [key_pad], 0.0, None).data

        np.testing.assert_allclose(mass(np.ones(len(ids))), 1.0, atol=1e-6)
        # PAD keys receive no attention mass from any position.
        assert mass(key_pad[0]).max() < 1e-8

    def test_packed_rows_equal_each_sequence_alone(self, weights, config, vocab):
        texts = ["sach", "acha din", "yeh sach hai", "jhooth khabar", "", "sach ka saath din"]
        seqs = sorted((encode_ids(vocab, text, config.max_len) for text in texts), key=len)
        pooled = encode_packed(weights, config, seqs)
        assert pooled.shape == (len(seqs), config.d_model)
        for row, ids in zip(pooled.data, seqs):
            alone = encode_packed(weights, config, [ids])
            np.testing.assert_array_equal(row, alone.data[0])
        # Rows come back in input order, whatever the order of lengths.
        unsorted = encode_packed(weights, config, seqs[::-1])
        np.testing.assert_array_equal(unsorted.data, pooled.data[::-1])

    def test_shared_layers_apply_layer_0_at_every_depth(self, weights, config, vocab):
        shared = EncoderConfig(**{**vars(config), "shared_layers": True})
        params = {n: p for n, p in weights.items() if not n.startswith("layers.1.")}
        layer_0 = {n: p for n, p in params.items() if n.startswith("layers.0.")}
        # The per-layer encoder with layers.1 set to layers.0's tensors.
        copied = {**params, **{n.replace(".0.", ".1.", 1): p for n, p in layer_0.items()}}
        seqs = [encode_ids(vocab, text, config.max_len) for text in ("yeh sach hai", "acha din")]
        np.testing.assert_array_equal(
            encode_packed(params, shared, seqs).data, encode_packed(copied, config, seqs).data
        )

    def test_packed_checks_ids_and_lengths(self, weights, config):
        with pytest.raises(ValueError, match=f"token id {config.vocab_size} out of range"):
            encode_packed(weights, config, [[CLS_ID, SEP_ID], [CLS_ID, config.vocab_size, SEP_ID]])
        with pytest.raises(ShapeError, match="max_len"):
            encode_packed(weights, config, [[CLS_ID, SEP_ID], [CLS_ID] * (config.max_len + 1)])

    @pytest.mark.parametrize("seqs", [[], [[CLS_ID], []]])
    def test_packed_needs_tokens(self, weights, config, seqs):
        with pytest.raises(ShapeError, match="at least one"):
            encode_packed(weights, config, seqs)


class TestMaskTokens:
    def test_p_zero_changes_nothing(self, vocab):
        ids = encode_ids(vocab, "yeh sach hai", MAX_LEN)
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
    def test_untrained_loss_near_log_vocab(self, weights, head, config, vocab):
        ids = encode_ids(vocab, "yeh sach hai sach ka saath", config.max_len)
        masked, targets = mask_tokens(ids, len(vocab), np.random.default_rng(8), p=0.9)
        loss = mlm_loss({**weights, **head}, config, [masked], [targets])
        expected = math.log(config.vocab_size)
        assert abs(loss.item() - expected) / expected < 0.15

    def test_batch_loss_is_mean_of_line_losses(self, weights, head, config, vocab):
        rng = np.random.default_rng(6)
        # In length order, then unsorted with mixed lengths.
        for texts in (
            ("yeh sach hai", "acha din shanti path ka"),
            ("acha din shanti path ka", "sach ka", "jhooth khabar nafrat gaali", "yeh sach"),
        ):
            lines = [encode_ids(vocab, t, config.max_len) for t in texts]
            masks = [mask_tokens(ids, len(vocab), rng, p=0.7) for ids in lines]
            assert all(any(t != IGNORE_ID for t in targets) for _, targets in masks)
            masked, targets = [m for m, _ in masks], [t for _, t in masks]
            batch = mlm_loss({**weights, **head}, config, masked, targets).item()
            singles = [mlm_loss({**weights, **head}, config, [m], [t]).item() for m, t in masks]
            assert batch == pytest.approx(sum(singles) / len(texts), abs=1e-5)

    def test_no_targets_is_an_error(self, weights, head, config):
        with pytest.raises(ValueError, match="target"):
            mlm_loss({**weights, **head}, config, [[CLS_ID, SEP_ID]], [[IGNORE_ID, IGNORE_ID]])

    def test_nonnegative(self, weights, head, config, vocab):
        ids = encode_ids(vocab, "nafrat gaali mat bolo", config.max_len)
        masked, targets = mask_tokens(ids, len(vocab), np.random.default_rng(4), p=0.8)
        assert mlm_loss({**weights, **head}, config, [masked], [targets]).item() >= 0

    def test_gathers_only_the_target_rows(self, weights, head, config, vocab, monkeypatch):
        import hostility.encoder

        calls = []
        real_gather = hostility.encoder.gather_rows

        def counting_gather(x, rows):
            calls.append(list(rows))
            return real_gather(x, rows)

        monkeypatch.setattr(hostility.encoder, "gather_rows", counting_gather)
        lines = [encode_ids(vocab, t, config.max_len) for t in ("yeh sach hai", "acha din")]
        targets = [[IGNORE_ID, ids[1]] + [IGNORE_ID] * (len(ids) - 2) for ids in lines]
        mlm_loss({**weights, **head}, config, lines, targets)
        # One gather, of the two target rows in line order; the 4-row
        # line packs first, so the 5-row line starts at row 4. No pooled
        # CLS rows.
        assert calls == [[5, 1]]

    # The central differences' own error grows as h**2: on the two shared
    # layers it reads 6.2e-4 at h=1e-4 (6.2e-2 at 1e-3) on the embeddings,
    # so that case steps at h=1e-5, where it reads 2.4e-5.
    @pytest.mark.parametrize(
        "n_layers, shared, h",
        [(1, False, 1e-4), (2, True, 1e-5)],
        ids=["one-layer", "two-shared-layers"],
    )
    def test_gradients_match_finite_differences_with_dropout(self, vocab, n_layers, shared, h):
        config = EncoderConfig(
            len(vocab), d_model=8, n_layers=n_layers, n_heads=2, d_ff=8, max_len=8, shared_layers=shared
        )
        params = init_params(
            {**encoder_shape_table(config), **mlm_head_shape_table(config)},
            np.random.default_rng(12),
        )
        for p in params.values():
            p.data = p.data.astype(np.float64)
        lines = [encode_ids(vocab, t, config.max_len) for t in ("acha din shanti", "sach", "yeh sach hai")]
        targets = [[IGNORE_ID] * len(ids) for ids in lines]
        for b, ids in enumerate(lines):
            targets[b][1] = ids[1]
        masked = [[MASK_ID if t != IGNORE_ID else i for i, t in zip(ids, tg)] for ids, tg in zip(lines, targets)]

        def build():
            # A fresh rng per build, so every evaluation draws the same dropout.
            return mlm_loss(params, config, masked, targets, rng=np.random.default_rng(3))

        assert gradcheck(build, params, h=h) < 1e-4
