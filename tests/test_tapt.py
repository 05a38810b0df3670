import math

import numpy as np
import pytest

import hostility.encoder
import hostility.numeric
import hostility.tapt
from hostility.checkpoint import checkpoint_bytes, read_metadata
from hostility.encoder import (
    IGNORE_ID,
    TEXT_INIT_STREAM,
    EncoderConfig,
    Vocab,
    encoder_shape_table,
    init_params,
    mlm_head_shape_table,
)
from hostility.errors import DataError
from hostility.fusion import text_encoder_init
from hostility.preprocess import EmojiTable, FreqDict, RawPost, extract_features
from hostility.tapt import (
    CLEANED,
    RAW,
    TaptCorpus,
    build_tapt_corpus,
    dump_corpus,
    encoder_checkpoint_bytes,
    load_encoder_checkpoint,
    run_tapt,
)
from param_sets import same_params


def post(pid, text):
    return RawPost(id=pid, text=text, labels=frozenset())


def with_features(posts):
    """(RawPost, FeatureBundle) pairs, with no dictionary or emoji table."""
    freq, table = FreqDict.empty(), EmojiTable(dim=4, entries={})
    return [(p, extract_features(p.text, freq, table)) for p in posts]


def synthetic_corpus(n_lines=50, seed=0):
    """Repetitive word patterns a small model can actually learn."""
    words = ["sach", "jhooth", "khabar", "acha", "din", "nafrat", "gaali", "shanti"]
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(n_lines):
        start = int(rng.integers(0, len(words)))
        lines.append(" ".join(words[(start + j) % len(words)] for j in range(5)))
    return TaptCorpus(lines, [RAW] * n_lines)


class TestBuildCorpus:
    def test_single_post_pair(self):
        corpus = build_tapt_corpus(with_features([post("a", "yeh sach \U0001F602")]))
        assert corpus.lines == ["yeh sach \U0001F602", "yeh sach"]
        assert corpus.provenance == [RAW, CLEANED]

    def test_empty_input(self):
        corpus = build_tapt_corpus(with_features([]))
        assert corpus.lines == [] and corpus.provenance == []

    def test_two_lines_per_post(self, fixture_posts):
        corpus = build_tapt_corpus(with_features(fixture_posts))
        assert len(corpus.lines) == 2 * len(fixture_posts)
        for i, p in enumerate(fixture_posts):
            assert corpus.lines[2 * i] == p.text
            assert corpus.provenance[2 * i] == RAW
            assert corpus.provenance[2 * i + 1] == CLEANED

    def test_empty_cleaned_line_kept(self):
        corpus = build_tapt_corpus(with_features([post("a", "\U0001F602 \U0001F621")]))
        assert corpus.lines == ["\U0001F602 \U0001F621", ""]

    def test_raw_only_mode(self):
        corpus = build_tapt_corpus(
            with_features([post("a", "x"), post("b", "y")]), include_cleaned=False
        )
        assert corpus.lines == ["x", "y"]
        assert corpus.provenance == [RAW, RAW]

    def test_dump_format(self, tmp_path):
        corpus = build_tapt_corpus(with_features([post("a", "yeh sach")]))
        path = tmp_path / "corpus.txt"
        dump_corpus(corpus, path)
        assert path.read_text(encoding="utf-8") == "R\tyeh sach\nC\tyeh sach\n"
        # Every break str.splitlines knows is flattened to a space.
        breaks = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
        lines = ["sach\u2028khabar", "a\x0cb", "x\ny\x85z", "".join(f"w{c}" for c in breaks)]
        dump_corpus(TaptCorpus(lines, [RAW, CLEANED, RAW, CLEANED]), path)
        text = path.read_text(encoding="utf-8")
        assert text.splitlines() == [
            "R\tsach khabar",
            "C\ta b",
            "R\tx y z",
            "C\t" + " ".join(["w"] * len(breaks)),
        ]
        assert text.endswith("\n")


@pytest.fixture(scope="module")
def setup():
    corpus = synthetic_corpus()
    vocab = Vocab.build(corpus.lines)
    config = EncoderConfig(
        vocab_size=len(vocab), d_model=16, n_layers=1, n_heads=2, d_ff=32, max_len=12, shared_layers=False
    )
    return corpus, vocab, config


class TestRunTapt:
    def test_step_bookkeeping(self, setup):
        _, vocab, config = setup
        corpus = TaptCorpus(["sach khabar acha", "jhooth nafrat din"], [RAW, RAW])
        result = run_tapt(config, vocab, corpus, epochs=1, lr=1e-3, batch_size=8, seed=0)
        assert result.steps == math.ceil(2 / 8)
        assert len(result.epoch_losses) == 1

    def test_empty_corpus_rejected(self, setup):
        _, vocab, config = setup
        with pytest.raises(ValueError, match="empty"):
            run_tapt(config, vocab, TaptCorpus([], []), epochs=1, lr=1e-3, batch_size=4, seed=0)

    def test_loss_decreases(self, setup):
        corpus, vocab, config = setup
        result = run_tapt(config, vocab, corpus, epochs=8, lr=1e-3, batch_size=8, seed=1)
        assert all(np.isfinite(result.epoch_losses))
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    def test_deterministic(self, setup):
        corpus, vocab, config = setup
        a = run_tapt(config, vocab, corpus, epochs=2, lr=1e-3, batch_size=8, seed=3)
        b = run_tapt(config, vocab, corpus, epochs=2, lr=1e-3, batch_size=8, seed=3)
        assert same_params(a.weights, b.weights)
        assert a.epoch_losses == b.epoch_losses
        blob_a = encoder_checkpoint_bytes(a.weights, config, vocab, {})
        blob_b = encoder_checkpoint_bytes(b.weights, config, vocab, {})
        assert blob_a == blob_b

    def test_training_changes_weights(self, setup):
        corpus, vocab, config = setup
        result = run_tapt(config, vocab, corpus, epochs=1, lr=1e-3, batch_size=8, seed=4)
        assert not same_params(result.weights, text_encoder_init(config, 4))

    def test_starts_from_text_encoder_init_and_returns_body_only(self, setup, monkeypatch):
        corpus, vocab, config = setup
        heads = []
        real_loss = hostility.tapt.mlm_loss

        def recording_loss(params, *args, **kwargs):
            heads.append({k: params[k].data.copy() for k in mlm_head_shape_table(config)})
            return real_loss(params, *args, **kwargs)

        monkeypatch.setattr(hostility.tapt, "mlm_loss", recording_loss)
        monkeypatch.setattr(hostility.numeric, "adam_step", lambda *args: None)
        result = run_tapt(config, vocab, corpus, epochs=1, lr=1e-3, batch_size=8, seed=5)
        assert same_params(result.weights, text_encoder_init(config, 5))
        assert list(result.weights) == list(encoder_shape_table(config))
        # The head is drawn right after the body, from the same generator.
        rng = np.random.default_rng([5, TEXT_INIT_STREAM])
        init_params(encoder_shape_table(config), rng)
        expected = init_params(mlm_head_shape_table(config), rng)
        assert heads and all(
            np.array_equal(h[k], expected[k].data) for h in heads for k in expected
        )

    def test_lines_without_targets_are_skipped(self, setup):
        _, vocab, config = setup
        corpus = TaptCorpus(["sach khabar acha din", ""], [RAW, CLEANED])
        result = run_tapt(config, vocab, corpus, epochs=1, lr=1e-3, batch_size=1, seed=0)
        assert result.steps == 1

    def test_epoch_loss_counts_only_lines_that_trained(self, setup, monkeypatch):
        _, vocab, config = setup
        seen = []
        real_loss = hostility.tapt.mlm_loss

        def recording_loss(params, config, masked_batch, target_batch, *args):
            loss = real_loss(params, config, masked_batch, target_batch, *args)
            seen.append((len(masked_batch), float(loss.data)))
            return loss

        monkeypatch.setattr(hostility.tapt, "mlm_loss", recording_loss)
        lines = ["sach khabar", "", "acha din", "", "nafrat gaali"]
        corpus = TaptCorpus(lines, [RAW, CLEANED, RAW, CLEANED, RAW])
        # Seed 2 shuffles the lines into chunks [1, 3], [2, 4] and [0]: the
        # first holds only the two empty lines, so it takes no step.
        result = run_tapt(config, vocab, corpus, epochs=1, lr=1e-3, batch_size=2, seed=2)
        assert [n for n, _ in seen] == [2, 1]
        assert result.steps == 2
        assert result.epoch_losses == [(seen[0][1] * 2 + seen[1][1]) / 3]

    def test_one_word_line_gets_one_target_from_one_draw(self, setup, monkeypatch):
        _, vocab, config = setup
        draws, selected, targets_seen = [], [], []
        real_mask, real_loss = hostility.encoder.mask_tokens, hostility.tapt.mlm_loss

        def counting_mask(*args, **kwargs):
            masked, targets = real_mask(*args, **kwargs)
            draws.append(1)
            selected.append(sum(t != IGNORE_ID for t in targets))
            return masked, targets

        def recording_loss(params, config, masked_batch, target_batch, *args):
            targets_seen.extend(target_batch)
            return real_loss(params, config, masked_batch, target_batch, *args)

        monkeypatch.setattr(hostility.encoder, "mask_tokens", counting_mask)
        monkeypatch.setattr(hostility.tapt, "mlm_loss", recording_loss)
        monkeypatch.setattr(hostility.encoder, "MASK_PROB", 0.01)
        corpus = TaptCorpus(["sach"], [RAW])
        run_tapt(config, vocab, corpus, epochs=1, lr=1e-3, batch_size=1, seed=0)
        assert draws == [1]
        assert selected == [0]  # the draw picked nothing: the fallback chose the target
        assert [sum(t != IGNORE_ID for t in targets) for targets in targets_seen] == [1]


class TestEncoderCheckpoint:
    CONFIG = EncoderConfig(vocab_size=8, d_model=8, n_layers=1, n_heads=2, d_ff=16, max_len=8, shared_layers=False)
    VOCAB = Vocab.build(["sach khabar acha"])

    def test_roundtrip(self, tmp_path):
        config, vocab = self.CONFIG, self.VOCAB
        weights = text_encoder_init(config, 7)
        path = tmp_path / "enc.ckpt"
        path.write_bytes(encoder_checkpoint_bytes(weights, config, vocab, {}))
        loaded = load_encoder_checkpoint(path, vocab, config)
        assert read_metadata(path)["vocab_sha256"] == vocab.sha256()
        assert same_params(loaded, weights)

    def test_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(checkpoint_bytes({"kind": "fusion"}, {}))
        with pytest.raises(DataError, match="encoder"):
            load_encoder_checkpoint(path, self.VOCAB, self.CONFIG)

    @pytest.mark.parametrize(
        "key, value, expected",
        [
            ("enc.n_layers", "99999999", "configuration does not match this run"),
            ("vocab_sha256", "0" * 64, "vocab hash mismatch"),
        ],
    )
    def test_checks_the_run_before_matching_tensors(
        self, tmp_path, monkeypatch, key, value, expected
    ):
        config, vocab = self.CONFIG, self.VOCAB
        weights = text_encoder_init(config, 7)
        path = tmp_path / "enc.ckpt"
        # extra is written last, so it overrides the key.
        path.write_bytes(encoder_checkpoint_bytes(weights, config, vocab, {key: value}))

        def no_table(*args):
            raise AssertionError("a shape table was built before the checks")

        monkeypatch.setattr(hostility.tapt, "encoder_shape_table", no_table)
        with pytest.raises(DataError, match=expected):
            load_encoder_checkpoint(path, vocab, config)
