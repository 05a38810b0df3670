import math

import numpy as np
import pytest

import hostility.encoder
import hostility.tapt
from hostility.encoder import IGNORE_ID, EncoderConfig, Vocab
from hostility.errors import DataError
from hostility.preprocess import RawPost
from hostility.tapt import (
    CLEANED,
    RAW,
    TaptCorpus,
    base_init,
    build_tapt_corpus,
    dump_corpus,
    encoder_checkpoint_bytes,
    load_encoder_checkpoint,
    run_tapt,
)


def post(pid, text):
    return RawPost(id=pid, text=text, labels=frozenset())


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
        corpus = build_tapt_corpus([post("a", "yeh sach \U0001F602")])
        assert corpus.lines == ["yeh sach \U0001F602", "yeh sach"]
        assert corpus.provenance == [RAW, CLEANED]

    def test_empty_input(self):
        corpus = build_tapt_corpus([])
        assert corpus.lines == [] and corpus.provenance == []

    def test_two_lines_per_post(self, fixture_posts):
        corpus = build_tapt_corpus(fixture_posts)
        assert len(corpus.lines) == 2 * len(fixture_posts)
        for i, p in enumerate(fixture_posts):
            assert corpus.lines[2 * i] == p.text
            assert corpus.provenance[2 * i] == RAW
            assert corpus.provenance[2 * i + 1] == CLEANED

    def test_empty_cleaned_line_kept(self):
        corpus = build_tapt_corpus([post("a", "\U0001F602 \U0001F621")])
        assert corpus.lines == ["\U0001F602 \U0001F621", ""]

    def test_raw_only_mode(self):
        corpus = build_tapt_corpus([post("a", "x"), post("b", "y")], include_cleaned=False)
        assert corpus.lines == ["x", "y"]
        assert corpus.provenance == [RAW, RAW]

    def test_dump_format(self, tmp_path):
        corpus = build_tapt_corpus([post("a", "yeh sach")])
        path = tmp_path / "corpus.txt"
        dump_corpus(corpus, path)
        assert path.read_text(encoding="utf-8") == "R\tyeh sach\nC\tyeh sach\n"


@pytest.fixture(scope="module")
def setup():
    corpus = synthetic_corpus()
    vocab = Vocab.build(corpus.lines)
    config = EncoderConfig(
        vocab_size=len(vocab), d_model=16, n_layers=1, n_heads=2, d_ff=32, max_len=12
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
        assert a.weights.equals(b.weights)
        assert a.epoch_losses == b.epoch_losses
        blob_a = encoder_checkpoint_bytes(a.weights, config)
        blob_b = encoder_checkpoint_bytes(b.weights, config)
        assert blob_a == blob_b

    def test_training_changes_weights(self, setup):
        corpus, vocab, config = setup
        result = run_tapt(config, vocab, corpus, epochs=1, lr=1e-3, batch_size=8, seed=4)
        assert not result.weights.equals(base_init(config, 4))

    def test_lines_without_targets_are_skipped(self, setup):
        _, vocab, config = setup
        corpus = TaptCorpus(["sach khabar acha din", ""], [RAW, CLEANED])
        result = run_tapt(config, vocab, corpus, epochs=1, lr=1e-3, batch_size=1, seed=0)
        assert result.steps == 1

    def test_one_word_line_gets_one_target_from_one_draw(self, setup, monkeypatch):
        _, vocab, config = setup
        draws, selected, targets_seen = [], [], []
        real_mask, real_loss = hostility.encoder.mask_tokens, hostility.tapt.mlm_loss

        def counting_mask(*args, **kwargs):
            masked, targets = real_mask(*args, **kwargs)
            draws.append(1)
            selected.append(sum(t != IGNORE_ID for t in targets))
            return masked, targets

        def recording_loss(weights, config, masked_batch, target_batch, **kwargs):
            targets_seen.extend(target_batch)
            return real_loss(weights, config, masked_batch, target_batch, **kwargs)

        monkeypatch.setattr(hostility.encoder, "mask_tokens", counting_mask)
        monkeypatch.setattr(hostility.tapt, "mlm_loss", recording_loss)
        corpus = TaptCorpus(["sach"], [RAW])
        run_tapt(config, vocab, corpus, epochs=1, lr=1e-3, batch_size=1, seed=0, mask_prob=0.01)
        assert draws == [1]
        assert selected == [0]  # the draw picked nothing: the fallback chose the target
        assert [sum(t != IGNORE_ID for t in targets) for targets in targets_seen] == [1]


class TestEncoderCheckpoint:
    def test_roundtrip(self, tmp_path):
        config = EncoderConfig(vocab_size=8, d_model=8, n_layers=1, n_heads=2, d_ff=16, max_len=8)
        weights = base_init(config, 7)
        path = tmp_path / "enc.ckpt"
        path.write_bytes(encoder_checkpoint_bytes(weights, config, {"vocab_sha256": "x"}))
        loaded, loaded_config, meta = load_encoder_checkpoint(path)
        assert loaded_config == config
        assert meta["vocab_sha256"] == "x"
        assert loaded.equals(weights)

    def test_rejects_wrong_kind(self, tmp_path):
        from hostility.checkpoint import write_checkpoint

        path = tmp_path / "bad.ckpt"
        write_checkpoint(path, {"kind": "fusion"}, {})
        with pytest.raises(DataError, match="encoder"):
            load_encoder_checkpoint(path)
