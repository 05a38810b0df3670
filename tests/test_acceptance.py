"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them inline)."""

import csv
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gradcheck import analytic_grads, finite_difference_grads, max_rel_error
from oracles import best_segmentation_bruteforce, confusion_matrix_scores
from hostility.cli import main
from hostility.encoder import (
    IGNORE_ID,
    MASK_ID,
    N_SPECIALS,
    EncoderConfig,
    Vocab,
    desk_config,
    mask_tokens,
    paper_config,
)
from hostility.fusion import (
    FusionConfig,
    encode_post,
    forward,
    fused_vector,
    hashtag_encoder_init,
    init_model,
)
from hostility.numeric import (
    Tensor,
    add,
    add_bias,
    attention,
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
)
from hostility.preprocess import FeatureBundle, FreqDict, LabelTag, RawPost, segment_hashtag
from hostility.tapt import RAW, TaptCorpus, build_tapt_corpus, run_tapt
from hostility.traineval import (
    COARSE,
    FINE_TASKS,
    Hyperparams,
    assemble_labels,
    f1_scores,
    train_binary,
)


@contextmanager
def criterion(number, name, max_seconds=None):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if ok else "FAIL"
        print(f"[ACCEPTANCE] {number:02d} {name}: {status} ({elapsed:.1f}s)")
    if max_seconds is not None:
        assert elapsed < max_seconds, f"criterion {number} took {elapsed:.1f}s (limit {max_seconds}s)"


def t64(arr, requires_grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad)


def _check_op_grads():
    """Finite-difference check for each differentiable op in isolation."""
    tol = 1e-4
    rng = np.random.default_rng(29)

    def check(build, params):
        analytic = analytic_grads(build, params)
        numeric = finite_difference_grads(lambda: float(build().data), params)
        err = max(max_rel_error(analytic[k], numeric[k]) for k in params)
        assert err < tol, f"op gradcheck error {err:.2e}"

    a = t64(rng.normal(size=(3, 4)), requires_grad=True)
    b = t64(rng.normal(size=(4, 3)), requires_grad=True)
    check(lambda: sum_all(mul(matmul(a, b), matmul(a, b))), {"a": a, "b": b})

    x = t64(rng.normal(size=(3, 4)), requires_grad=True)
    y = t64(rng.normal(size=(3, 4)), requires_grad=True)
    check(lambda: sum_all(mul(add(x, y), scale(x, 1.3))), {"x": x, "y": y})

    bias = t64(rng.normal(size=4), requires_grad=True)
    check(lambda: sum_all(mul(add_bias(x, bias), add_bias(x, bias))), {"x": x, "bias": bias})

    r = t64(np.where(np.abs(rng.normal(size=(3, 3))) < 0.05, 0.4, rng.normal(size=(3, 3))), requires_grad=True)
    check(lambda: sum_all(mul(relu(r), relu(r))), {"r": r})

    s = t64(rng.normal(size=(2, 5)), requires_grad=True)
    w = t64(rng.normal(size=(2, 5)))
    check(lambda: sum_all(mul(softmax_rows(s), w)), {"s": s})

    ln_x = t64(rng.normal(size=(3, 6)), requires_grad=True)
    gain = t64(rng.normal(size=6), requires_grad=True)
    lbias = t64(rng.normal(size=6), requires_grad=True)
    w6 = t64(rng.normal(size=(3, 6)))
    check(
        lambda: sum_all(mul(layer_norm(ln_x, gain, lbias), w6)),
        {"x": ln_x, "gain": gain, "bias": lbias},
    )

    table = t64(rng.normal(size=(6, 3)), requires_grad=True)
    check(
        lambda: sum_all(mul(embedding_lookup(table, [1, 3, 3, 5]), embedding_lookup(table, [1, 3, 3, 5]))),
        {"table": table},
    )

    z = t64(rng.normal(size=(4, 6)), requires_grad=True)

    def shape_build():
        parts = concat_rows([slice_cols(z, 0, 3), slice_cols(z, 2, 6)])
        picked = gather_rows(transpose(parts), [0, 4, 4])
        return sum_all(mul(picked, picked))

    check(shape_build, {"z": z})

    d = t64(rng.normal(size=(4, 4)), requires_grad=True)
    check(
        lambda: sum_all(
            mul(
                dropout(d, 0.4, training=True, rng=np.random.default_rng(77)),
                dropout(d, 0.4, training=True, rng=np.random.default_rng(77)),
            )
        ),
        {"d": d},
    )

    logits = t64(rng.normal(size=(4, 5)), requires_grad=True)
    check(lambda: cross_entropy(logits, [0, 2, 4, 1]), {"logits": logits})
    check(lambda: cross_entropy(logits, [0, 2, 4, 1], [0.1, 0.5, 0.25, 0.15]), {"logits": logits})

    # B=2 sequences of T=3, E=4 in 2 heads; the second has a PAD key.
    qkv = {n: t64(rng.normal(size=(6, 4)), requires_grad=True) for n in "qkv"}
    key_pad = np.array([[False, False, False], [False, False, True]])
    w_attn = t64(rng.normal(size=(6, 4)))
    for p in (0.0, 0.3):
        check(
            lambda: sum_all(
                mul(
                    attention(
                        qkv["q"], qkv["k"], qkv["v"], 2, key_pad, p,
                        training=True, rng=np.random.default_rng(78),
                    ),
                    w_attn,
                )
            ),
            qkv,
        )


def test_c01_gradient_integrity():
    """Analytic gradients match central finite differences (h=1e-4,
    float64) for every op and for three random end-to-end fusion graphs
    at reduced widths (all dims <= 8)."""
    with criterion(1, "gradient integrity", max_seconds=60):
        _check_op_grads()
        vocab = Vocab.build(["aa bb cc"])
        enc = EncoderConfig(vocab_size=len(vocab), d_model=8, n_layers=1, n_heads=2, d_ff=8, max_len=8)
        config = FusionConfig(encoder=enc, emoji_dim=4, mlp_hidden=(4,))
        words = ["aa", "bb", "cc"]
        for graph_seed in (0, 1, 2):
            rng = np.random.default_rng(graph_seed)
            model = init_model(config, vocab, "coarse", base_seed=graph_seed)
            params = model.named_params()
            for p in params.values():
                p.data = p.data.astype(np.float64)
            text = " ".join(words[int(i)] for i in rng.integers(0, 3, size=3))
            flow = " ".join(words[int(i)] for i in rng.integers(0, 3, size=2))
            bundle = FeatureBundle(text, flow, rng.normal(size=4), 1)
            label = int(rng.integers(0, 2))

            def build():
                return cross_entropy(forward(model, [encode_post(model, bundle)]), [label])

            analytic = analytic_grads(build, params)
            numeric = finite_difference_grads(lambda: float(build().data), params)
            err = max(max_rel_error(analytic[k], numeric[k]) for k in params)
            assert err < 1e-4, f"graph {graph_seed}: max relative error {err:.2e}"


def test_c02_mlm_masking_statistics():
    with criterion(2, "MLM masking statistics", max_seconds=10):
        vocab_size = 100_005
        ids = []
        specials = []
        for i in range(105_000):
            if i % 21 == 0:
                specials.append(len(ids))
                ids.append(i % N_SPECIALS)
            else:
                ids.append(N_SPECIALS + i % (vocab_size - N_SPECIALS))
        n_plain = len(ids) - len(specials)
        assert n_plain >= 100_000
        masked, targets = mask_tokens(ids, vocab_size, np.random.default_rng(1234), p=0.15)
        assert all(targets[i] == IGNORE_ID and masked[i] == ids[i] for i in specials)
        selected = [i for i, t in enumerate(targets) if t != IGNORE_ID]
        fraction = len(selected) / n_plain
        assert abs(fraction - 0.15) < 0.01
        n_mask = sum(1 for i in selected if masked[i] == MASK_ID)
        n_keep = sum(1 for i in selected if masked[i] == ids[i])
        n_rand = len(selected) - n_mask - n_keep
        assert abs(n_mask / len(selected) - 0.8) < 0.02
        assert abs(n_rand / len(selected) - 0.1) < 0.02
        assert abs(n_keep / len(selected) - 0.1) < 0.02


def test_c03_metric_oracle():
    with criterion(3, "metric oracle"):
        hand = f1_scores([1, 1, 1, 1], [1, 1, 0, 0])
        assert hand.macro_f1 == pytest.approx(1 / 3)
        rng = np.random.default_rng(99)
        for _ in range(100):
            n = int(rng.integers(1, 21))
            preds = rng.integers(0, 2, size=n).tolist()
            golds = rng.integers(0, 2, size=n).tolist()
            got = f1_scores(preds, golds)
            oracle = confusion_matrix_scores(preds, golds)
            assert (got.neg.precision, got.neg.recall, got.neg.f1, got.neg.support) == oracle[0]
            assert (got.pos.precision, got.pos.recall, got.pos.f1, got.pos.support) == oracle[1]
            assert got.macro_f1 == oracle["macro_f1"]
            assert got.weighted_f1 == oracle["weighted_f1"]


def test_c04_segmentation_optimality():
    with criterion(4, "segmentation optimality", max_seconds=30):
        words = [
            "a", "b", "c", "d", "e",
            "ab", "ba", "cd", "de", "ea",
            "ad", "be", "ce", "da", "eb",
            "aa", "bb", "cc", "dd", "ee",
            "abc", "bcd", "cde", "dea", "eab",
            "ae", "ac", "bd", "abcd", "bcde",
        ]
        assert len(words) == 30
        freq = FreqDict.from_counts({w: (i * 7) % 50 + 1 for i, w in enumerate(words)})
        bodies = set(words)
        for w1 in words:
            for w2 in words:
                if len(w1) + len(w2) <= 12:
                    bodies.add(w1 + w2)
        for w1 in words[18:]:
            for w2 in words[18:]:
                for w3 in words[18:]:
                    if len(w1) + len(w2) + len(w3) <= 12:
                        bodies.add(w1 + w2 + w3)
        rng = np.random.default_rng(5)
        alphabet = "abcde"
        for _ in range(200):
            n = int(rng.integers(1, 13))
            bodies.add("".join(alphabet[int(i)] for i in rng.integers(0, 5, size=n)))
        assert len(bodies) >= 500
        assert all(len(body) <= 12 for body in bodies)
        assert max(len(body) for body in bodies) == 12
        for body in sorted(bodies):
            got = segment_hashtag("#" + body, freq)
            expected = best_segmentation_bruteforce(body, freq)
            assert got == expected, f"{body}: {got!r} != {expected!r}"


def test_c05_tapt_corpus_invariant(fixture_posts):
    with criterion(5, "TAPT corpus invariant"):
        from hostility.preprocess import clean_text, tokenize_raw

        fixtures = [
            list(fixture_posts),
            [],
            [RawPost("only", "\U0001F602 \U0001F621", frozenset())],  # empty cleaned line
            [RawPost(f"p{i}", f"sach khabar {i} #Tag\U0001F602", frozenset()) for i in range(7)],
        ]
        for posts in fixtures:
            corpus = build_tapt_corpus(posts)
            assert len(corpus.lines) == 2 * len(posts)
            for i, post in enumerate(posts):
                assert corpus.lines[2 * i] == post.text
                assert corpus.provenance[2 * i] == "raw"
                assert corpus.lines[2 * i + 1] == clean_text(tokenize_raw(post.text))
                assert corpus.provenance[2 * i + 1] == "cleaned"


def test_c06_weight_transfer_asymmetry():
    with criterion(6, "weight-transfer asymmetry"):
        lines = ["sach khabar acha din", "jhooth nafrat gaali bolo", "sach acha bolo din"]
        vocab = Vocab.build(lines)
        enc = EncoderConfig(vocab_size=len(vocab), d_model=16, n_layers=1, n_heads=2, d_ff=32, max_len=12)
        corpus = TaptCorpus(lines, [RAW] * len(lines))
        adapted = run_tapt(enc, vocab, corpus, epochs=3, lr=1e-3, batch_size=4, seed=11).weights
        config = FusionConfig(encoder=enc, emoji_dim=4, mlp_hidden=(4,))
        model = init_model(config, vocab, "coarse", tapt_weights=adapted, base_seed=11)
        for name, p in model.text_encoder.params.items():
            assert np.array_equal(p.data, adapted.params[name].data), name
        base = hashtag_encoder_init(enc, 11)
        for name, p in model.hashtag_encoder.params.items():
            assert np.array_equal(p.data, base.params[name].data), name
        assert not model.hashtag_encoder.equals(adapted)


def test_c07_dimension_law():
    with criterion(7, "fused dimension law"):
        vocab = Vocab.build(["yeh sach hai jhooth khabar"])
        bundle300 = FeatureBundle("yeh sach hai", "sach", np.zeros(300, dtype=np.float32), 0)

        desk = FusionConfig(encoder=desk_config(len(vocab)))
        assert desk.fused_dim == 2 * 64 + 300 == 428
        desk_model = init_model(desk, vocab, "coarse", base_seed=0)
        assert fused_vector(desk_model, bundle300).shape == (428,)

        paper = FusionConfig(encoder=paper_config(len(vocab)))
        assert paper.fused_dim == 1836
        paper_model = init_model(paper, vocab, "coarse", base_seed=0)
        assert paper_model.head["fusion.w"].data.shape == (1836, 1836)
        vec = fused_vector(paper_model, bundle300)
        assert vec.shape == (1836,)
        del paper_model


def test_c08_learning_sanity():
    with criterion(8, "learning sanity", max_seconds=180):
        # (a) continued MLM pretraining on a 50-line synthetic corpus
        words = ["sach", "jhooth", "khabar", "acha", "din", "nafrat", "gaali", "shanti", "path", "bolo"]
        lines = [
            " ".join(words[(i % 5 + j) % len(words)] for j in range(6)) for i in range(50)
        ]
        corpus = TaptCorpus(lines, [RAW] * 50)
        vocab = Vocab.build(lines)
        config = desk_config(len(vocab), max_len=16)
        result = run_tapt(config, vocab, corpus, epochs=20, lr=1e-3, batch_size=10, seed=0)
        losses = result.epoch_losses
        assert all(np.isfinite(losses))
        smoothed = [sum(losses[i - 1 : i + 2]) / 3 for i in range(1, len(losses) - 1)]
        assert all(b < a for a, b in zip(smoothed, smoothed[1:])), smoothed

        # (b) overfit a separable 32-example toy set at the desk profile
        examples = []
        for i in range(32):
            if i % 2:
                text = f"nafrat gaali bura word{i % 4}"
                examples.append((FeatureBundle(text, "", np.zeros(300, dtype=np.float32), 0), 1))
            else:
                text = f"shanti acha sach word{i % 4}"
                examples.append((FeatureBundle(text, "", np.zeros(300, dtype=np.float32), 0), 0))
        toy_vocab = Vocab.build([b.cleaned_text for b, _ in examples])
        toy_config = FusionConfig(encoder=desk_config(len(toy_vocab), max_len=16))
        hp = Hyperparams(epochs=50, lr=1e-3, batch_size=8, seed=0)
        run = train_binary(toy_config, toy_vocab, COARSE, examples, examples, hp=hp)
        assert max(run.val_macro_f1) >= 0.99


def _cli(*args):
    return main([str(a) for a in args])


def test_c09_determinism(data_dir, tmp_path):
    with criterion(9, "byte-level determinism"):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            args = [
                "--data", data_dir / "tiny_posts.csv",
                "--dict", data_dir / "word_freq.tsv",
                "--emoji", data_dir / "emoji_300d.txt",
                "--out", out,
                "--seed", "3",
                "--profile", "desk",
                "--max-len", "32",
            ]
            assert _cli("tapt", *args, "--tapt-epochs", "2") == 0
            assert _cli("finetune", *args, "--tapt", "on", "--epochs", "2") == 0
            assert _cli("evaluate", *args) == 0
            assert _cli("predict", *args) == 0
            outputs.append(out)
        a, b = outputs
        artifacts = ["vocab.txt", "tapt.ckpt", "tapt_loss.csv", "metrics.txt", "metrics.kv", "predictions.tsv"]
        for task in (COARSE,) + FINE_TASKS:
            artifacts += [f"{task}.ckpt", f"{task}.init.ckpt", f"{task}_trace.csv"]
        for name in artifacts:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


def _write_fullsize_dataset(path):
    """5728 rows whose per-label counts match the public corpus statistics:
    non-hostile 3050, fake 1144, hate 792, offensive 742, defamation 564."""
    rows = []
    for i in range(3050):
        rows.append((f"n{i}", "aam khabar sach baat", "non-hostile"))
    tag_queue = ["fake"] * 1144 + ["hate"] * 792 + ["offensive"] * 742 + ["defamation"] * 564
    n_hostile = 5728 - 3050
    n_double = len(tag_queue) - n_hostile  # rows carrying two tags
    front, back = 0, len(tag_queue) - 1
    for i in range(n_hostile):
        if i < n_double:
            tags = f"{tag_queue[front]}|{tag_queue[back]}"
            front += 1
            back -= 1
        else:
            tags = tag_queue[front]
            front += 1
        rows.append((f"h{i}", "buri khabar jhooth nafrat", tags))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "text", "labels"])
        writer.writerows(rows)


def test_c10_data_fidelity(data_dir, tmp_path, capsys):
    with criterion(10, "data fidelity"):
        out = tmp_path / "fixture_run"
        assert _cli("preprocess", "--data", data_dir / "tiny_posts.csv", "--out", out, "--seed", "0") == 0
        stdout = capsys.readouterr().out
        assert "labels: non-hostile=5 fake=3 hate=2 offensive=3 defamation=2" in stdout

        full = tmp_path / "full.csv"
        _write_fullsize_dataset(full)
        out_full = tmp_path / "full_run"
        assert _cli("preprocess", "--data", full, "--out", out_full, "--seed", "0") == 0
        stdout = capsys.readouterr().out
        assert "labels: non-hostile=3050 fake=1144 hate=792 offensive=742 defamation=564" in stdout
        split_line = next(l for l in stdout.splitlines() if l.startswith("split:"))
        sizes = dict(kv.split("=") for kv in split_line.split(" ")[1:])
        train, val = int(sizes["train"]), int(sizes["val"])
        assert abs(train - 4582) <= 1
        assert abs(val - 1146) <= 1
        assert train + val == 5728

        from hostility.preprocess import load_dataset
        from hostility.traineval import binary_targets

        posts = load_dataset(full)
        positives = {task: sum(binary_targets(posts, task)) for task in (COARSE,) + FINE_TASKS}
        assert positives == {
            "coarse": 5728 - 3050,
            "fake": 1144,
            "hate": 792,
            "offensive": 742,
            "defamation": 564,
        }


def test_c11_label_assembly_safety():
    with criterion(11, "label-assembly safety"):
        rng = np.random.default_rng(2718)
        for _ in range(10_000):
            coarse = (int(rng.integers(0, 2)), float(rng.random()))
            fine = {
                task: (int(rng.integers(0, 2)), float(rng.random())) for task in FINE_TASKS
            }
            tags = assemble_labels(coarse, fine)
            assert tags, "empty tag set"
            if LabelTag.NON_HOSTILE in tags:
                assert tags == {LabelTag.NON_HOSTILE}
