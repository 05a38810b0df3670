import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import confusion_matrix_scores
from hostility.encoder import EncoderConfig, Vocab
from hostility.errors import InvariantError
from hostility.fusion import FusionConfig, model_from_bytes, predict
from hostility.preprocess import FeatureBundle, LabelTag, RawPost
from hostility.traineval import (
    ALL_TASKS,
    COARSE,
    FINE_TASKS,
    Hyperparams,
    SplitSpec,
    assemble_labels,
    best_epoch_of,
    binary_targets,
    compute_suite_metrics,
    f1_scores,
    make_examples,
    render_kv,
    render_table,
    split_dataset,
    train_binary,
)


def post(pid, labels, text="koi baat"):
    return RawPost(id=pid, text=text, labels=frozenset(labels))


def hostile(pid, *tags):
    return post(pid, tags)


NH = LabelTag.NON_HOSTILE


class TestSplit:
    def make_posts(self, n_hostile, n_clean):
        posts = [hostile(f"h{i}", LabelTag.HATE) for i in range(n_hostile)]
        posts += [post(f"c{i}", [NH]) for i in range(n_clean)]
        return posts

    def test_exact_stratification_10(self):
        train, val = split_dataset(self.make_posts(5, 5), SplitSpec(seed=0))
        assert len(train) == 8 and len(val) == 2
        assert sum(1 for p in train if p.labels != {NH}) == 4
        assert sum(1 for p in val if p.labels != {NH}) == 1

    def test_deterministic(self):
        posts = self.make_posts(40, 60)
        a = split_dataset(posts, SplitSpec(seed=7))
        b = split_dataset(posts, SplitSpec(seed=7))
        assert [p.id for p in a[0]] == [p.id for p in b[0]]
        assert [p.id for p in a[1]] == [p.id for p in b[1]]

    def test_different_seeds_differ(self):
        posts = self.make_posts(40, 60)
        a = split_dataset(posts, SplitSpec(seed=1))
        b = split_dataset(posts, SplitSpec(seed=2))
        assert [p.id for p in a[0]] != [p.id for p in b[0]]

    def test_disjoint_and_exhaustive(self):
        posts = self.make_posts(13, 17)
        train, val = split_dataset(posts, SplitSpec(seed=3))
        ids = sorted(p.id for p in train) + sorted(p.id for p in val)
        assert sorted(ids) == sorted(p.id for p in posts)
        assert len(set(p.id for p in train) & set(p.id for p in val)) == 0

    def test_sizes_at_5728(self):
        train, val = split_dataset(self.make_posts(2678, 3050), SplitSpec(seed=0))
        assert len(train) in (4582, 4583)
        assert len(val) == 5728 - len(train)

    def test_proportions_within_two_points(self):
        posts = self.make_posts(467, 533)
        train, val = split_dataset(posts, SplitSpec(seed=5))
        overall = 467 / 1000
        for subset in (train, val):
            frac = sum(1 for p in subset if p.labels != {NH}) / len(subset)
            assert abs(frac - overall) < 0.02

    def test_too_small(self):
        with pytest.raises(ValueError, match="at least 5"):
            split_dataset(self.make_posts(2, 2), SplitSpec())


class TestBinaryTargets:
    def test_non_hostile_is_all_zero(self):
        posts = [post("a", [NH])]
        assert binary_targets(posts, COARSE) == [0]
        for task in FINE_TASKS:
            assert binary_targets(posts, task) == [0]

    def test_multi_label_membership(self):
        posts = [hostile("a", LabelTag.HATE, LabelTag.OFFENSIVE)]
        assert binary_targets(posts, COARSE) == [1]
        assert binary_targets(posts, "hate") == [1]
        assert binary_targets(posts, "offensive") == [1]
        assert binary_targets(posts, "fake") == [0]
        assert binary_targets(posts, "defamation") == [0]

    def test_unlabeled_rejected(self):
        with pytest.raises(ValueError, match="no labels"):
            binary_targets([post("a", [])], COARSE)


class TestF1Scores:
    def test_perfect(self):
        scores = f1_scores([1, 0, 1], [1, 0, 1])
        assert scores.macro_f1 == scores.weighted_f1 == 1.0

    def test_hand_case(self):
        scores = f1_scores([1, 1, 1, 1], [1, 1, 0, 0])
        assert scores.pos.f1 == pytest.approx(2 / 3)
        assert scores.neg.f1 == 0.0
        assert scores.macro_f1 == pytest.approx(1 / 3)
        assert scores.weighted_f1 == pytest.approx(1 / 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            f1_scores([1], [1, 0])

    def test_bad_value(self):
        with pytest.raises(ValueError, match="0 or 1"):
            f1_scores([2], [1])

    @given(
        st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=20)
    )
    @settings(max_examples=200)
    def test_matches_confusion_matrix_oracle(self, pairs):
        preds = [p for p, _ in pairs]
        golds = [g for _, g in pairs]
        scores = f1_scores(preds, golds)
        oracle = confusion_matrix_scores(preds, golds)
        for cls, got in ((0, scores.neg), (1, scores.pos)):
            precision, recall, f1, support = oracle[cls]
            assert got.precision == precision
            assert got.recall == recall
            assert got.f1 == f1
            assert got.support == support
        assert scores.macro_f1 == oracle["macro_f1"]
        assert scores.weighted_f1 == oracle["weighted_f1"]

    @given(
        st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=30)
    )
    def test_weighted_between_min_and_max(self, pairs):
        scores = f1_scores([p for p, _ in pairs], [g for _, g in pairs])
        lo = min(scores.neg.f1, scores.pos.f1)
        hi = max(scores.neg.f1, scores.pos.f1)
        assert lo - 1e-12 <= scores.weighted_f1 <= hi + 1e-12


class TestBestEpoch:
    def test_earliest_argmax(self):
        assert best_epoch_of([0.6, 0.8, 0.8, 0.7]) == 2

    def test_single(self):
        assert best_epoch_of([0.4]) == 1


class TestAssembleLabels:
    def test_coarse_negative_is_exclusive(self):
        fine = {t: (1, 0.9) for t in FINE_TASKS}
        assert assemble_labels((0, 0.2), fine) == {NH}

    def test_positive_fine_tasks_collected(self):
        fine = {
            "fake": (1, 0.7),
            "hate": (0, 0.2),
            "offensive": (0, 0.1),
            "defamation": (0, 0.1),
        }
        assert assemble_labels((1, 0.9), fine) == {LabelTag.FAKE}

    def test_fallback_argmax(self):
        fine = {
            "fake": (0, 0.11),
            "hate": (0, 0.49),
            "offensive": (0, 0.3),
            "defamation": (0, 0.2),
        }
        assert assemble_labels((1, 0.9), fine) == {LabelTag.HATE}

    def test_fallback_tie_prefers_fixed_order(self):
        fine = {t: (0, 0.4) for t in FINE_TASKS}
        assert assemble_labels((1, 0.9), fine) == {LabelTag.FAKE}

    @given(
        st.tuples(st.integers(0, 1), st.floats(0, 1)),
        st.tuples(
            *[
                st.tuples(st.integers(0, 1), st.floats(0, 1))
                for _ in FINE_TASKS
            ]
        ),
    )
    @settings(max_examples=300)
    def test_never_empty_never_mixed(self, coarse, fine_values):
        fine = dict(zip(FINE_TASKS, fine_values))
        tags = assemble_labels(coarse, fine)
        assert tags
        if NH in tags:
            assert tags == {NH}


class TestSuiteMetrics:
    def test_perfect_predictors(self):
        golds = {
            COARSE: [1, 0, 1, 0],
            "fake": [1, 0, 0, 0],
            "hate": [0, 0, 1, 0],
            "offensive": [1, 0, 1, 0],
            "defamation": [0, 0, 0, 0],
        }
        report = compute_suite_metrics(golds, golds)
        for task in (COARSE, "fake", "hate", "offensive"):
            assert report.tasks[task].macro_f1 == 1.0
            assert report.tasks[task].weighted_f1 == 1.0
        assert report.fine_weighted_f1 == 1.0

    def test_all_negative_on_imbalanced_test_distribution(self):
        n_clean, n_hostile = 873, 780
        golds = [0] * n_clean + [1] * n_hostile
        preds = [0] * (n_clean + n_hostile)
        scores = f1_scores(preds, golds)
        assert scores.pos.f1 == 0.0
        assert scores.neg.f1 == pytest.approx(2 * 873 / (873 + 1653))

    def test_table_rows_and_order(self):
        golds = {t: [1, 0] for t in ALL_TASKS}
        report = compute_suite_metrics(golds, golds)
        lines = render_table(report).splitlines()
        names = [line.split("  ")[0].strip() for line in lines]
        assert names == [
            "Task",
            "Hostility (Coarse)",
            "Defamation",
            "Fake",
            "Hate",
            "Offensive",
            "Weighted (Fine)",
        ]

    def test_kv_format(self):
        golds = {t: [1, 0] for t in ALL_TASKS}
        report = compute_suite_metrics(golds, golds)
        kv = dict(line.split("=") for line in render_kv(report).splitlines())
        assert kv["coarse.macro_f1"] == "100.0000"
        assert kv["weighted_fine.f1"] == "100.0000"
        assert kv["hate.class1.support"] == "1"


def separable_examples(n=32, emoji_dim=4):
    """Positives and negatives use disjoint word sets."""
    examples = []
    for i in range(n):
        if i % 2:
            bundle = FeatureBundle(
                f"nafrat gaali bura word{i % 4}", "", np.zeros(emoji_dim, dtype=np.float32), 0
            )
            examples.append((bundle, 1))
        else:
            bundle = FeatureBundle(
                f"shanti acha sach word{i % 4}", "", np.zeros(emoji_dim, dtype=np.float32), 0
            )
            examples.append((bundle, 0))
    return examples


@pytest.fixture(scope="module")
def toy_setup():
    examples = separable_examples()
    vocab = Vocab.build([b.cleaned_text for b, _ in examples])
    enc = EncoderConfig(vocab_size=len(vocab), d_model=16, n_layers=1, n_heads=2, d_ff=32, max_len=12)
    return examples, vocab, FusionConfig(encoder=enc, emoji_dim=4, mlp_hidden=(8,))


class TestTrainBinary:
    def test_single_class_train_split_rejected(self, toy_setup):
        examples, vocab, config = toy_setup
        ones = [e for e in examples if e[1] == 1]
        with pytest.raises(ValueError, match="single class"):
            train_binary(config, vocab, COARSE, ones, examples, hp=Hyperparams(epochs=1, lr=1e-3))

    def test_nan_batch_loss_raises(self, toy_setup, monkeypatch):
        import hostility.traineval
        from hostility.numeric import cross_entropy, scale

        examples, vocab, config = toy_setup
        monkeypatch.setattr(
            hostility.traineval,
            "cross_entropy",
            lambda logits, labels: scale(cross_entropy(logits, labels), float("nan")),
        )
        hp = Hyperparams(epochs=1, lr=1e-3)
        with pytest.raises(InvariantError, match="non-finite"):
            train_binary(config, vocab, COARSE, examples, examples, hp=hp)

    def test_overfits_separable_toy_set(self, toy_setup):
        examples, vocab, config = toy_setup
        hp = Hyperparams(epochs=30, lr=1e-3, batch_size=8, seed=0)
        run = train_binary(config, vocab, COARSE, examples, examples, hp=hp)
        assert run.best_val_macro_f1 >= 0.99
        assert run.best_val_macro_f1 == max(run.val_macro_f1)
        assert run.best_epoch == best_epoch_of(run.val_macro_f1)

    def test_deterministic_checkpoints(self, toy_setup):
        examples, vocab, config = toy_setup
        hp = Hyperparams(epochs=2, lr=1e-3, batch_size=8, seed=5)
        a = train_binary(config, vocab, "fake", examples, examples, hp=hp)
        b = train_binary(config, vocab, "fake", examples, examples, hp=hp)
        assert a.best_checkpoint == b.best_checkpoint
        assert a.val_macro_f1 == b.val_macro_f1

    def test_best_checkpoint_reproduces_trace_value(self, toy_setup):
        examples, vocab, config = toy_setup
        hp = Hyperparams(epochs=3, lr=1e-3, batch_size=8, seed=1)
        run = train_binary(config, vocab, COARSE, examples, examples, hp=hp)
        model = model_from_bytes(run.best_checkpoint, vocab)
        preds = [predict(model, bundle)[0] for bundle, _ in examples]
        macro = f1_scores(preds, [t for _, t in examples]).macro_f1
        assert macro == pytest.approx(max(run.val_macro_f1))

    def test_trace_lengths(self, toy_setup):
        examples, vocab, config = toy_setup
        hp = Hyperparams(epochs=4, lr=1e-3, batch_size=8, seed=2)
        run = train_binary(config, vocab, COARSE, examples, examples, hp=hp)
        assert len(run.val_macro_f1) == 4
        assert len(run.train_loss) == 4


class TestMakeExamples:
    def test_targets_align(self, fixture_posts, fixture_freq, fixture_emoji_table):
        examples = make_examples(fixture_posts, "fake", fixture_freq, fixture_emoji_table)
        assert len(examples) == len(fixture_posts)
        assert [t for _, t in examples] == binary_targets(fixture_posts, "fake")
