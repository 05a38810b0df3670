"""Tests of the benchmark's own code: output checks, generator, metric lists.

Run with: python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import layer_trace  # noqa: E402
import output_checks as checks  # noqa: E402
import workload_gen  # noqa: E402

ROOT = HERE.parent.parent


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


class TestPredictionsCheck:
    def test_accepts_legal_tag_sets(self, tmp_path):
        path = _write(tmp_path / "p.tsv", "a\tnon-hostile\nb\tfake|hate\nc\tdefamation\n")
        assert checks.check_predictions(path, ["a", "b", "c"]) == []

    @pytest.mark.parametrize("field", ["non-hostile|fake", "fake|fake", "hate|fake", "", "rude"])
    def test_rejects_illegal_tag_set(self, tmp_path, field):
        path = _write(tmp_path / "p.tsv", f"a\t{field}\n")
        assert checks.check_predictions(path, ["a"])

    def test_rejects_missing_post_id(self, tmp_path):
        path = _write(tmp_path / "p.tsv", "a\tnon-hostile\nc\tfake\n")
        problems = checks.check_predictions(path, ["a", "b", "c"])
        assert any("2 lines for 3 posts" in p for p in problems)
        assert any("expected id 'b'" in p for p in problems)

    def test_rejects_reordered_ids(self, tmp_path):
        path = _write(tmp_path / "p.tsv", "b\tnon-hostile\na\tfake\n")
        assert checks.check_predictions(path, ["a", "b"])


class TestTraceCheck:
    def test_accepts_finite_losses(self, tmp_path):
        path = _write(tmp_path / "t.csv", "epoch,train_loss,val_macro_f1\n1,0.69,0.5\n")
        assert checks.check_trace(path, f1_column=True) == []

    @pytest.mark.parametrize("loss", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_loss(self, tmp_path, loss):
        path = _write(tmp_path / "t.csv", f"epoch,loss\n1,0.7\n2,{loss}\n")
        assert checks.check_trace(path, f1_column=False)


class TestMetricsCheck:
    def _kv(self, n_posts, **override):
        lines = {}
        for key in sorted(checks.expected_kv_keys()):
            lines[key] = "50.0000"
        for task in checks.TASKS:
            lines[f"{task}.class0.support"] = str(n_posts - 1)
            lines[f"{task}.class1.support"] = "1"
        lines.update(override)
        return "".join(f"{k}={v}\n" for k, v in lines.items())

    def test_accepts_complete_report(self, tmp_path):
        path = _write(tmp_path / "m.kv", self._kv(10))
        assert checks.check_metrics_kv(path, 10) == []

    def test_rejects_out_of_range_and_nan(self, tmp_path):
        path = _write(tmp_path / "m.kv", self._kv(10, **{"hate.macro_f1": "100.5", "fake.class0.f1": "nan"}))
        assert len(checks.check_metrics_kv(path, 10)) == 2

    def test_rejects_missing_key_and_wrong_support(self, tmp_path):
        text = self._kv(10).replace("weighted_fine.f1=50.0000\n", "")
        assert len(checks.check_metrics_kv(_write(tmp_path / "m.kv", text), 11)) == 1 + 5


class TestGenerator:
    @pytest.mark.parametrize("kind", workload_gen.KINDS)
    def test_byte_deterministic_for_a_seed(self, tmp_path, kind):
        a = workload_gen.write_inputs(tmp_path / "a", kind, 60, seed=7)
        b = workload_gen.write_inputs(tmp_path / "b", kind, 60, seed=7)
        assert a == b
        for name in ("posts.csv", "freq.tsv", "emoji.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_seeds_differ(self):
        assert workload_gen.generate_posts("short", 20, 1) != workload_gen.generate_posts("short", 20, 2)

    def test_inputs_load_through_the_package(self, tmp_path):
        sys.path.insert(0, str(ROOT / "src"))
        from hostility.preprocess import extract_features, load_dataset, load_emoji_table, load_freq_dict

        workload_gen.write_inputs(tmp_path, "mixed", 24, seed=3)
        posts = load_dataset(tmp_path / "posts.csv")
        table = load_emoji_table(tmp_path / "emoji.txt")
        freq = load_freq_dict(tmp_path / "freq.tsv")
        assert len(posts) == 24 and table.dim == workload_gen.EMOJI_DIM
        emitted = {e for p in posts for e in p.text if e in set(workload_gen.language().emojis)}
        assert emitted <= set(table.entries)
        for post in posts[workload_gen.LONG_TAIL_EVERY - 1 :: workload_gen.LONG_TAIL_EVERY]:
            assert len(post.text) <= workload_gen.TWEET_LIMIT
            assert len(extract_features(post.text, freq, table).hashtag_flow.split()) >= 20

    def test_properties_measure_the_tail(self):
        rows = workload_gen.generate_posts("mixed", 48, seed=1)
        props = workload_gen.properties(rows)
        assert props["posts"] == 48
        assert props["long_hashtag_post_share"] == round(4 / 48, 4)
        assert props["longest_hashtag"] >= 100


def test_figures_scale_by_the_host_speed(monkeypatch, tmp_path):
    import workloads

    refs = iter([workloads.REF_S * 2] * 4)
    monkeypatch.setattr(workloads, "reference_s", lambda: next(refs))
    b = workloads.Bench(ROOT, tmp_path, seed=1, seconds=1)
    assert b.timed(lambda: 3.0) == 3.0 and b.timed(lambda: 5.0) == 5.0
    assert workloads.host_speed(b.refs) == pytest.approx(0.5)
    setup_refs = [workloads.REF_S * 4]
    result = workloads._result(b, 10.0, 20.0, (4.0, setup_refs), [("a", "posts/s"), ("b", "posts/s")])
    assert result.metrics == pytest.approx(
        {"stage1_items_per_s": 20.0, "stage2_items_per_s": 40.0, "setup_s": 1.0}
    )
    assert result.named["a.wall"] == (10.0, "posts/s")


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import run
    import workloads

    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in layer_trace.PER_LAYER
    ]
