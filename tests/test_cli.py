import numpy as np
import pytest

from hostility.checkpoint import read_checkpoint
from hostility.cli import main
from hostility.traineval import ALL_TASKS

DATA_ARGS = ["--data", None, "--dict", None, "--emoji", None]


def run(*args):
    return main([str(a) for a in args])


def common_args(data_dir, out):
    return [
        "--data", str(data_dir / "tiny_posts.csv"),
        "--dict", str(data_dir / "word_freq.tsv"),
        "--emoji", str(data_dir / "emoji_300d.txt"),
        "--out", str(out),
        "--seed", "0",
        "--profile", "desk",
        "--max-len", "32",
    ]


@pytest.fixture(scope="session")
def trained_dir(tmp_path_factory, data_dir):
    """One finished pipeline (tapt + finetune with adaptation on)."""
    out = tmp_path_factory.mktemp("trained")
    args = common_args(data_dir, out)
    assert run("tapt", *args, "--tapt-epochs", "2") == 0
    assert run("finetune", *args, "--tapt", "on", "--epochs", "2") == 0
    return out


class TestPreprocess:
    def test_fixture_dump_and_histogram(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("preprocess", *common_args(data_dir, out)) == 0
        stdout = capsys.readouterr().out
        assert "labels: non-hostile=5 fake=3 hate=2 offensive=3 defamation=2" in stdout
        assert "split: train=10 val=2" in stdout
        lines = (out / "features.tsv").read_text(encoding="utf-8").splitlines()
        records = [l for l in lines if l and not l.startswith(("#", "id\t"))]
        assert len(records) == 12
        assert any(l.startswith("# labels:") for l in lines)
        t01 = records[0].split("\t")
        assert t01[0] == "t01"
        assert t01[1] == "yeh din acha hai"
        assert t01[2] == "acha din"
        assert t01[3] == "1"

    def test_empty_dataset(self, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("id,text,labels\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("preprocess", "--data", data, "--out", out) == 0
        stdout = capsys.readouterr().out
        assert "posts: 0" in stdout
        assert "non-hostile=0" in stdout

    def test_missing_file_is_data_error(self, tmp_path):
        assert run("preprocess", "--data", tmp_path / "nope.csv", "--out", tmp_path) == 2

    def test_malformed_file_names_line(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("id,text,labels\nx,y,bogus\n", encoding="utf-8")
        assert run("preprocess", "--data", data, "--out", tmp_path) == 2
        assert "line 2: unknown label" in capsys.readouterr().err


class TestUsageErrors:
    def test_missing_data_flag(self, tmp_path):
        assert run("preprocess", "--out", tmp_path) == 1

    def test_unknown_flag(self, tmp_path):
        assert run("preprocess", "--bogus", "x") == 1

    def test_bad_epochs(self, data_dir, tmp_path):
        assert run("finetune", *common_args(data_dir, tmp_path), "--epochs", "0") == 1

    def test_config_file_and_flag_override(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "\n".join(
                [
                    "# demo config",
                    f"data={data_dir / 'tiny_posts.csv'}",
                    f"out={tmp_path / 'out'}",
                    "profile=desk",
                    "seed=42",
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        assert run("preprocess", "--config", cfg) == 0
        assert run("preprocess", "--config", cfg, "--seed", "7") == 0

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus=1\n", encoding="utf-8")
        assert run("preprocess", "--config", cfg) == 1

    def test_invariant_violation_exits_3(self, data_dir, tmp_path, monkeypatch):
        import hostility.cli as cli
        from hostility.errors import InvariantError

        def boom(cfg):
            raise InvariantError("forced")

        monkeypatch.setitem(cli._DISPATCH, "preprocess", boom)
        assert run("preprocess", *common_args(data_dir, tmp_path)) == 3


class TestTapt:
    def test_artifacts_and_corpus_size(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        args = common_args(data_dir, out)
        assert run("tapt", *args, "--tapt-epochs", "3") == 0
        stdout = capsys.readouterr().out
        # 10 training posts, each contributing a raw and a cleaned line
        assert "corpus lines: 20" in stdout
        assert (out / "tapt.ckpt").exists()
        assert (out / "vocab.txt").exists()
        trace = (out / "tapt_loss.csv").read_text(encoding="utf-8").splitlines()
        assert trace[0] == "epoch,loss"
        assert len(trace) == 1 + 3
        corpus = (out / "tapt_corpus.txt").read_text(encoding="utf-8").splitlines()
        assert len(corpus) == 20
        assert all(line[:2] in ("R\t", "C\t") for line in corpus)

    def test_no_clean_dup_halves_corpus(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        args = common_args(data_dir, out)
        assert run("tapt", *args, "--tapt-epochs", "1", "--no-clean-dup") == 0
        assert "corpus lines: 10" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, data_dir, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run("tapt", *common_args(data_dir, out), "--tapt-epochs", "2") == 0
        assert (out_a / "tapt.ckpt").read_bytes() == (out_b / "tapt.ckpt").read_bytes()
        assert (out_a / "tapt_loss.csv").read_bytes() == (out_b / "tapt_loss.csv").read_bytes()

    def test_tiny_dataset_is_data_error(self, tmp_path):
        data = tmp_path / "small.csv"
        data.write_text("id,text,labels\na,x,non-hostile\nb,y,hate\n", encoding="utf-8")
        assert run("tapt", "--data", data, "--out", tmp_path / "out") == 2


class TestFinetune:
    def test_five_checkpoints_without_tapt(self, data_dir, tmp_path):
        out = tmp_path / "out"
        assert run("finetune", *common_args(data_dir, out), "--epochs", "2") == 0
        for task in ALL_TASKS:
            assert (out / f"{task}.ckpt").exists()
            assert (out / f"{task}.init.ckpt").exists()
            trace = (out / f"{task}_trace.csv").read_text(encoding="utf-8").splitlines()
            assert trace[0] == "epoch,train_loss,val_macro_f1"
            assert len(trace) == 1 + 2

    def test_missing_tapt_checkpoint(self, data_dir, tmp_path):
        out = tmp_path / "out"
        assert run("finetune", *common_args(data_dir, out), "--tapt", "on") == 2

    def test_tapt_asymmetry_in_init_checkpoints(self, data_dir, tmp_path, trained_dir):
        out_off = tmp_path / "off"
        assert run("finetune", *common_args(data_dir, out_off), "--epochs", "2") == 0
        _, with_tapt = read_checkpoint(trained_dir / "coarse.init.ckpt")
        _, without = read_checkpoint(out_off / "coarse.init.ckpt")
        text_names = [n for n in with_tapt if n.startswith("text_enc.")]
        hash_names = [n for n in with_tapt if n.startswith("hash_enc.")]
        assert any(not np.array_equal(with_tapt[n], without[n]) for n in text_names)
        for name in hash_names:
            np.testing.assert_array_equal(with_tapt[name], without[name])

    def test_prints_best_f1_per_task(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("finetune", *common_args(data_dir, out), "--epochs", "1") == 0
        stdout = capsys.readouterr().out
        for task in ALL_TASKS:
            assert f"{task}: best epoch" in stdout


class TestEvaluate:
    def test_writes_report(self, data_dir, trained_dir, capsys):
        args = common_args(data_dir, trained_dir)
        assert run("evaluate", *args) == 0
        table = (trained_dir / "metrics.txt").read_text(encoding="utf-8")
        first_cells = [line.split("  ")[0].strip() for line in table.splitlines()]
        assert first_cells == [
            "Task",
            "Hostility (Coarse)",
            "Defamation",
            "Fake",
            "Hate",
            "Offensive",
            "Weighted (Fine)",
        ]
        kv = (trained_dir / "metrics.kv").read_text(encoding="utf-8").splitlines()
        pairs = dict(line.split("=") for line in kv)
        for task in ALL_TASKS:
            assert f"{task}.macro_f1" in pairs
        assert "weighted_fine.f1" in pairs
        for value in pairs.values():
            float(value)

    def test_val_split_subset(self, data_dir, trained_dir):
        args = common_args(data_dir, trained_dir)
        assert run("evaluate", *args, "--split", "val") == 0

    def test_vocab_hash_mismatch(self, data_dir, trained_dir, tmp_path, capsys):
        tampered = tmp_path / "tampered"
        tampered.mkdir()
        for name in [f"{t}.ckpt" for t in ALL_TASKS]:
            (tampered / name).write_bytes((trained_dir / name).read_bytes())
        vocab_lines = (trained_dir / "vocab.txt").read_text(encoding="utf-8").splitlines()
        vocab_lines.append("zzznew")
        (tampered / "vocab.txt").write_text("\n".join(vocab_lines) + "\n", encoding="utf-8")
        args = common_args(data_dir, tampered)
        assert run("evaluate", *args) == 2
        assert "vocab hash" in capsys.readouterr().err

    def test_unlabeled_dataset_is_data_error(self, data_dir, trained_dir, tmp_path):
        data = tmp_path / "unlabeled.csv"
        data.write_text("id,text,labels\nx,kuch bhi,\n", encoding="utf-8")
        args = common_args(data_dir, trained_dir)
        args[1] = str(data)
        assert run("evaluate", *args) == 2

    def test_emoji_dimension_mismatch(self, data_dir, trained_dir, tmp_path, capsys):
        small = tmp_path / "small_table.txt"
        small.write_text("1 3\n\U0001F602 1.0 2.0 3.0\n", encoding="utf-8")
        args = common_args(data_dir, trained_dir)
        assert args[4] == "--emoji"
        args[5] = str(small)
        assert run("evaluate", *args) == 2
        assert "!= model emoji dimension" in capsys.readouterr().err


class TestPredict:
    def test_output_format(self, data_dir, trained_dir):
        args = common_args(data_dir, trained_dir)
        assert run("predict", *args) == 0
        lines = (trained_dir / "predictions.tsv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 12
        valid = {"non-hostile", "fake", "hate", "offensive", "defamation"}
        for line in lines:
            pid, tags = line.split("\t")
            assert pid.startswith("t")
            parts = tags.split("|")
            assert set(parts) <= valid
            if "non-hostile" in parts:
                assert parts == ["non-hostile"]

    def test_fine_models_run_only_for_hostile_posts(self, data_dir, trained_dir, monkeypatch):
        import hostility.cli

        calls = []
        real_predict = hostility.cli.predict

        def recording_predict(model, bundle):
            result = real_predict(model, bundle)
            calls.append((model.task, result[0]))
            return result

        monkeypatch.setattr(hostility.cli, "predict", recording_predict)
        assert run("predict", *common_args(data_dir, trained_dir)) == 0
        coarse = [label for task, label in calls if task == "coarse"]
        assert len(coarse) == 12
        assert len(calls) == 12 + 4 * sum(coarse)
        lines = (trained_dir / "predictions.tsv").read_text(encoding="utf-8").splitlines()
        assert [line.endswith("\tnon-hostile") for line in lines] == [c == 0 for c in coarse]

    def test_works_on_unlabeled_rows(self, data_dir, trained_dir, tmp_path):
        data = tmp_path / "unlabeled.csv"
        data.write_text("id,text,labels\nu1,yeh sach hai,\n", encoding="utf-8")
        args = common_args(data_dir, trained_dir)
        args[1] = str(data)
        assert run("predict", *args) == 0
        line = (trained_dir / "predictions.tsv").read_text(encoding="utf-8").strip()
        pid, tags = line.split("\t")
        assert pid == "u1" and tags
