import os
import resource
import shutil
import struct
import subprocess
import sys
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from hostility.checkpoint import checkpoint_bytes, read_checkpoint
from hostility.cli import _encoder_config, _write_artifact, main, resolve_config
from hostility.encoder import Vocab, desk_config, paper_config
from hostility.fusion import FusionConfig, forward, init_model, load_model
from hostility.numeric import adam_init, cross_entropy, train_epoch
from hostility.preprocess import (
    LabelTag,
    extract_features,
    load_dataset,
    load_emoji_table,
    load_freq_dict,
)
from hostility.traineval import ALL_TASKS, COARSE, FINE_TASKS, SplitSpec, binary_targets, split_dataset


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


@pytest.fixture(scope="session")
def short_run_dir(tmp_path_factory, data_dir):
    """A finetune run on the same data as trained_dir, at --max-len 16."""
    out = tmp_path_factory.mktemp("short")
    args = common_args(data_dir, out)
    args[args.index("--max-len") + 1] = "16"
    assert run("finetune", *args, "--epochs", "1") == 0
    return out


@pytest.fixture(scope="session")
def all_corpus_runs(tmp_path_factory, data_dir):
    """Two finetune runs with the vocab of every post, at seeds 0 and 1:
    one vocab and one model configuration, other weights. The seed-0 run
    is scored."""
    runs = []
    for seed in ("0", "1"):
        out = tmp_path_factory.mktemp(f"all_corpus_{seed}")
        args = common_args(data_dir, out)
        args[args.index("--seed") + 1] = seed
        assert run("finetune", *args, "--tapt-corpus", "all", "--epochs", "1") == 0
        runs.append(out)
    assert run("evaluate", *common_args(data_dir, runs[0])) == 0
    return runs


def copy_run(trained_dir, dest):
    """The files evaluate and predict read: vocab.txt and the task checkpoints."""
    dest.mkdir()
    for name in ["vocab.txt"] + [f"{t}.ckpt" for t in ALL_TASKS]:
        (dest / name).write_bytes((trained_dir / name).read_bytes())
    return dest


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

    @pytest.mark.parametrize("flag", ["--data", "--dict", "--emoji"])
    def test_missing_file_is_data_error(self, data_dir, tmp_path, capsys, flag):
        args = common_args(data_dir, tmp_path / "out")
        args[args.index(flag) + 1] = str(tmp_path / "nope.txt")
        assert run("preprocess", *args) == 2
        assert "nope.txt" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--data", "--dict", "--emoji"])
    def test_non_utf8_file_names_file_and_line(self, data_dir, tmp_path, capsys, flag):
        args = common_args(data_dir, tmp_path / "out")
        source = Path(args[args.index(flag) + 1])
        bad = tmp_path / f"bad{source.suffix}"
        bad.write_bytes(source.read_bytes().replace(b"\n", b"\n\xff", 1))
        args[args.index(flag) + 1] = str(bad)
        assert run("preprocess", *args) == 2
        assert f"{bad}: line 2: not valid UTF-8" in capsys.readouterr().err

    def test_malformed_file_names_line(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("id,text,labels\nx,y,bogus\n", encoding="utf-8")
        assert run("preprocess", "--data", data, "--out", tmp_path) == 2
        assert "line 2: unknown label" in capsys.readouterr().err

    def test_field_over_csv_limit_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "long.csv"
        data.write_text(f'id,text,labels\nx,"{"w" * 200_000}",\n', encoding="utf-8")
        assert run("preprocess", "--data", data, "--out", tmp_path / "out") == 2
        assert "line 2: field larger than field limit" in capsys.readouterr().err


NON_FINITE = ["nan", "NaN", "-nan", "inf", "-inf", "Infinity"]


def config_lines(data_dir, out):
    """common_args as config-file lines."""
    args = common_args(data_dir, out)
    return [f"{flag[2:].replace('-', '_')}={value}" for flag, value in zip(args[::2], args[1::2])]


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

    @pytest.mark.parametrize("flag", ["--lr", "--tapt-lr"])
    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_rate_flag(self, data_dir, tmp_path, capsys, flag, value):
        args = common_args(data_dir, tmp_path / "out")
        assert run("finetune", *args, "--epochs", "1", f"{flag}={value}") == 1
        assert "learning rate must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["lr", "tapt_lr"])
    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_rate_config_key(self, data_dir, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, *config_lines(data_dir, tmp_path / "out"), f"{key}={value}")
        assert run("finetune", "--config", cfg, "--epochs", "1") == 1
        assert "learning rate must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_max_len_over_position_limit(self, data_dir, tmp_path, capsys):
        args = common_args(data_dir, tmp_path / "out")
        assert run("tapt", *args, "--max-len", "513") == 1
        assert "max_len must be between 4 and 512" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert resolve_config(["tapt", *args, "--max-len", "512"]).max_len == 512

    def test_config_file_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed=\xff\n")
        assert run("preprocess", "--config", cfg) == 1
        assert "cannot read config file" in capsys.readouterr().err

    def test_invariant_violation_exits_3(self, data_dir, tmp_path, monkeypatch):
        import hostility.cli as cli
        from hostility.errors import InvariantError

        def boom(cfg):
            raise InvariantError("forced")

        monkeypatch.setitem(cli._DISPATCH, "preprocess", boom)
        assert run("preprocess", *common_args(data_dir, tmp_path)) == 3


def write_config(tmp_path, *lines):
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def resolve_with(config, *flags):
    return resolve_config(["tapt", "--config", str(config), *flags])


class TestConfigFile:
    def test_seed_lands_in_checkpoint_and_flag_wins(self, data_dir, tmp_path):
        config = write_config(tmp_path, "seed=42", "tapt_epochs=1")
        args = common_args(data_dir, tmp_path / "out")
        del args[args.index("--seed") : args.index("--seed") + 2]
        assert run("tapt", "--config", config, *args) == 0
        meta, _ = read_checkpoint(tmp_path / "out" / "tapt.ckpt")
        assert meta["seed"] == "42" and meta["tapt_epochs"] == "1"
        assert run("tapt", "--config", config, *args, "--seed", "7") == 0
        meta, _ = read_checkpoint(tmp_path / "out" / "tapt.ckpt")
        assert meta["seed"] == "7"

    @pytest.mark.parametrize(
        "value, expected",
        [("true", True), ("1", True), ("yes", True), ("YES", True),
         ("false", False), ("0", False), ("no", False), ("No", False)],
    )
    def test_switch_spellings(self, tmp_path, value, expected):
        config = write_config(tmp_path, "data=d.csv", "out=o", f"no_clean_dup={value}")
        assert resolve_with(config).no_clean_dup is expected
        assert resolve_with(config, "--no-clean-dup").no_clean_dup is True

    @pytest.mark.parametrize("value", ["maybe", ""])
    def test_switch_bad_value(self, tmp_path, value):
        config = write_config(tmp_path, "data=d.csv", "out=o", f"no_clean_dup={value}")
        assert run("tapt", "--config", config) == 1

    @pytest.mark.parametrize("key", ["config", "command", "help", "max-len"])
    def test_keys_that_are_not_destinations(self, tmp_path, key):
        config = write_config(tmp_path, "data=d.csv", "out=o", f"{key}=1")
        assert run("tapt", "--config", config) == 1

    def test_value_starting_with_dash(self, tmp_path):
        config = write_config(tmp_path, "data=-d.csv", "out=-x")
        cfg = resolve_with(config)
        assert (cfg.data, cfg.out) == ("-d.csv", "-x")

    @pytest.mark.parametrize("flags", [(), ("--profile", "desk")])
    def test_value_outside_choices(self, tmp_path, flags):
        config = write_config(tmp_path, "data=d.csv", "out=o", "profile=bogus")
        assert run("tapt", "--config", config, *flags) == 1

    @pytest.mark.parametrize(
        "key, value",
        [("profile", "paper"), ("seed", "5"), ("epochs", "3"), ("lr", "0.5"),
         ("batch_size", "2"), ("max_len", "16"), ("tapt", "on"), ("tapt_epochs", "4"),
         ("tapt_lr", "0.25"), ("tapt_corpus", "all"), ("fine_scope", "hostile"),
         ("split", "val"), ("emoji", "e.txt"), ("dict", "f.tsv")],
    )
    def test_key_resolves_as_its_flag(self, tmp_path, key, value):
        config = write_config(tmp_path, "data=d.csv", "out=o", f"{key}={value}")
        by_file = resolve_with(config)
        by_flag = resolve_with(config, f"--{key.replace('_', '-')}", value)
        default = resolve_config(["tapt", "--data", "d.csv", "--out", "o"])
        assert vars(by_file) == vars(by_flag)
        assert getattr(by_file, key) != getattr(default, key)

    @pytest.mark.parametrize("profile, lr, batch_size", [("desk", 1e-3, 8), ("paper", 1e-5, 16)])
    def test_run_settings_by_profile(self, profile, lr, batch_size):
        cfg = resolve_config(["tapt", "--data", "d.csv", "--out", "o", "--profile", profile])
        assert (cfg.epochs, cfg.lr, cfg.batch_size) == (10, lr, batch_size)
        assert (cfg.tapt_epochs, cfg.tapt_lr, cfg.max_len, cfg.seed) == (100, 1e-4, 128, 0)

    @pytest.mark.parametrize("profile, make", [("desk", desk_config), ("paper", paper_config)])
    def test_profile_sizes_are_the_encoder_configs(self, tmp_path, profile, make):
        config = write_config(tmp_path, "data=d.csv", "out=o", f"profile={profile}", "max_len=40")
        assert _encoder_config(resolve_with(config), 57) == make(57, max_len=40)


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

    def test_parses_each_corpus_post_once(self, data_dir, tmp_path, monkeypatch, fixture_posts):
        import hostility.cli
        import hostility.preprocess
        import hostility.tapt

        texts = []
        real = hostility.preprocess.tokenize_raw

        def counting(text):
            texts.append(text)
            return real(text)

        for module in (hostility.preprocess, hostility.tapt, hostility.cli):
            if hasattr(module, "tokenize_raw"):
                monkeypatch.setattr(module, "tokenize_raw", counting)
        assert run("tapt", *common_args(data_dir, tmp_path / "out"), "--tapt-epochs", "1") == 0
        train, _ = split_dataset(fixture_posts, SplitSpec(seed=0))
        assert sorted(texts) == sorted(p.text for p in train)

    def test_reads_no_emoji_vector(self, data_dir, tmp_path, monkeypatch, fixture_posts):
        import hostility.preprocess

        tables = []
        real = hostility.preprocess.mean_emoji_vector

        def recording(emojis, table):
            tables.append(table)
            return real(emojis, table)

        monkeypatch.setattr(hostility.preprocess, "mean_emoji_vector", recording)
        assert run("tapt", *common_args(data_dir, tmp_path / "out"), "--tapt-epochs", "1") == 0
        train, _ = split_dataset(fixture_posts, SplitSpec(seed=0))
        assert len(tables) == len(train)
        assert all(t.entries == {} and t.dim == 300 for t in tables)

    def test_broken_emoji_file_is_data_error(self, data_dir, tmp_path, capsys):
        emoji = tmp_path / "emoji.txt"
        emoji.write_text("1 300\n\U0001F600 0.5\n", encoding="utf-8")
        args = common_args(data_dir, tmp_path / "out")
        args[args.index("--emoji") + 1] = str(emoji)
        assert run("tapt", *args, "--tapt-epochs", "1") == 2
        assert str(emoji) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("value", ["nan", "inf", "1e39"])
    def test_non_finite_emoji_table_is_data_error(self, data_dir, tmp_path, capsys, value):
        lines = (data_dir / "emoji_300d.txt").read_text(encoding="utf-8").splitlines()
        fields = lines[1].split(" ")
        fields[5] = value
        lines[1] = " ".join(fields)
        emoji = tmp_path / "emoji.txt"
        emoji.write_text("\n".join(lines) + "\n", encoding="utf-8")
        args = common_args(data_dir, tmp_path / "out")
        args[args.index("--emoji") + 1] = str(emoji)
        assert run("finetune", *args, "--epochs", "1") == 2
        assert "line 2: value not finite" in capsys.readouterr().err

    def test_draws_each_task_model_once(self, data_dir, tmp_path, monkeypatch):
        import hostility.cli
        import hostility.traineval

        seeds = []
        for module in (hostility.cli, hostility.traineval):
            if hasattr(module, "init_model"):
                real = getattr(module, "init_model")

                def counting(*args, real=real, **kwargs):
                    seeds.append(kwargs["base_seed"])
                    return real(*args, **kwargs)

                monkeypatch.setattr(module, "init_model", counting)
        assert run("finetune", *common_args(data_dir, tmp_path / "out"), "--epochs", "1") == 0
        assert seeds == [0, 1, 2, 3, 4]

    def test_holds_one_train_run_at_a_time(self, data_dir, tmp_path, monkeypatch):
        import hostility.cli

        real_train_binary = hostility.cli.train_binary
        runs, alive_on_entry = [], []

        def keeping_train_binary(*args, **kwargs):
            alive_on_entry.append(sum(ref() is not None for ref in runs))
            result = real_train_binary(*args, **kwargs)
            runs.append(weakref.ref(result))
            return result

        monkeypatch.setattr(hostility.cli, "train_binary", keeping_train_binary)
        assert run("finetune", *common_args(data_dir, tmp_path / "out"), "--epochs", "1") == 0
        # The previous task's run, and its best-checkpoint blob, is gone
        # before the next task trains.
        assert alive_on_entry == [0] * len(ALL_TASKS)

    @pytest.mark.parametrize("command", ["finetune", "evaluate", "predict"])
    def test_extracts_each_post_once(
        self, command, data_dir, trained_dir, tmp_path, monkeypatch, fixture_posts
    ):
        import hostility.preprocess

        out = tmp_path / "out"
        extra = ["--epochs", "1"]
        if command != "finetune":
            copy_run(trained_dir, out)
            extra = []
        calls = {"tokenize_raw": 0, "segment_hashtag": 0}
        for name in calls:
            real = getattr(hostility.preprocess, name)

            def counting(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(hostility.preprocess, name, counting)
        assert run(command, *common_args(data_dir, out), *extra) == 0
        # Scoring reads every post (evaluate's --split is all), whatever
        # the number of models.
        hashtags = sum(w.startswith("#") for p in fixture_posts for w in p.text.split())
        assert calls == {"tokenize_raw": len(fixture_posts), "segment_hashtag": hashtags}

    @pytest.mark.parametrize("scope", ["all", "hostile"])
    def test_fine_scope_picks_the_training_posts(
        self, scope, data_dir, tmp_path, monkeypatch, fixture_posts, fixture_freq,
        fixture_emoji_table,
    ):
        import hostility.cli

        real_train_binary = hostility.cli.train_binary
        trained = {}

        def recording_train_binary(model, train, *args, **kwargs):
            trained[model.task] = [bundle.cleaned_text for bundle, _ in train]
            return real_train_binary(model, train, *args, **kwargs)

        monkeypatch.setattr(hostility.cli, "train_binary", recording_train_binary)
        args = common_args(data_dir, tmp_path / "out")
        assert run("finetune", *args, "--epochs", "1", "--fine-scope", scope) == 0
        train, _ = split_dataset(fixture_posts, SplitSpec(seed=0))
        hostile = [p for p in train if LabelTag.NON_HOSTILE not in p.labels]
        assert 0 < len(hostile) < len(train)

        def cleaned(posts):
            table = fixture_emoji_table
            return [extract_features(p.text, fixture_freq, table).cleaned_text for p in posts]

        fine = cleaned(hostile if scope == "hostile" else train)
        assert trained == {"coarse": cleaned(train), **{task: fine for task in FINE_TASKS}}

    @pytest.mark.parametrize("corpus", ["train", "all"])
    @pytest.mark.parametrize("clean_dup", [[], ["--no-clean-dup"]])
    def test_derives_the_tapt_vocab(self, data_dir, tmp_path, corpus, clean_dup):
        args = [*common_args(data_dir, tmp_path), "--tapt-corpus", corpus, *clean_dup]
        assert run("tapt", *args, "--tapt-epochs", "1") == 0
        tapt_vocab = (tmp_path / "vocab.txt").read_bytes()
        assert run("finetune", *args, "--tapt", "on", "--epochs", "1") == 0
        assert (tmp_path / "vocab.txt").read_bytes() == tapt_vocab

    def test_single_class_task_refused_before_any_work(
        self, data_dir, tmp_path, capsys, monkeypatch
    ):
        import hostility.cli

        lines = (data_dir / "tiny_posts.csv").read_text(encoding="utf-8").splitlines()
        stripped = [
            line.replace("|defamation", "").replace(",defamation", ",non-hostile")
            for line in lines
        ]
        posts = tmp_path / "posts.csv"
        posts.write_text("\n".join(stripped) + "\n", encoding="utf-8")
        trained = []
        monkeypatch.setattr(
            hostility.cli, "train_binary", lambda model, *args, **kwargs: trained.append(model)
        )
        out = tmp_path / "out"
        args = common_args(data_dir, out)
        args[args.index("--data") + 1] = str(posts)
        assert run("finetune", *args, "--epochs", "2") == 2
        assert "task 'defamation' holds fewer than two classes" in capsys.readouterr().err
        assert trained == []
        assert not out.exists()

    def test_missing_tapt_checkpoint(self, data_dir, tmp_path):
        out = tmp_path / "out"
        assert run("finetune", *common_args(data_dir, out), "--tapt", "on") == 2
        assert not out.exists()

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

    def test_checkpoints_hold_no_mlm_tensors(self, trained_dir):
        paths = sorted(trained_dir.glob("*.ckpt"))
        assert len(paths) == 1 + 2 * len(ALL_TASKS)
        for path in paths:
            _, tensors = read_checkpoint(path)
            assert tensors and not [n for n in tensors if "mlm." in n], path.name

    def test_prints_best_f1_per_task(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("finetune", *common_args(data_dir, out), "--epochs", "1") == 0
        stdout = capsys.readouterr().out
        for task in ALL_TASKS:
            assert f"{task}: best epoch" in stdout


class TestFailingRunKeepsEarlierFiles:
    """A failing tapt or finetune --tapt on writes nothing, so an earlier
    run's vocab.txt and checkpoints still score."""

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("finetune", ["--tapt", "on"]),  # the run has no tapt.ckpt
            ("tapt", ["--tapt-lr", "1e30", "--tapt-epochs", "2"]),  # diverges
        ],
        ids=["finetune", "tapt"],
    )
    def test_files_keep_their_bytes(self, command, flags, data_dir, all_corpus_runs, tmp_path):
        run_dir = tmp_path / "run"
        shutil.copytree(all_corpus_runs[0], run_dir)
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        # Its vocab, from the training split alone, differs from the run's.
        args = common_args(data_dir, run_dir) + ["--tapt-corpus", "train"]
        assert run(command, *args, *flags) == 2
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before
        assert run("evaluate", *common_args(data_dir, run_dir)) == 0


def plant_in_last_value(path, value):
    """Overwrite the last float32 of a checkpoint file, the last value of
    its last tensor."""
    blob = path.read_bytes()
    path.write_bytes(blob[:-4] + struct.pack("<f", value))


class TestNonFiniteCheckpoint:
    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_task_checkpoint(self, data_dir, trained_dir, tmp_path, capsys, command, value):
        run_dir = copy_run(trained_dir, tmp_path / "run")
        plant_in_last_value(run_dir / "offensive.ckpt", value)
        assert run(command, *common_args(data_dir, run_dir)) == 2
        assert "holds a non-finite value" in capsys.readouterr().err
        assert not (run_dir / "metrics.kv").exists()
        assert not (run_dir / "predictions.tsv").exists()

    def test_tapt_checkpoint(self, data_dir, trained_dir, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "tapt.ckpt").write_bytes((trained_dir / "tapt.ckpt").read_bytes())
        plant_in_last_value(out / "tapt.ckpt", float("nan"))
        args = common_args(data_dir, out)
        assert run("finetune", *args, "--tapt", "on", "--epochs", "1") == 2
        assert "holds a non-finite value" in capsys.readouterr().err
        assert not (out / "coarse.init.ckpt").exists()


def rewrite_metadata(path, key, value):
    """Set key in the checkpoint at path to value, or drop it when value is None."""
    meta, tensors = read_checkpoint(path)
    meta[key] = value
    path.write_bytes(checkpoint_bytes({k: v for k, v in meta.items() if v is not None}, tensors))


class TestDropoutRate:
    """DROPOUT_P is the only rate and enc.shared_layers reads 0 or 1; a
    checkpoint that records another value exits 2 naming the key."""

    @pytest.mark.parametrize(
        "key, value", [("enc.dropout_p", "0.2"), ("dropout_p", "0.2"), ("enc.shared_layers", "2")],
        ids=["enc.dropout_p", "dropout_p", "enc.shared_layers"],
    )
    def test_task_checkpoints(self, data_dir, trained_dir, tmp_path, capsys, key, value):
        run_dir = copy_run(trained_dir, tmp_path / "run")
        for task in ALL_TASKS:
            rewrite_metadata(run_dir / f"{task}.ckpt", key, value)
        assert run("evaluate", *common_args(data_dir, run_dir)) == 2
        assert f"{key}={value!r}" in capsys.readouterr().err
        assert not (run_dir / "metrics.kv").exists()

    def test_tapt_checkpoint(self, data_dir, trained_dir, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "tapt.ckpt").write_bytes((trained_dir / "tapt.ckpt").read_bytes())
        rewrite_metadata(out / "tapt.ckpt", "enc.dropout_p", "0.2")
        assert run("finetune", *common_args(data_dir, out), "--tapt", "on", "--epochs", "1") == 2
        assert "enc.dropout_p='0.2'" in capsys.readouterr().err
        assert not (out / "coarse.init.ckpt").exists()


def test_run_written_before_shared_layers_key_scores_the_same(data_dir, trained_dir, tmp_path):
    """Checkpoints without enc.shared_layers hold a layer set per depth."""
    runs = [copy_run(trained_dir, tmp_path / name) for name in ("now", "before")]
    for task in ALL_TASKS:
        rewrite_metadata(runs[1] / f"{task}.ckpt", "enc.shared_layers", None)
    for run_dir in runs:
        assert run("evaluate", *common_args(data_dir, run_dir)) == 0
    assert (runs[0] / "metrics.kv").read_bytes() == (runs[1] / "metrics.kv").read_bytes()


class TestTaptCheckpoint:
    """finetune --tapt on refuses a tapt.ckpt that is not this run's, each
    fault with its own message, before any task model is drawn."""

    @pytest.mark.parametrize(
        "fault, expected",
        [
            ("missing", "TAPT checkpoint not found at"),
            ("task", "tapt.ckpt: checkpoint does not hold encoder weights"),
            ("config", "TAPT checkpoint encoder configuration does not match this run"),
            ("vocab", "vocab hash mismatch between checkpoint and current vocab"),
        ],
    )
    def test_not_this_runs(self, data_dir, trained_dir, tmp_path, capsys, fault, expected):
        out = tmp_path / "out"
        out.mkdir()
        args = common_args(data_dir, out)
        tapt = out / "tapt.ckpt"
        if fault == "task":
            tapt.write_bytes((trained_dir / "coarse.ckpt").read_bytes())
        elif fault != "missing":
            tapt.write_bytes((trained_dir / "tapt.ckpt").read_bytes())
        if fault == "config":
            # trained_dir's tapt ran at --max-len 32.
            args[args.index("--max-len") + 1] = "64"
        elif fault == "vocab":
            rewrite_metadata(tapt, "vocab_sha256", "0" * 64)
        assert run("finetune", *args, "--tapt", "on", "--epochs", "1") == 2
        assert expected in capsys.readouterr().err
        assert not (out / "coarse.init.ckpt").exists()


# A checkpoint header may declare more layers than its file holds; none
# of the commands that read one may build a shape table that large.
HOSTILE_LAYERS = "99999999"
# Entries of a hostile mlp_hidden: unbounded, they drive scoring into one
# error line that names each hidden layer's missing tensors.
HOSTILE_HIDDEN = 2_000_000
MEMORY_CAP = 1 << 30
SRC = Path(__file__).resolve().parent.parent / "src"


def run_capped(*args):
    """python -m hostility in a child process with its address space
    capped at MEMORY_CAP: (exit code, stderr, wall seconds)."""

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))

    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "hostility", *map(str, args)],
        env=env,
        preexec_fn=cap_memory,
        capture_output=True,
        text=True,
        timeout=30,
    )
    return proc.returncode, proc.stderr, time.perf_counter() - start


class TestHostileHeader:
    def test_tapt_checkpoint(self, data_dir, trained_dir, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "tapt.ckpt").write_bytes((trained_dir / "tapt.ckpt").read_bytes())
        rewrite_metadata(out / "tapt.ckpt", "enc.n_layers", HOSTILE_LAYERS)
        args = common_args(data_dir, out)
        code, err, seconds = run_capped("finetune", *args, "--tapt", "on", "--epochs", "1")
        assert (code, "Traceback" in err) == (2, False), err
        assert "data error: TAPT checkpoint encoder configuration does not match" in err
        assert seconds < 5
        assert not (out / "coarse.init.ckpt").exists()

    @pytest.mark.parametrize(
        "key, value, declared",
        [
            ("enc.n_layers", HOSTILE_LAYERS, f"{HOSTILE_LAYERS} layers"),
            ("mlp_hidden", ",".join(["1"] * HOSTILE_HIDDEN), f"{HOSTILE_HIDDEN} hidden layers"),
        ],
        ids=["enc.n_layers", "mlp_hidden"],
    )
    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_task_checkpoints(self, data_dir, trained_dir, tmp_path, command, key, value, declared):
        run_dir = copy_run(trained_dir, tmp_path / "run")
        for task in ALL_TASKS:
            rewrite_metadata(run_dir / f"{task}.ckpt", key, value)
        code, err, seconds = run_capped(command, *common_args(data_dir, run_dir))
        assert (code, "Traceback" in err) == (2, False), err[:1000]
        assert f"data error: checkpoint declares {declared} in" in err, err[:1000]
        # One short line, not one that lists each layer's missing tensors.
        [line] = err.splitlines()
        assert len(line) < 200, line[:1000]
        assert seconds < 5
        assert not SCORING_OUTPUTS & {p.name for p in run_dir.iterdir()}

    @pytest.mark.parametrize(
        "value, expected",
        [
            (
                "2147483648",
                "enc.d_model=64 and emoji_dim=2147483648 make fusion.w 2147483776x2147483776",
            ),
            ("-1", "emoji_dim must be >= 0, got -1"),
        ],
        ids=["2**31", "-1"],
    )
    def test_emoji_dim_without_emoji_table(self, data_dir, trained_dir, tmp_path, value, expected):
        """Without --emoji, scoring sizes each post's emoji vector by the
        header's emoji_dim."""
        run_dir = copy_run(trained_dir, tmp_path / "run")
        for task in ALL_TASKS:
            rewrite_metadata(run_dir / f"{task}.ckpt", "emoji_dim", value)
        args = common_args(data_dir, run_dir)
        flag = args.index("--emoji")
        del args[flag : flag + 2]
        code, err, seconds = run_capped("evaluate", *args)
        assert (code, "Traceback" in err) == (2, False), err[:1000]
        [line] = err.splitlines()
        assert line.startswith(f"data error: {run_dir / 'coarse.ckpt'}: {expected}"), line[:1000]
        assert seconds < 5
        assert not SCORING_OUTPUTS & {p.name for p in run_dir.iterdir()}


def truncate_tensors(path):
    """Cut the tensor records of the checkpoint at path in half, keeping
    its header whole."""
    blob = path.read_bytes()
    header = 16 + struct.unpack_from("<I", blob, 12)[0]
    path.write_bytes(blob[: header + (len(blob) - header) // 2])


class TestTruncatedTensors:
    """A checkpoint cut short after its header exits 2 naming the file."""

    def test_task_checkpoint(self, data_dir, trained_dir, tmp_path, capsys):
        run_dir = copy_run(trained_dir, tmp_path / "run")
        truncate_tensors(run_dir / "coarse.ckpt")
        assert run("evaluate", *common_args(data_dir, run_dir)) == 2
        err = capsys.readouterr().err
        assert err == f"data error: {run_dir / 'coarse.ckpt'}: truncated checkpoint\n"
        assert not SCORING_OUTPUTS & {p.name for p in run_dir.iterdir()}

    def test_tapt_checkpoint(self, data_dir, trained_dir, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "tapt.ckpt").write_bytes((trained_dir / "tapt.ckpt").read_bytes())
        truncate_tensors(out / "tapt.ckpt")
        assert run("finetune", *common_args(data_dir, out), "--tapt", "on", "--epochs", "1") == 2
        err = capsys.readouterr().err
        assert err == f"data error: {out / 'tapt.ckpt'}: truncated checkpoint\n"
        assert not (out / "coarse.init.ckpt").exists()


class TestDivergence:
    """A learning rate that makes training diverge is a bad setting, not
    a bug: one data-error line naming the rate, and no numpy warning."""

    @pytest.mark.parametrize(
        "command, flags, rate",
        [
            ("finetune", ["--lr", "1e6", "--epochs", "3"], "1000000.0"),
            ("tapt", ["--tapt-lr", "1e30"], "1e+30"),
        ],
    )
    def test_exits_2_naming_the_rate(self, data_dir, tmp_path, command, flags, rate):
        code, err, _ = run_capped(command, *common_args(data_dir, tmp_path / "out"), *flags)
        assert code == 2, err
        [line] = err.splitlines()
        assert line.startswith("data error: non-finite "), err
        assert line.endswith(f" at learning rate {rate}"), err


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

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_non_utf8_vocab_names_file_and_line(
        self, data_dir, trained_dir, tmp_path, capsys, command
    ):
        run_dir = copy_run(trained_dir, tmp_path / "run")
        vocab = run_dir / "vocab.txt"
        vocab.write_bytes(vocab.read_bytes().replace(b"\n", b"\n\xff", 1))
        assert run(command, *common_args(data_dir, run_dir)) == 2
        assert f"{vocab}: line 2: not valid UTF-8" in capsys.readouterr().err

    def test_zero_heads_checkpoint_is_data_error(self, data_dir, trained_dir, tmp_path, capsys):
        run_dir = copy_run(trained_dir, tmp_path / "run")
        meta, tensors = read_checkpoint(run_dir / "coarse.ckpt")
        meta["enc.n_heads"] = "0"
        (run_dir / "coarse.ckpt").write_bytes(checkpoint_bytes(meta, tensors))
        assert run("evaluate", *common_args(data_dir, run_dir)) == 2
        assert "n_heads must be >= 1" in capsys.readouterr().err

    def test_version_1_checkpoint_is_data_error(self, data_dir, trained_dir, tmp_path, capsys):
        run_dir = copy_run(trained_dir, tmp_path / "run")
        blob = (run_dir / "hate.ckpt").read_bytes()
        (run_dir / "hate.ckpt").write_bytes(blob[:8] + (1).to_bytes(4, "little") + blob[12:])
        assert run("evaluate", *common_args(data_dir, run_dir)) == 2
        assert "unsupported checkpoint version 1" in capsys.readouterr().err

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


@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_checkpoints_of_mixed_configs_are_data_error(
    command, data_dir, trained_dir, short_run_dir, tmp_path, capsys
):
    run_dir = copy_run(trained_dir, tmp_path / "run")
    assert (short_run_dir / "vocab.txt").read_bytes() == (run_dir / "vocab.txt").read_bytes()
    (run_dir / "coarse.ckpt").write_bytes((short_run_dir / "coarse.ckpt").read_bytes())
    assert run(command, *common_args(data_dir, run_dir)) == 2
    assert "fake.ckpt holds a model configured unlike coarse.ckpt" in capsys.readouterr().err
    written = {"metrics.txt", "metrics.kv", "predictions.tsv"} & {p.name for p in run_dir.iterdir()}
    assert not written


def record_loads(monkeypatch):
    """The stems of the task checkpoints that scoring loads, and the
    sizes of the blobs whose tensors are parsed, in call order."""
    import hostility.checkpoint
    import hostility.cli

    loads, parsed = [], []
    real_load, real_parse = hostility.cli.load_model, hostility.checkpoint.parse_checkpoint

    def load(path, vocab):
        loads.append(Path(path).stem)
        return real_load(path, vocab)

    def parse(blob):
        parsed.append(len(blob))
        return real_parse(blob)

    monkeypatch.setattr(hostility.cli, "load_model", load)
    monkeypatch.setattr(hostility.checkpoint, "parse_checkpoint", parse)
    return loads, parsed


SCORING_OUTPUTS = {"metrics.txt", "metrics.kv", "predictions.tsv"}


class TestTrainingPasses:
    @pytest.mark.parametrize(
        "command, extra, ckpt, bound",
        [
            ("tapt", ["--tapt-epochs", "2"], "tapt.ckpt", 10),
            ("finetune", ["--tapt", "on", "--epochs", "2"], "coarse.ckpt", 7.5),
        ],
    )
    def test_frees_each_step(self, command, extra, ckpt, bound, data_dir, trained_dir, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "tapt.ckpt").write_bytes((trained_dir / "tapt.ckpt").read_bytes())
        args = common_args(data_dir, run_dir)
        assert run(command, *args, *extra) == 0  # imports and caches before the measured run
        size = (run_dir / ckpt).stat().st_size
        tracemalloc.start()
        try:
            assert run(command, *args, *extra) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Traced peaks, in checkpoints' worth: tapt 7.6 (12.8 when each
        # step's graph lived on through the next step, with a gradient on
        # every op output), finetune 6.3 (8.7 with that and the previous
        # task's best-checkpoint blob).
        assert peak < bound * size


class TestTrainingStep:
    def test_one_step_peaks_under_1_8_parameter_sizes(
        self, trained_dir, fixture_posts, fixture_freq, fixture_emoji_table
    ):
        model, _ = load_model(trained_dir / "coarse.ckpt", Vocab.load(trained_dir / "vocab.txt"))
        posts = fixture_posts[:8]  # one batch of the desk profile
        batch = [extract_features(p.text, fixture_freq, fixture_emoji_table) for p in posts]
        targets = binary_targets(posts, COARSE)
        params = model.named_params()
        state = adam_init(params)
        rng = np.random.default_rng(0)

        def batch_loss(bundles):
            return cross_entropy(forward(model, bundles, rng), targets)

        train_epoch(params, state, 1e-3, [batch], batch_loss)  # gradients and moments exist
        tracemalloc.start()
        try:
            train_epoch(params, state, 1e-3, [batch], batch_loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Traced peak of one step, in parameter sizes: 1.69, the step's
        # graph, its gradients and Adam's two scratch arrays. It was 2.03
        # when the tape copied each gradient on first arrival and kept
        # each linear layer's pre-bias product, and Adam made a
        # temporary per operation.
        size = sum(p.data.nbytes for p in params.values())
        assert peak < 1.8 * size

    def test_paper_step_peaks_under_6_parameter_sizes(self, tmp_path):
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
        try:
            from workload_gen import write_inputs
        finally:
            sys.path.pop(0)
        write_inputs(tmp_path, "mixed", 16, 1)  # one batch of the paper profile
        posts = load_dataset(tmp_path / "posts.csv")
        freq, table = load_freq_dict(tmp_path / "freq.tsv"), load_emoji_table(tmp_path / "emoji.txt")
        batch = [extract_features(p.text, freq, table) for p in posts]
        vocab = Vocab.build([b.cleaned_text for b in batch] + [b.hashtag_flow for b in batch])
        config = FusionConfig(paper_config(len(vocab), max_len=32), emoji_dim=table.dim)
        model = init_model(config, vocab, COARSE, base_seed=0)
        targets = binary_targets(posts, COARSE)
        params = model.named_params()
        state = adam_init(params)
        rng = np.random.default_rng(0)

        def batch_loss(bundles):
            return cross_entropy(forward(model, bundles, rng), targets)

        train_epoch(params, state, 1e-5, [batch], batch_loss)  # gradients and moments exist
        tracemalloc.start()
        try:
            train_epoch(params, state, 1e-5, [batch], batch_loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Traced peak of one paper step, in parameter sizes: 5.76, most of
        # it the tape's activations. It was 6.14 when dropout and attention
        # kept a float copy of each bool mask and attention kept its
        # dropped probabilities beside the probabilities. The bound leaves
        # 4% over 5.76.
        size = sum(p.data.nbytes for p in params.values())
        assert peak < 6.0 * size


class TestScoringPasses:
    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_holds_one_model_at_a_time(self, command, data_dir, trained_dir, tmp_path):
        run_dir = copy_run(trained_dir, tmp_path / "run")
        args = common_args(data_dir, run_dir)
        assert run(command, *args) == 0  # imports and caches before the measured run
        size = (run_dir / "coarse.ckpt").stat().st_size
        tracemalloc.start()
        try:
            assert run(command, *args) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One model plus the blob it is parsed from is about 2 checkpoints'
        # worth (2.1 measured); five resident models would be about 6.
        assert peak < 3 * size

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    @pytest.mark.parametrize("fault", ["missing", "task", "config", "vocab"])
    def test_header_pass_refuses_before_any_tensor(
        self, command, fault, data_dir, trained_dir, short_run_dir, tmp_path, capsys, monkeypatch
    ):
        run_dir = copy_run(trained_dir, tmp_path / "run")
        last = run_dir / "defamation.ckpt"
        meta, tensors = read_checkpoint(last)
        if fault == "missing":
            last.unlink()
            expected = "checkpoint not found at"
        elif fault == "task":
            meta["task"] = "hate"
            last.write_bytes(checkpoint_bytes(meta, tensors))
            expected = "defamation.ckpt holds a 'hate' model, not 'defamation'"
        elif fault == "config":
            last.write_bytes((short_run_dir / "defamation.ckpt").read_bytes())
            expected = "defamation.ckpt holds a model configured unlike coarse.ckpt"
        else:
            meta["vocab_sha256"] = "0" * 64
            last.write_bytes(checkpoint_bytes(meta, tensors))
            expected = "defamation.ckpt: vocab hash mismatch"
        loads, parsed = record_loads(monkeypatch)
        assert run(command, *common_args(data_dir, run_dir)) == 2
        assert expected in capsys.readouterr().err
        assert loads == [] and parsed == []
        assert not SCORING_OUTPUTS & {p.name for p in run_dir.iterdir()}

    def test_checkpoint_replaced_between_passes(
        self, data_dir, trained_dir, short_run_dir, request, tmp_path, capsys, monkeypatch
    ):
        import hostility.cli

        real_read_metadata = hostility.cli.read_metadata
        # Another configuration (--max-len 16), then the same configuration
        # and vocab at another seed.
        for name, (base, other) in {
            "max_len": (trained_dir, short_run_dir),
            "seed": request.getfixturevalue("all_corpus_runs"),
        }.items():
            run_dir = copy_run(base, tmp_path / name)

            def read_then_replace_coarse(path):
                meta = real_read_metadata(path)
                if path.name == "defamation.ckpt":
                    (run_dir / "coarse.ckpt").write_bytes((other / "coarse.ckpt").read_bytes())
                return meta

            monkeypatch.setattr(hostility.cli, "read_metadata", read_then_replace_coarse)
            assert run("evaluate", *common_args(data_dir, run_dir)) == 2, name
            assert "coarse.ckpt changed after its header was read" in capsys.readouterr().err
            assert not SCORING_OUTPUTS & {p.name for p in run_dir.iterdir()}

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_missing_out_makes_no_directory(self, command, data_dir, tmp_path, capsys):
        out = tmp_path / "missing" / "out"
        assert run(command, *common_args(data_dir, out)) == 2
        assert "vocab file not found" in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_nan_in_last_model_scored(
        self, command, data_dir, trained_dir, tmp_path, capsys, monkeypatch
    ):
        run_dir = copy_run(trained_dir, tmp_path / "run")
        plant_in_last_value(run_dir / "defamation.ckpt", float("nan"))
        loads, _ = record_loads(monkeypatch)
        assert run(command, *common_args(data_dir, run_dir)) == 2
        assert "holds a non-finite value" in capsys.readouterr().err
        assert loads == list(ALL_TASKS)
        assert not SCORING_OUTPUTS & {p.name for p in run_dir.iterdir()}

    def test_predict_loads_every_model_with_no_hostile_post(
        self, data_dir, trained_dir, tmp_path, monkeypatch
    ):
        import hostility.cli

        run_dir = copy_run(trained_dir, tmp_path / "run")
        scored = []

        def non_hostile(model, posts):
            scored.append((model.task, len(posts)))
            return [(0, 0.25)] * len(posts)

        monkeypatch.setattr(hostility.cli, "predict_batch", non_hostile)
        loads, parsed = record_loads(monkeypatch)
        assert run("predict", *common_args(data_dir, run_dir)) == 0
        assert loads == list(ALL_TASKS) and len(parsed) == 5
        assert scored == [("coarse", 12)] + [(task, 0) for task in ALL_TASKS[1:]]
        lines = (run_dir / "predictions.tsv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 12 and all(line.endswith("\tnon-hostile") for line in lines)


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
        real_predict_batch = hostility.cli.predict_batch

        def recording_predict_batch(model, bundles):
            results = real_predict_batch(model, bundles)
            calls.extend((model.task, label) for label, _ in results)
            return results

        monkeypatch.setattr(hostility.cli, "predict_batch", recording_predict_batch)
        assert run("predict", *common_args(data_dir, trained_dir)) == 0
        coarse = [label for task, label in calls if task == "coarse"]
        assert len(coarse) == 12
        assert len(calls) == 12 + 4 * sum(coarse)
        lines = (trained_dir / "predictions.tsv").read_text(encoding="utf-8").splitlines()
        assert [line.endswith("\tnon-hostile") for line in lines] == [c == 0 for c in coarse]

    def test_multi_tag_lines_follow_fine_task_order(
        self, data_dir, trained_dir, tmp_path, monkeypatch
    ):
        import hostility.cli

        run_dir = copy_run(trained_dir, tmp_path / "run")
        # Fine models positive per post, cycling; the empty set falls back to
        # the most probable fine task, defamation here.
        positive = [
            {"defamation", "hate"},
            {"offensive", "defamation", "hate", "fake"},
            {"offensive", "fake"},
            set(),
        ]
        expected = [
            "hate|defamation",
            "fake|hate|offensive|defamation",
            "fake|offensive",
            "defamation",
        ]

        def every_post_hostile(model, posts):
            if model.task == "coarse":
                return [(1, 0.9)] * len(posts)
            return [
                (1, 0.9) if model.task in positive[i % 4]
                else (0, 0.4 if model.task == "defamation" else 0.1)
                for i in range(len(posts))
            ]

        monkeypatch.setattr(hostility.cli, "predict_batch", every_post_hostile)
        assert run("predict", *common_args(data_dir, run_dir)) == 0
        lines = (run_dir / "predictions.tsv").read_text(encoding="utf-8").splitlines()
        assert [line.split("\t")[1] for line in lines] == [expected[i % 4] for i in range(12)]

    def test_checkpoint_in_wrong_task_slot(self, data_dir, trained_dir, tmp_path, capsys):
        run_dir = copy_run(trained_dir, tmp_path / "run")
        meta, tensors = read_checkpoint(run_dir / "coarse.ckpt")
        assert meta["task"] == "coarse"
        meta["task"] = "hate"
        (run_dir / "coarse.ckpt").write_bytes(checkpoint_bytes(meta, tensors))
        assert run("predict", *common_args(data_dir, run_dir)) == 2
        assert "holds a 'hate' model, not 'coarse'" in capsys.readouterr().err
        assert not (run_dir / "predictions.tsv").exists()

    def test_crash_mid_write_keeps_previous_predictions(
        self, data_dir, trained_dir, tmp_path, monkeypatch
    ):
        run_dir = copy_run(trained_dir, tmp_path / "run")
        (run_dir / "predictions.tsv").write_bytes(b"t1\tfake\n")
        before = sorted(p.name for p in run_dir.iterdir())

        def half_write_text(self, text, encoding=None):
            with open(self, "w", encoding=encoding) as fh:
                fh.write(text[: len(text) // 2])
            raise OSError("no space left on device")

        monkeypatch.setattr(Path, "write_text", half_write_text)
        assert run("predict", *common_args(data_dir, run_dir)) == 2
        assert (run_dir / "predictions.tsv").read_bytes() == b"t1\tfake\n"
        assert sorted(p.name for p in run_dir.iterdir()) == before

    def test_works_on_unlabeled_rows(self, data_dir, trained_dir, tmp_path):
        data = tmp_path / "unlabeled.csv"
        data.write_text("id,text,labels\nu1,yeh sach hai,\n", encoding="utf-8")
        args = common_args(data_dir, trained_dir)
        args[1] = str(data)
        assert run("predict", *args) == 0
        line = (trained_dir / "predictions.tsv").read_text(encoding="utf-8").strip()
        pid, tags = line.split("\t")
        assert pid == "u1" and tags

    def test_no_posts_give_an_empty_file(self, data_dir, trained_dir, tmp_path):
        run_dir = copy_run(trained_dir, tmp_path / "run")
        data = tmp_path / "header_only.csv"
        data.write_text("id,text,labels\n", encoding="utf-8")
        args = common_args(data_dir, run_dir)
        args[1] = str(data)
        assert run("predict", *args) == 0
        assert (run_dir / "predictions.tsv").read_bytes() == b""


class TestWriteArtifact:
    def test_writes_bytes_text_and_through_a_writer(self, tmp_path):
        path = tmp_path / "a.ckpt"
        _write_artifact(path, b"\x00\xffckpt")
        assert path.read_bytes() == b"\x00\xffckpt"
        _write_artifact(path, "sach\n")
        assert path.read_bytes() == "sach\n".encode("utf-8")
        _write_artifact(path, lambda tmp: tmp.write_bytes(b"via writer"))
        assert path.read_bytes() == b"via writer"
        assert [p.name for p in tmp_path.iterdir()] == ["a.ckpt"]

    def test_write_failing_halfway_leaves_old_file(self, tmp_path):
        path = tmp_path / "coarse.ckpt"
        old = checkpoint_bytes({"task": "coarse"}, {"w": np.ones(8, dtype=np.float32)})
        path.write_bytes(old)
        new = checkpoint_bytes({"task": "coarse"}, {"w": np.zeros(8, dtype=np.float32)})

        def fail_halfway(tmp):
            with open(tmp, "wb") as fh:
                fh.write(new[: len(new) // 2])
                raise OSError("no space left on device")

        with pytest.raises(OSError, match="no space left"):
            _write_artifact(path, fail_halfway)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["coarse.ckpt"]
