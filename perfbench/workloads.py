"""The benchmark workloads: train, infer and paper_forward.

The two CLI workloads run the real `hostility` commands as child
processes, one at a time (a closed loop with one client), and time each
from outside; peak RSS comes from os.wait4. paper_forward calls the
library in this process. A traced run instead makes three in-process
passes over the same work through hostility.cli.main (a warm-up, an
untraced pass and one under a layer_trace.Tracer) and reports per-layer
metrics and the tracing overhead.

Reported times are in reference seconds. Every timed sample runs between
two calls of a fixed loop of small numpy operations (reference_s); the
host's speed over a run is REF_S over the loop's median time, and a
figure is the median of its wall-time samples scaled by that speed. On a
shared host the speed of a CPU drifts by a third over minutes as other
tenants come and go, so a whole run can fall in a slow phase; the loop,
made of the same kind of small array operations as the package, slows
with it, and the scaled figure keeps what the code costs. On a host at
the speed REF_S was taken at, a reference second is a wall second.
Wall-time figures are printed beside the scaled ones.

Run as a script, this module measures one paper-profile set-up in a
fresh process: python3 perfbench/workloads.py paper-setup INPUTS_DIR SEED
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, TypeVar

import output_checks as checks
import workload_gen
from layer_trace import Tracer

T = TypeVar("T")
TASKS = checks.TASKS
COMMAND_TIMEOUT_S = 150
REF_LOOPS = 5000
REF_S = 0.045  # about reference_s() on a 2-CPU Xeon VM, Python 3.11, numpy 2.4
SETUP_REPEATS = 9  # one-post predict runs behind setup_s
IMPORT_REPEATS = 3  # `import hostility.cli` runs behind cli.import_s

TRAIN_POSTS = 100
TRAIN_MAX_LEN = 64
# One epoch on 80 posts is ten optimizer steps per task: at the desk
# default 1e-3 the coarse model often still predicts one class.
TRAIN_LR = "0.003"
# Coarse validation macro F1 after that epoch must reach this. Always
# predicting one class scores about 0.35; seeds 1-30 score 0.56 or more.
TRAIN_F1_FLOOR = 0.45
# Artifacts for infer: trained once per source tree on posts
# of the workload's own kind, from a seed no run uses.
MODEL_POSTS = 400
MODEL_EPOCHS = 2
MODEL_SEED = 1_000_003
PAPER_POSTS = 300
PAPER_SETUP_PROBES = 3  # fresh-process set-ups besides the one in this process
# Short and long posts behind the two rates: one whole cycle of the
# generator's word counts each (8..30 and 110..114), so their total length
# is the same for every seed.
PAPER_TIMED_POSTS = (23, 5)
PAPER_LONG_POSTS = PAPER_TIMED_POSTS[1]
PAPER_TRACE_POSTS = (4, 1)  # short and long posts in a traced pass


def host_speed(refs: list[float]) -> float:
    """The host's speed while refs were taken: 1.0 where the reference loop
    takes REF_S, 0.5 where it takes twice as long."""
    return REF_S / statistics.median(refs)


def reference_s() -> float:
    """Wall time of a fixed loop of small matmul, add and tanh calls, the
    yardstick of host speed."""
    import numpy as np

    a = np.ones((16, 64))
    w = np.full((64, 64), 0.01)
    start = time.perf_counter()
    for _ in range(REF_LOOPS):
        a = np.tanh(a @ w + 0.1)
    return time.perf_counter() - start


def source_digest(root: Path) -> str:
    """sha256 of every .py file under root/src, keyed by relative path."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


class SetupError(Exception):
    """The benchmark could not prepare its inputs or artifacts."""


@dataclass
class Ops:
    """Operations attempted and failed, with the problems found."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]
        return not problems


@dataclass
class Cmd:
    code: int
    seconds: float
    output: str

    def problems(self) -> list[str]:
        if self.code == 0:
            return []
        return [f"exit code {self.code}: {self.output.strip()[-400:]}"]


@dataclass
class Result:
    """What a workload run reports: metrics plus named figures for people."""

    metrics: dict[str, float]
    named: dict[str, tuple[float, str]] = field(default_factory=dict)


class Bench:
    """One run of one workload inside a checkout."""

    def __init__(self, root: Path, work: Path, seed: int, seconds: float):
        self.root = root
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.ops = Ops()
        self.inputs_props: dict[str, dict] = {}
        self.peak_rss_mb = 0.0
        # Samples behind the reported figures, for the run's report.
        self.refs: list[float] = []  # reference_s() samples
        self.notes: dict[str, list] = {}
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self._n_cmd = 0
        (work / "logs").mkdir(parents=True, exist_ok=True)

    # -- inputs -----------------------------------------------------------

    def inputs(self, kind: str, n_posts: int, name: str = "inputs", seed: int | None = None) -> Path:
        path = self.work / name
        props = workload_gen.write_inputs(path, kind, n_posts, self.seed if seed is None else seed)
        self.inputs_props[name] = {"kind": kind, **props}
        return path

    @staticmethod
    def argv(inputs: Path, out: Path, max_len: int, seed: int, data: str = "posts.csv") -> list[str]:
        return [
            "--data", str(inputs / data), "--dict", str(inputs / "freq.tsv"),
            "--emoji", str(inputs / "emoji.txt"), "--out", str(out),
            "--profile", "desk", "--seed", str(seed), "--max-len", str(max_len),
        ]

    # -- timed commands ---------------------------------------------------

    def cli(self, command: str, argv: list[str], timed: bool = True) -> Cmd:
        """Run one CLI command as a child process, timed from outside;
        a timed command counts towards peak RSS."""
        self._n_cmd += 1
        log = self.work / "logs" / f"{self._n_cmd:03d}-{command}.txt"
        waited = {}

        def run() -> float:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "hostility", command, *argv],
                stdin=subprocess.DEVNULL, stdout=fh, stderr=subprocess.STDOUT,
                env=self.env, cwd=self.root,
            )
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, waited["status"], waited["usage"] = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            return time.perf_counter() - start

        with open(log, "w+", encoding="utf-8") as fh:
            seconds = self.timed(run) if timed else run()
            fh.seek(0)
            output = fh.read()
        if timed:
            self.peak_rss_mb = max(self.peak_rss_mb, waited["usage"].ru_maxrss / 1024)
        return Cmd(os.waitstatus_to_exitcode(waited["status"]), seconds, output)

    def iterations(self, minimum: int = 2):
        """Yield iteration numbers until the run has used its seconds,
        stopping where the next iteration would overrun by more than half."""
        start = time.perf_counter()
        n = 0
        while True:
            yield n
            n += 1
            elapsed = time.perf_counter() - start
            if self.ops.failed or (n >= minimum and elapsed + 0.5 * elapsed / n > self.seconds):
                return

    def timed(self, run: Callable[[], T]) -> T:
        """Call run, which times itself, between two reference loops."""
        self.refs.append(reference_s())
        result = run()
        self.refs.append(reference_s())
        return result

    def setup_wall_s(self, inputs: Path, out: Path, max_len: int) -> tuple[float, list[float]]:
        """Median wall time of `predict` on a one-post file against the
        artifacts in out: process start, imports and loading everything.
        Also returns the reference loop times taken around those runs."""
        first_ref = len(self.refs)
        with open(inputs / "posts.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[:2]
        workload_gen.write_posts(inputs / "one.csv", rows[1:])
        argv = self.argv(inputs, out, max_len, self.seed, data="one.csv")
        times = []
        for _ in range(SETUP_REPEATS):
            r = self.cli("predict", argv)
            problems = r.problems() or checks.check_predictions(out / "predictions.tsv", [rows[1][0]])
            self.ops.record("one-post predict", problems)
            times.append(r.seconds)
        self.notes["setup_samples_s"] = times
        return statistics.median(times), self.refs[first_ref:]

    # -- artifacts for the inference workloads ----------------------------

    def trained_models(self, kind: str, max_len: int) -> Path:
        """vocab.txt and five checkpoints trained by this source tree on
        MODEL_POSTS posts of the given kind; built once, then reused."""
        digest = hashlib.sha256(source_digest(self.root).encode())
        digest.update(Path(workload_gen.__file__).read_bytes())
        digest.update(f"{kind}:{max_len}:{MODEL_POSTS}:{MODEL_EPOCHS}:{MODEL_SEED}".encode())
        cache = self.root / ".perfbench_work" / "models" / f"{kind}-{digest.hexdigest()[:16]}"
        if cache.is_dir():
            return cache
        inputs = self.inputs(kind, MODEL_POSTS, name="model_inputs", seed=MODEL_SEED)
        tmp = cache.with_name(f"{cache.name}.tmp{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        argv = self.argv(inputs, tmp, max_len, MODEL_SEED)
        r = self.cli("finetune", argv + ["--tapt", "off", "--epochs", str(MODEL_EPOCHS)], timed=False)
        problems = r.problems() or checks.check_checkpoints_load(tmp, [f"{t}.ckpt" for t in TASKS])
        if problems:
            raise SetupError(f"training the {kind} artifacts failed: {problems}")
        for p in tmp.iterdir():
            if p.name != "vocab.txt" and p.name not in {f"{t}.ckpt" for t in TASKS}:
                p.unlink()
        try:
            tmp.rename(cache)
        except OSError:  # another run finished first
            shutil.rmtree(tmp, ignore_errors=True)
        return cache

    def copy_models(self, models: Path, out: Path) -> None:
        out.mkdir(parents=True, exist_ok=True)
        for p in models.iterdir():
            shutil.copyfile(p, out / p.name)


def _median(values):
    return statistics.median(values) if values else 0.0


def _maskable_lines(out: Path, max_len: int) -> int:
    """Adaptation corpus lines with at least one maskable token: the lines
    TAPT trains on."""
    from hostility.encoder import N_SPECIALS, Vocab, encode_ids

    vocab = Vocab.load(out / "vocab.txt")
    lines = (out / "tapt_corpus.txt").read_text(encoding="utf-8").splitlines()
    return sum(
        any(t >= N_SPECIALS for t in encode_ids(vocab, line.split("\t", 1)[1], max_len))
        for line in lines
    )


def _train_split_size(inputs: Path, seed: int) -> int:
    from hostility.preprocess import load_dataset
    from hostility.traineval import SplitSpec, split_dataset

    train, _ = split_dataset(load_dataset(inputs / "posts.csv"), SplitSpec(seed=seed))
    return len(train)


def _train_artifacts_problems(out: Path, notes: dict) -> list[str]:
    problems = checks.check_trace(out / "tapt_loss.csv", f1_column=False)
    problems += checks.check_finetune_outputs(out)
    names = [f"{t}{suffix}" for t in TASKS for suffix in (".ckpt", ".init.ckpt")]
    problems += checks.check_checkpoints_load(out, names)
    if not problems:
        f1 = checks.best_f1(out / "coarse_trace.csv")
        notes.setdefault("coarse_val_macro_f1", []).append(f1)
        if f1 < TRAIN_F1_FLOOR:
            problems.append(f"coarse val macro F1 {f1:.4f} below the floor {TRAIN_F1_FLOOR}")
    return problems


# ---------------------------------------------------------------------------
# Untraced CLI workloads
# ---------------------------------------------------------------------------


@dataclass
class Step:
    """One timed CLI command of a workload iteration."""

    command: str
    argv: list[str]
    items: Callable[[], float]  # work one run does: posts, examples, lines
    check: Callable[[], list[str]]  # problems in the run's output
    # Runs per iteration: a short command runs more often, so that each
    # step gets a similar share of the measured time and of samples.
    repeats: int = 1
    fresh_out: bool = False  # empty the output directory before the first run


def _loop(b: Bench, out: Path, steps: list[Step], digest_names=None) -> list[list[float]]:
    """Run the steps once per iteration and return each step's rates, one
    per run. The digest_names files in out (all files by default) must
    hash the same after every iteration."""
    rates = [[] for _ in steps]  # items per wall second
    first = None
    for _ in b.iterations():
        for step, step_rates in zip(steps, rates):
            if step.fresh_out:
                shutil.rmtree(out, ignore_errors=True)
            for _ in range(step.repeats):
                r = b.cli(step.command, step.argv)
                if b.ops.record(step.command, r.problems() or step.check()):
                    step_rates.append(step.items() / r.seconds)
        if b.ops.failed:
            break
        digests = checks.file_digests(out, digest_names)
        if first is None:
            first = digests
        else:
            b.ops.record("rerun", checks.check_same_digests(first, digests))
    for step, samples in zip(steps, rates):
        b.notes[f"{step.command}_rates"] = samples
    return rates


def _result(b: Bench, stage1: float, stage2: float, setup: tuple[float, list[float]], names) -> Result:
    """Scale the median wall-time rates of a run by the host's speed over
    the run, and its median set-up time by the speed over the set-up
    samples, which run together at one end of the run. names gives the
    two stages' names and units for people; their wall-time figures are
    printed beside them."""
    speed = host_speed(b.refs)
    setup, setup_refs = setup
    b.notes["reference_s"] = b.refs
    rates = (stage1 / speed, stage2 / speed)
    named = {"host_speed": (speed, "ratio")}
    for (name, unit), rate, wall in zip(names, rates, (stage1, stage2)):
        named[name] = (rate, unit.replace("/s", "/ref_s"))
        named[f"{name}.wall"] = (wall, unit)
    named["setup_s.wall"] = (setup, "s")
    metrics = {"stage1_items_per_s": rates[0], "stage2_items_per_s": rates[1],
               "setup_s": setup * host_speed(setup_refs)}
    return Result(metrics, named)


def run_train(b: Bench) -> Result:
    inputs = b.inputs("short", TRAIN_POSTS)
    out = b.work / "out"
    argv = b.argv(inputs, out, TRAIN_MAX_LEN, b.seed)
    n_train = _train_split_size(inputs, b.seed)
    tapt_rates, ft_rates = _loop(b, out, [
        Step("tapt", argv + ["--tapt-epochs", "1"], lambda: _maskable_lines(out, TRAIN_MAX_LEN),
             lambda: checks.check_trace(out / "tapt_loss.csv", f1_column=False),
             repeats=3, fresh_out=True),
        Step("finetune", argv + ["--tapt", "on", "--epochs", "1", "--lr", TRAIN_LR],
             lambda: len(TASKS) * n_train, lambda: _train_artifacts_problems(out, b.notes)),
    ])
    setup = b.setup_wall_s(inputs, out, TRAIN_MAX_LEN)
    return _result(b, _median(tapt_rates), _median(ft_rates), setup,
                   [("tapt_seq_per_s", "seq/s"), ("finetune_ex_per_s", "examples/s")])


# 46 posts are two whole cycles of the generator's 23 word counts, so the
# work per command is nearly the same for every seed; 3 of them (every 12th)
# carry a hashtag that runs to the tweet limit. Short commands give many
# samples per run.
INFER_KIND = "mixed"
INFER_POSTS = 46
INFER_MAX_LEN = 64
INFER_OUTPUTS = ["metrics.kv", "metrics.txt", "predictions.tsv"]  # same after every iteration


def run_infer(b: Bench) -> Result:
    models = b.trained_models(INFER_KIND, INFER_MAX_LEN)
    inputs = b.inputs(INFER_KIND, INFER_POSTS)
    out = b.work / "out"
    b.copy_models(models, out)
    argv = b.argv(inputs, out, INFER_MAX_LEN, b.seed)
    ids = checks.read_ids(inputs / "posts.csv")
    eval_rates, pred_rates = _loop(b, out, [
        Step("evaluate", argv, lambda: len(ids),
             lambda: checks.check_metrics_kv(out / "metrics.kv", len(ids))),
        Step("predict", argv, lambda: len(ids),
             lambda: checks.check_predictions(out / "predictions.tsv", ids)),
    ], INFER_OUTPUTS)
    setup = b.setup_wall_s(inputs, out, INFER_MAX_LEN)
    return _result(b, _median(eval_rates), _median(pred_rates), setup,
                   [("evaluate_posts_per_s", "posts/s"), ("predict_posts_per_s", "posts/s")])


# ---------------------------------------------------------------------------
# paper_forward: the library at paper scale
# ---------------------------------------------------------------------------


def _paper_inputs(b: Bench) -> Path:
    inputs = b.inputs("short", PAPER_POSTS)
    rows = workload_gen.generate_posts("long", PAPER_LONG_POSTS, b.seed, prefix="l")
    workload_gen.write_posts(inputs / "long.csv", rows)
    b.inputs_props["long_posts"] = {"kind": "long", **workload_gen.properties(rows)}
    return inputs


def _paper_model_parts(inputs: Path):
    """Bundles of the short and long posts and a coarse-task fusion config
    on the paper profile, with a vocab built from those posts."""
    from hostility.encoder import Vocab, paper_config
    from hostility.fusion import FusionConfig
    from hostility.preprocess import extract_features, load_dataset, load_emoji_table, load_freq_dict

    freq = load_freq_dict(inputs / "freq.tsv")
    table = load_emoji_table(inputs / "emoji.txt")
    short = [extract_features(p.text, freq, table) for p in load_dataset(inputs / "posts.csv")]
    long = [extract_features(p.text, freq, table) for p in load_dataset(inputs / "long.csv")]
    vocab = Vocab.build([x.cleaned_text for x in short + long] + [x.hashtag_flow for x in short + long])
    config = FusionConfig(encoder=paper_config(len(vocab)), emoji_dim=table.dim)
    return short, long, vocab, config


def _paper_setup(inputs: Path, seed: int):
    """Time init_model plus the first predict call. Returns the model,
    those seconds, the first result, and the short and long bundles."""
    from hostility.fusion import init_model, predict

    short, long, vocab, config = _paper_model_parts(inputs)
    start = time.perf_counter()
    model = init_model(config, vocab, "coarse", None, base_seed=seed)
    first = predict(model, short[0])
    return model, time.perf_counter() - start, first, short, long


def _prediction_problems(result) -> list[str]:
    label, prob = result
    if label not in (0, 1) or not (math.isfinite(prob) and 0 <= prob <= 1):
        return [f"bad prediction {result!r}"]
    if label != (1 if prob >= 0.5 else 0):
        return [f"label {label} disagrees with probability {prob}"]
    return []


def _predict_rate(b: Bench, model, posts, seconds: float, name: str) -> float:
    """Median wall-time rate, in posts per second, of fusion.predict over
    posts, in passes made for the given seconds (at least three). Every
    pass must give the same predictions."""
    from hostility.fusion import predict

    rates, first = [], None
    start = time.perf_counter()
    while len(rates) < 3 or time.perf_counter() - start < seconds:
        results = []

        def run() -> float:
            t = time.perf_counter()
            results.extend(predict(model, x) for x in posts)
            return time.perf_counter() - t

        rates.append(len(posts) / b.timed(run))
        for result in results:
            b.ops.record("predict", _prediction_problems(result))
        if first is None:
            first = results
        else:
            b.ops.record("rerun", [] if results == first else ["predictions differ between passes"])
    b.notes[f"{name}_rates"] = rates
    return statistics.median(rates)


def run_paper_forward(b: Bench) -> Result:
    inputs = _paper_inputs(b)
    setups, firsts, first_ref = [], [], len(b.refs)

    def probe() -> float:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "paper-setup", str(inputs), str(b.seed)],
            stdin=subprocess.DEVNULL, capture_output=True, text=True, env=b.env, cwd=b.root,
            timeout=COMMAND_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise SetupError(f"paper set-up probe failed: {proc.stderr.strip()[-400:]}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        firsts.append(tuple(report["first"]))
        return report["setup_s"]

    for _ in range(PAPER_SETUP_PROBES):
        setups.append(b.timed(probe))
    model, seconds, first, short, long = b.timed(lambda: _paper_setup(inputs, b.seed))
    setups.append(seconds)
    setup = statistics.median(setups), b.refs[first_ref:]
    b.notes["setup_samples_s"] = setups
    b.ops.record("first predict", _prediction_problems(first))
    firsts.append(first)
    b.ops.record("rerun", [] if len(set(firsts)) == 1 else [f"first predictions differ: {firsts}"])
    rates = [
        _predict_rate(b, model, short[: PAPER_TIMED_POSTS[0]], b.seconds / 2, "predict"),
        _predict_rate(b, model, long, b.seconds / 2, "predict_long"),
    ]
    b.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return _result(b, rates[0], rates[1], setup,
                   [("predict_posts_per_s", "posts/s"), ("predict_long_posts_per_s", "posts/s")])


# ---------------------------------------------------------------------------
# Traced passes
# ---------------------------------------------------------------------------


def _in_process(b: Bench, commands, tracer: Tracer | None = None) -> float:
    """Run CLI commands through hostility.cli.main in this process, under
    tracer if given, and return the wall time. Output checks run after
    the timed (and traced) part; each command is one op."""
    import hostility.cli

    outcomes = []
    with tracer.installed() if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        for argv, _ in commands:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                outcomes.append((hostility.cli.main(argv), buf.getvalue()))
        wall = time.perf_counter() - start
    for (argv, check), (code, output) in zip(commands, outcomes):
        b.ops.record(argv[0], [f"exit code {code}: {output[-400:]}"] if code else check())
    return wall


def _traced_cli(b: Bench, make_commands, prepare, digest_names=None) -> dict[str, float]:
    """Three in-process passes over the same commands: a warm-up, an
    untraced pass and a traced one, each in its own output directory.
    The warm-up absorbs first-call costs (BLAS thread start-up among them)
    that would otherwise land on whichever timed pass came first. All
    three must write identical artifacts."""
    walls, digests = [], []
    tracer = Tracer()
    for name in ("warmup", "untraced", "traced"):
        out = b.work / name
        prepare(out)
        walls.append(_in_process(b, make_commands(out), tracer if name == "traced" else None))
        digests.append(checks.file_digests(out, digest_names))
    for again in digests[1:]:
        b.ops.record("rerun", checks.check_same_digests(digests[0], again))
    return _with_overhead(b, tracer.metrics(), walls[1:])


def _with_overhead(b: Bench, metrics: dict[str, float], walls) -> dict[str, float]:
    metrics["cli.import_s"] = _import_s(b)
    metrics["trace.untraced_s"], metrics["trace.traced_s"] = walls
    metrics["trace.overhead_ratio"] = walls[1] / walls[0]
    return metrics


def _import_s(b: Bench) -> float:
    times = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import hostility.cli"], env=b.env, cwd=b.root,
                       stdin=subprocess.DEVNULL, check=True, timeout=COMMAND_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return min(times)


def trace_train(b: Bench) -> dict[str, float]:
    inputs = b.inputs("short", TRAIN_POSTS)

    def commands(out):
        argv = b.argv(inputs, out, TRAIN_MAX_LEN, b.seed)
        return [
            (["tapt", *argv, "--tapt-epochs", "1"],
             lambda: checks.check_trace(out / "tapt_loss.csv", f1_column=False)),
            (["finetune", *argv, "--tapt", "on", "--epochs", "1", "--lr", TRAIN_LR],
             lambda: _train_artifacts_problems(out, b.notes)),
        ]

    return _traced_cli(b, commands, lambda out: shutil.rmtree(out, ignore_errors=True))


def trace_infer(b: Bench) -> dict[str, float]:
    models = b.trained_models(INFER_KIND, INFER_MAX_LEN)
    inputs = b.inputs(INFER_KIND, INFER_POSTS)
    ids = checks.read_ids(inputs / "posts.csv")

    def commands(out):
        argv = b.argv(inputs, out, INFER_MAX_LEN, b.seed)
        return [
            (["evaluate", *argv], lambda: checks.check_metrics_kv(out / "metrics.kv", len(ids))),
            (["predict", *argv], lambda: checks.check_predictions(out / "predictions.tsv", ids)),
        ]

    return _traced_cli(b, commands, lambda out: b.copy_models(models, out), INFER_OUTPUTS)


def trace_paper_forward(b: Bench) -> dict[str, float]:
    import gc

    import hostility.fusion as fusion

    inputs = _paper_inputs(b)
    short, long, vocab, config = _paper_model_parts(inputs)
    n_short, n_long = PAPER_TRACE_POSTS
    posts = short[:n_short] + long[:n_long]
    walls, outputs = [], []
    tracer = Tracer()
    # A warm-up, an untraced and a traced pass, as in _traced_cli.
    for name in ("warmup", "untraced", "traced"):
        with tracer.installed() if name == "traced" else contextlib.nullcontext():
            start = time.perf_counter()
            # Module attributes, so the traced pass reaches the wrappers.
            model = fusion.init_model(config, vocab, "coarse", None, base_seed=b.seed)
            results = [fusion.predict(model, x) for x in posts]
            walls.append(time.perf_counter() - start)
        del model
        gc.collect()
        for r in results:
            b.ops.record("predict", _prediction_problems(r))
        outputs.append(results)
    for again in outputs[1:]:
        b.ops.record("rerun", [] if again == outputs[0] else ["predictions differ between passes"])
    return _with_overhead(b, tracer.metrics(direct_predict_posts=len(posts)), walls[1:])


WORKLOADS = {
    "train": (run_train, trace_train),
    "infer": (run_infer, trace_infer),
    "paper_forward": (run_paper_forward, trace_paper_forward),
}


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] != "paper-setup":
        sys.exit("usage: workloads.py paper-setup INPUTS_DIR SEED")
    _, seconds, first, _, _ = _paper_setup(Path(sys.argv[2]), int(sys.argv[3]))
    print(json.dumps({"setup_s": seconds, "first": list(first)}))
