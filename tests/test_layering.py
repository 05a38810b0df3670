"""The package's import layers: each module imports only from earlier
layers, so the modules of one layer never import each other. Also the
call signatures and results that tools outside the package rely on, a
ceiling on the package's settable values, the one training loop, the one
linear op, the one row gather, the one dropout-mask draw, the one fused
input and the one corpus-and-vocab step."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hostility"
LAYERS = (
    ("errors",),
    ("numeric", "checkpoint", "preprocess"),
    ("encoder",),
    ("tapt", "fusion"),
    ("traineval",),
    ("cli",),
)
RANK = {module: rank for rank, layer in enumerate(LAYERS) for module in layer}
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem not in ("__init__", "__main__"))


def relative_imports(module: str) -> set[str]:
    """The package modules that a module imports with `from .x import`
    or `from . import x`."""
    imported = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                imported.add(node.module.split(".")[0])
            else:
                imported.update(alias.name for alias in node.names)
    return imported


def test_every_module_has_a_layer():
    assert MODULES and set(MODULES) == set(RANK)


@pytest.mark.parametrize("module", MODULES)
def test_imports_only_from_earlier_layers(module):
    later = sorted(m for m in relative_imports(module) if RANK[m] >= RANK[module])
    assert not later, f"{module} (layer {RANK[module]}) imports {later}"


# The calls perfbench/layer_trace.py counts as training, with the
# position of the dropout generator that marks them.
TRAINING_FLAG = {"fusion.forward": 2, "encoder.mlm_loss": 4}


@pytest.mark.parametrize("function, index", TRAINING_FLAG.items())
def test_training_flag_position(function, index):
    """perfbench/layer_trace.py counts a call as training when the
    argument at this position is truthy: a generator is, None is not.
    So `rng` must sit there."""
    module, name = function.split(".")
    fn = getattr(importlib.import_module(f"hostility.{module}"), name)
    assert list(inspect.signature(fn).parameters).index("rng") == index


def test_training_flag_passed_by_position():
    """layer_trace reads `training` by keyword before it reads the
    position, so a package call that passed `rng=` would count as
    inference, and one that passed `training=` would shadow the
    generator."""
    names = {function.split(".")[1] for function in TRAINING_FLAG}
    by_keyword = sorted(
        f"{path.stem}:{node.lineno}"
        for path, _, node in calls(names)
        if any(kw.arg in ("rng", "training") for kw in node.keywords)
    )
    assert not by_keyword, by_keyword


def test_load_model_returns_the_metadata(tmp_path):
    """perfbench/output_checks.py (check_checkpoints_load) loads each
    task checkpoint through fusion.load_model, and perfbench/layer_trace.py
    (_after_load_model) unpacks its result as (model, metadata). So
    load_model returns the file's whole header beside the model."""
    from hostility.checkpoint import read_metadata
    from hostility.encoder import EncoderConfig, Vocab
    from hostility.fusion import FusionConfig, init_model, load_model, model_to_bytes

    vocab = Vocab.build(["yeh sach hai"])
    enc = EncoderConfig(vocab_size=len(vocab), d_model=8, n_layers=1, n_heads=2, d_ff=16, max_len=8, shared_layers=False)
    model = init_model(FusionConfig(enc, emoji_dim=4, mlp_hidden=(4,)), vocab, "hate", base_seed=0)
    path = tmp_path / "hate.ckpt"
    path.write_bytes(model_to_bytes(model, extra={"seed": "0"}))
    loaded, metadata = load_model(path, vocab)
    assert loaded.task == "hate"
    assert metadata == read_metadata(path)


# Defaulted function parameters plus defaulted dataclass fields in the
# package. Each default is declared once: run settings by the CLI, the
# rest as module constants, so this count should only fall.
SETTABLE_VALUES = 15


def settable_values() -> list[str]:
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults) :]
                defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
                name = getattr(node, "name", "<lambda>")
                found += [f"{path.stem}.{name}({a.arg})" for a in defaulted]
            elif isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list
            ):
                found += [
                    f"{path.stem}.{node.name}.{stmt.target.id}"
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                ]
    return found


def test_settable_values_do_not_grow():
    found = settable_values()
    assert len(found) <= SETTABLE_VALUES, "\n".join(found)


def calls(names):
    """(path, top-level statement, call node) of each call in the package
    of any of names, by name or as an attribute."""
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    fn = node.func
                    name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                    if name in names:
                        yield path, stmt, node


def callers(names) -> set[str]:
    """module.name of each top-level function or class of the package
    (module.<module> for other top-level code) that calls any of names."""
    return {f"{path.stem}.{getattr(stmt, 'name', '<module>')}" for path, stmt, _ in calls(names)}


# The one training loop: the only function that backpropagates and steps
# the optimizer, so per-step work is written once for TAPT and fine-tuning.
TRAINING_LOOP = "numeric.train_epoch"


def test_one_training_loop():
    assert callers(("backward", "adam_step")) == {TRAINING_LOOP}


# One linear op: every layer runs x @ w + b as numeric.linear, which
# keeps no pre-bias product on the tape. matmul and add_bias stay in
# numeric for the tests that check each op alone.
def test_one_linear_op():
    assert callers(("matmul", "add_bias")) == set()


# One row gather: an embedding lookup is numeric.gather_rows under a
# second name, not a second body.
def test_one_row_gather():
    numeric = importlib.import_module("hostility.numeric")
    assert numeric.embedding_lookup is numeric.gather_rows


# One dropout-mask draw: within numeric, dropout and attention both draw
# their mask through one helper, which checks p and keeps the draw as bool.
DROPOUT_MASK = "numeric._dropout_mask"


def test_one_dropout_mask_draw():
    assert {c for c in callers(("random",)) if c.startswith("numeric.")} == {DROPOUT_MASK}


# One fused input: training and scoring build the fusion-layer input in
# one function and differ only in how each encoder pools.
FUSED_INPUT = "fusion._fused_input"


def test_one_fused_input():
    assert callers(("_token_ids",)) == {FUSED_INPUT}


# One parse per post: only preprocess tokenizes, cleans and segments a
# post; every other module reads the cleaned text and hashtag flow from
# the post's FeatureBundle.
PARSERS = ("tokenize_raw", "clean_text", "segment_hashtag", "hashtag_flow")


def test_one_parse_per_post():
    outside = sorted(c for c in callers(PARSERS) if not c.startswith("preprocess."))
    assert not outside, outside


# One corpus-and-vocab step: tapt and finetune --tapt on must derive the
# same vocab from the same posts, so only this function picks the corpus
# posts, builds the TAPT corpus and builds the vocab.
CORPUS_AND_VOCAB = "cli._corpus_and_vocab"


def test_one_corpus_and_vocab_step():
    assert callers(("build_tapt_corpus", "build")) == {CORPUS_AND_VOCAB}


def test_package_root_loads_no_numpy():
    """`import hostility` runs only the package's __init__, which imports
    no submodule. A BLAS thread-count pin set there (ROADMAP item 5) takes
    effect only if it runs before numpy loads."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    code = "import hostility, sys; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
