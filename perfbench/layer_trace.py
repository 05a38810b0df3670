"""Per-layer tracing of the hostility package from outside its source.

Tracer.installed() rebinds every public function of the eight package
modules in each module namespace (and module-level dispatch dict) that
holds it, so calls such as hostility.encoder.matmul or the cli command
table go through a wrapper. Nothing under src/ changes.

Functions of every layer except numeric record a span: name, start,
end and parent, kept in memory until the run ends. numeric ops are
called hundreds of times per post, so they are aggregated into a call
count and a time per op instead; their time is still subtracted from
the enclosing span's self time.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("preprocess", "encoder", "numeric", "fusion", "tapt", "traineval", "checkpoint", "cli")
# The commands the workloads run; `hostility preprocess` is not among them.
CLI_COMMANDS = ("tapt", "finetune", "evaluate", "predict")
NUMERIC_OPS = (
    "matmul", "add", "add_bias", "scale", "relu", "transpose", "concat_rows", "slice_cols",
    "gather_rows", "embedding_lookup", "softmax_rows", "layer_norm", "dropout", "cross_entropy",
)

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [("cli.import_s", "s", "lower")]
    + [(f"cli.{c}.self_s", "s", "lower") for c in CLI_COMMANDS]
    + [
        ("preprocess.extract_features.calls", "count", "lower"),
        ("preprocess.extract_features.s", "s", "lower"),
        ("preprocess.segment_hashtag.calls", "count", "lower"),
        ("preprocess.segment_hashtag.s", "s", "lower"),
        ("preprocess.segment_hashtag.chars", "chars", "lower"),
        ("preprocess.segment_hashtag.max_s", "s", "lower"),
        ("preprocess.tokenize_raw.s", "s", "lower"),
        ("preprocess.load_dataset.s", "s", "lower"),
        ("encoder.encode.calls", "count", "lower"),
        ("encoder.encode.self_s", "s", "lower"),
        ("encoder.encode.tokens", "tokens", "lower"),
        ("encoder.encode_ids.calls", "count", "lower"),
        ("encoder.mlm_loss.calls", "count", "lower"),
        ("encoder.mlm_loss.s", "s", "lower"),
        ("encoder.mask_tokens.calls", "count", "lower"),
        ("encoder.mask_tokens.useful_ratio", "ratio", "higher"),
        ("numeric.ops_per_forward", "ops/forward", "lower"),
    ]
    + [(f"numeric.{op}.{k}", u, "lower") for op in NUMERIC_OPS for k, u in (("calls", "count"), ("s", "s"))]
    + [
        ("numeric.backward.calls", "count", "lower"),
        ("numeric.backward.s", "s", "lower"),
        ("numeric.adam_step.calls", "count", "lower"),
        ("numeric.adam_step.s", "s", "lower"),
        ("numeric.adam_step.elems", "elems", "lower"),
        ("numeric.embedding_lookup.grad_bytes", "bytes-computed", "lower"),
        ("fusion.forward.calls", "count", "lower"),
        ("fusion.forward.self_s", "s", "lower"),
        ("fusion.predict.calls", "count", "lower"),
        ("fusion.predict.per_post", "calls/post", "lower"),
        ("fusion.model_to_bytes.calls", "count", "lower"),
        ("fusion.model_to_bytes.s", "s", "lower"),
        ("fusion.model_to_bytes.bytes", "bytes", "lower"),
        ("fusion.load_model.calls", "count", "lower"),
        ("fusion.load_model.s", "s", "lower"),
        ("fusion.load_model.bytes", "bytes", "lower"),
        ("fusion.load_model.useful_byte_ratio", "ratio", "higher"),
        ("tapt.run_tapt.s", "s", "lower"),
        ("tapt.build_tapt_corpus.s", "s", "lower"),
        ("traineval.train_binary.calls", "count", "lower"),
        ("traineval.train_binary.s", "s", "lower"),
        ("traineval.train_binary.val_s", "s", "lower"),
        ("traineval.evaluate_suite.s", "s", "lower"),
        ("traineval.split_dataset.s", "s", "lower"),
        ("checkpoint.checkpoint_bytes.calls", "count", "lower"),
        ("checkpoint.checkpoint_bytes.s", "s", "lower"),
        ("checkpoint.checkpoint_bytes.bytes", "bytes", "lower"),
        ("checkpoint.parse_checkpoint.calls", "count", "lower"),
        ("checkpoint.parse_checkpoint.s", "s", "lower"),
        ("checkpoint.parse_checkpoint.bytes", "bytes", "lower"),
        ("trace.untraced_s", "s", "lower"),
        ("trace.traced_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)


def _public_functions(module):
    for name, obj in vars(module).items():
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
            yield name, obj


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


class Tracer:
    """Spans and counters for one traced pass; create one per pass."""

    def __init__(self):
        self.spans: list[list] = []  # [qualified name, start, end, parent index]
        self.child_s: list[float] = []  # time covered by children, per span
        self.stack: list[int] = []
        self.ops = defaultdict(lambda: [0, 0.0])  # numeric op -> [calls, seconds]
        self.counts = defaultdict(float)
        self.tape_ops = 0
        self.training_depth = 0
        self.open = defaultdict(int)  # depth of selected open spans

    # -- wrappers ---------------------------------------------------------

    def _span(self, qualname, fn):
        enter = _ENTER.get(qualname)
        leave = _LEAVE.get(qualname)
        spans, child_s, stack = self.spans, self.child_s, self.stack

        def traced(*args, **kwargs):
            token = enter(self, args, kwargs) if enter else None
            index = len(spans)
            start = time.perf_counter()
            spans.append([qualname, start, start, stack[-1] if stack else -1])
            child_s.append(0.0)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][2] = end
                if stack:
                    child_s[stack[-1]] += end - start
                if leave:
                    leave(self, token)
            hook = _AFTER.get(qualname)
            if hook:
                hook(self, args, kwargs, result, end - start)
            return result

        return traced

    def _op(self, name, fn):
        agg = self.ops[name]
        child_s, stack = self.child_s, self.stack
        after = _AFTER.get(f"numeric.{name}")

        def traced(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            agg[0] += 1
            agg[1] += elapsed
            if stack:
                child_s[stack[-1]] += elapsed
            if after:
                after(self, args, kwargs, result, elapsed)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Route every public function of the package layers through this
        tracer while the context is open."""
        modules = [importlib.import_module(f"hostility.{layer}") for layer in LAYERS]
        modules.append(importlib.import_module("hostility"))
        numeric = importlib.import_module("hostility.numeric")
        replacements = {}
        for layer, module in zip(LAYERS, modules):
            for name, fn in _public_functions(module):
                if layer == "numeric":
                    replacements[id(fn)] = self._op(name, fn)
                else:
                    replacements[id(fn)] = self._span(f"{layer}.{name}", fn)
        undo = []
        for module in modules:
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if id(value) in replacements:
                    undo.append((namespace, attr, value))
                    namespace[attr] = replacements[id(value)]
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if id(item) in replacements:
                            undo.append((value, key, item))
                            value[key] = replacements[id(item)]
        original_result = numeric._result

        def counted_result(*args):
            self.tape_ops += 1
            return original_result(*args)

        numeric._result = counted_result
        try:
            yield self
        finally:
            numeric._result = original_result
            for container, key, value in reversed(undo):
                container[key] = value

    # -- report -----------------------------------------------------------

    def metrics(self, direct_predict_posts: int = 0) -> dict[str, float]:
        """Per-layer metrics of this pass, keyed like PER_LAYER, minus the
        cli.import_s and trace.* entries the caller measures.

        fusion.predict.per_post counts the predict calls the predict command
        makes per post it reads; a pass that calls fusion.predict directly
        on direct_predict_posts posts uses all predict calls instead.
        """
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, self.child_s):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child
        c = self.counts
        if c["predict.posts"]:
            per_post = c["predict.in_cmd"] / c["predict.posts"]
        elif direct_predict_posts:
            per_post = calls["fusion.predict"] / direct_predict_posts
        else:
            per_post = 0.0
        m = {f"cli.{cmd}.self_s": self_s[f"cli.cmd_{cmd}"] for cmd in CLI_COMMANDS}
        m.update({
            "preprocess.extract_features.calls": calls["preprocess.extract_features"],
            "preprocess.extract_features.s": total["preprocess.extract_features"],
            "preprocess.segment_hashtag.calls": calls["preprocess.segment_hashtag"],
            "preprocess.segment_hashtag.s": total["preprocess.segment_hashtag"],
            "preprocess.segment_hashtag.chars": c["segment_hashtag.chars"],
            "preprocess.segment_hashtag.max_s": c["segment_hashtag.max_s"],
            "preprocess.tokenize_raw.s": total["preprocess.tokenize_raw"],
            "preprocess.load_dataset.s": total["preprocess.load_dataset"],
            "encoder.encode.calls": calls["encoder.encode"],
            "encoder.encode.self_s": self_s["encoder.encode"],
            "encoder.encode.tokens": c["encode.tokens"],
            "encoder.encode_ids.calls": calls["encoder.encode_ids"],
            "encoder.mlm_loss.calls": calls["encoder.mlm_loss"],
            "encoder.mlm_loss.s": total["encoder.mlm_loss"],
            "encoder.mask_tokens.calls": calls["encoder.mask_tokens"],
            # A draw is useful when it reaches mlm_loss; 0 when nothing is drawn.
            "encoder.mask_tokens.useful_ratio": (
                calls["encoder.mlm_loss"] / calls["encoder.mask_tokens"]
                if calls["encoder.mask_tokens"] else 0.0
            ),
            "numeric.ops_per_forward": (
                c["forward.tape_ops"] / calls["fusion.forward"] if calls["fusion.forward"] else 0.0
            ),
        })
        for op in NUMERIC_OPS + ("backward", "adam_step"):
            n, seconds = self.ops[op] if op in self.ops else (0, 0.0)
            m[f"numeric.{op}.calls"] = n
            m[f"numeric.{op}.s"] = seconds
        m.update({
            "numeric.adam_step.elems": c["adam_step.elems"],
            "numeric.embedding_lookup.grad_bytes": c["embedding_lookup.grad_bytes"],
            "fusion.forward.calls": calls["fusion.forward"],
            "fusion.forward.self_s": self_s["fusion.forward"],
            "fusion.predict.calls": calls["fusion.predict"],
            "fusion.predict.per_post": per_post,
            "fusion.model_to_bytes.calls": calls["fusion.model_to_bytes"],
            "fusion.model_to_bytes.s": total["fusion.model_to_bytes"],
            "fusion.model_to_bytes.bytes": c["model_to_bytes.bytes"],
            "fusion.load_model.calls": calls["fusion.load_model"],
            "fusion.load_model.s": total["fusion.load_model"],
            "fusion.load_model.bytes": c["load_model.bytes"],
            "fusion.load_model.useful_byte_ratio": (
                c["load_model.useful_bytes"] / c["load_model.bytes"] if c["load_model.bytes"] else 0.0
            ),
            "tapt.run_tapt.s": total["tapt.run_tapt"],
            "tapt.build_tapt_corpus.s": total["tapt.build_tapt_corpus"],
            "traineval.train_binary.calls": calls["traineval.train_binary"],
            "traineval.train_binary.s": total["traineval.train_binary"],
            "traineval.train_binary.val_s": c["train_binary.val_s"],
            "traineval.evaluate_suite.s": total["traineval.evaluate_suite"],
            "traineval.split_dataset.s": total["traineval.split_dataset"],
        })
        for fn in ("checkpoint_bytes", "parse_checkpoint"):
            m[f"checkpoint.{fn}.calls"] = calls[f"checkpoint.{fn}"]
            m[f"checkpoint.{fn}.s"] = total[f"checkpoint.{fn}"]
            m[f"checkpoint.{fn}.bytes"] = c[f"{fn}.bytes"]
        return m


# -- per-function hooks -------------------------------------------------------
# _ENTER runs before the call and returns a token for _LEAVE; _AFTER sees
# the arguments, the result and the call's duration.


def _enter_training(tracer, args, kwargs, index):
    training = bool(_arg(args, kwargs, index, "training", False))
    tracer.training_depth += training
    return training


def _leave_training(tracer, training):
    tracer.training_depth -= training


def _enter_forward(tracer, args, kwargs):
    return (_enter_training(tracer, args, kwargs, 2), tracer.tape_ops)


def _leave_forward(tracer, token):
    training, tape_ops = token
    _leave_training(tracer, training)
    tracer.counts["forward.tape_ops"] += tracer.tape_ops - tape_ops


def _open(name):
    def enter(tracer, args, kwargs):
        tracer.open[name] += 1

    def leave(tracer, token):
        tracer.open[name] -= 1

    return enter, leave


def _after_segment(tracer, args, kwargs, result, elapsed):
    tracer.counts["segment_hashtag.chars"] += len(_arg(args, kwargs, 0, "tag"))
    tracer.counts["segment_hashtag.max_s"] = max(tracer.counts["segment_hashtag.max_s"], elapsed)


def _after_encode(tracer, args, kwargs, result, elapsed):
    tracer.counts["encode.tokens"] += len(_arg(args, kwargs, 2, "ids"))


def _after_predict(tracer, args, kwargs, result, elapsed):
    if tracer.open["cmd_predict"]:
        tracer.counts["predict.in_cmd"] += 1
    if tracer.open["train_binary"]:
        tracer.counts["train_binary.val_s"] += elapsed


def _after_load_dataset(tracer, args, kwargs, result, elapsed):
    if tracer.open["cmd_predict"]:
        tracer.counts["predict.posts"] += len(result)


def _after_load_model(tracer, args, kwargs, result, elapsed):
    model, _ = result
    loaded = os.path.getsize(_arg(args, kwargs, 0, "path"))
    # Classification never reads the encoders' MLM heads.
    useful = sum(p.data.nbytes for k, p in model.named_params().items() if ".mlm." not in k)
    tracer.counts["load_model.bytes"] += loaded
    tracer.counts["load_model.useful_bytes"] += min(useful, loaded)


def _count_bytes(key, of_result):
    def after(tracer, args, kwargs, result, elapsed):
        tracer.counts[key] += len(result if of_result else _arg(args, kwargs, 0, "blob"))

    return after


def _after_adam(tracer, args, kwargs, result, elapsed):
    params = _arg(args, kwargs, 0, "params")
    tracer.counts["adam_step.elems"] += sum(p.data.size for p in params.values() if p.grad is not None)


def _after_embedding(tracer, args, kwargs, result, elapsed):
    # Computed, not measured: backward allocates one table-sized gradient
    # per lookup that trains.
    table = _arg(args, kwargs, 0, "table")
    if tracer.training_depth and table.requires_grad:
        tracer.counts["embedding_lookup.grad_bytes"] += table.data.nbytes


_predict_enter, _predict_leave = _open("cmd_predict")
_train_enter, _train_leave = _open("train_binary")
_ENTER = {
    "fusion.forward": _enter_forward,
    "encoder.mlm_loss": lambda t, a, k: _enter_training(t, a, k, 4),
    "cli.cmd_predict": _predict_enter,
    "traineval.train_binary": _train_enter,
}
_LEAVE = {
    "fusion.forward": _leave_forward,
    "encoder.mlm_loss": _leave_training,
    "cli.cmd_predict": _predict_leave,
    "traineval.train_binary": _train_leave,
}
_AFTER = {
    "preprocess.segment_hashtag": _after_segment,
    "encoder.encode": _after_encode,
    "fusion.predict": _after_predict,
    "preprocess.load_dataset": _after_load_dataset,
    "fusion.load_model": _after_load_model,
    "fusion.model_to_bytes": _count_bytes("model_to_bytes.bytes", of_result=True),
    "checkpoint.checkpoint_bytes": _count_bytes("checkpoint_bytes.bytes", of_result=True),
    "checkpoint.parse_checkpoint": _count_bytes("parse_checkpoint.bytes", of_result=False),
    "numeric.adam_step": _after_adam,
    "numeric.embedding_lookup": _after_embedding,
}
