"""Span tracing for the benchmark's traced mode (--trace 1).

Wraps chosen public functions of patchbag's modules from outside the
program: each wrapper records a span (name, start, end, parent) in memory,
and a wrapper on Tensor.__init__ counts the tensors made inside each span.
Spans are written out once, when the run ends. A span's self time is its
duration minus the durations of its direct children; calls are nested and
single-threaded, so children never overlap.
"""

import gzip
import json
import os
import sys
import time

from patchbag import autodiff, bagio, metrics, model, plots, preprocess, synth
from patchbag import training

# (module, attribute, span name). Functions are looked up by identity in
# every patchbag module, so names bound by `from .x import f` are wrapped too.
TARGETS = (
    (autodiff, "backward", "autodiff.backward"),
    (model, "forward", "model.forward"),
    (model, "patch_transform", "model.transform"),
    (model, "sdpa_transform", "model.transform"),
    (model, "head_attention", "model.head_attention"),
    (model, "tag_attention", "model.tag_attention"),
    (model, "predict_tag", "model.predict_tag"),
    (model, "save_checkpoint", "model.save_checkpoint"),
    (model, "load_checkpoint", "model.load_checkpoint"),
    (training, "train", "training.train"),
    (training, "multi_task_loss", "training.multi_task_loss"),
    (training, "evaluate", "training.evaluate"),
    (training, "export_attention", "training.export_attention"),
    (metrics, "build_report", "metrics.build_report"),
    (plots, "confusion_svg", "plots.svg"),
    (plots, "attention_bars_svg", "plots.svg"),
    (synth, "generate", "synth.generate"),
    (synth, "split", "synth.split"),
    (bagio, "write_bags", "bagio.write_bags"),
    (bagio, "read_bags", "bagio.read_bags"),
    (preprocess, "read_pnm", "preprocess.read_pnm"),
    (preprocess, "to_grayscale", "preprocess.otsu"),
    (preprocess, "gray_histogram", "preprocess.otsu"),
    (preprocess, "otsu_threshold", "preprocess.otsu"),
    (preprocess, "foreground_mask", "preprocess.otsu"),
    (preprocess, "sample_patches", "preprocess.sample"),
    (preprocess, "augment", "preprocess.augment"),
    (preprocess, "featurize", "preprocess.featurize"),
    (preprocess, "pooled_stats", "preprocess.pooled_stats"),
)

NAME, START, END, PARENT, TENSORS, BYTES = range(6)


def _dir_bytes(directory):
    return sum(os.path.getsize(os.path.join(directory, f))
               for f in (bagio.MANIFEST_NAME, bagio.BLOB_NAME))


class Tracer:
    """Records spans while installed; install() and remove() patch patchbag."""

    def __init__(self):
        self.spans = []       # [name, start_ns, end_ns, parent, tensors, bytes]
        self.stack = []
        self._undo = []

    def span(self, name, fn, measure=None):
        """fn wrapped to record a span; measure(args, result) gives bytes."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if measure is not None:
                rec[BYTES] = measure(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "patchbag" or name.startswith("patchbag.")]
        measures = {
            "bagio.write_bags": lambda args, _: _dir_bytes(args[1]),
            "bagio.read_bags": lambda args, _: _dir_bytes(args[0]),
        }
        for module, attr, name in TARGETS:
            original = getattr(module, attr)
            wrapped = self.span(name, original, measures.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)
        self._patch(training.Adam, "step",
                    self.span("training.adam_step", training.Adam.step))
        spans, stack = self.spans, self.stack
        init = autodiff.Tensor.__init__

        def counting_init(tensor, *args, **kwargs):
            if stack:
                spans[stack[-1]][TENSORS] += 1
            init(tensor, *args, **kwargs)

        self._patch(autodiff.Tensor, "__init__", counting_init)

    def _patch(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def remove(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo = []

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "tensors", "bytes"], "spans": self.spans}, fh)


def analyse(spans, first, last):
    """Per-span facts for spans[first:last], a range of whole root spans.

    Returns a list of dicts with name, root (the name of the root span it
    sits under), parent name, duration, self time, inclusive tensor count
    and bytes, all times in seconds.
    """
    n = last - first
    dur = [(s[END] - s[START]) * 1e-9 for s in spans[first:last]]
    child = [0.0] * n
    tensors = [s[TENSORS] for s in spans[first:last]]
    for i in range(n - 1, -1, -1):
        p = spans[first + i][PARENT]
        if p >= first:
            child[p - first] += dur[i]
            tensors[p - first] += tensors[i]
    facts = []
    for i, s in enumerate(spans[first:last]):
        p = s[PARENT]
        parent = facts[p - first] if p >= first else None
        facts.append({
            "name": s[NAME],
            "root": parent["root"] if parent else s[NAME],
            "parent": parent["name"] if parent else None,
            "dur": dur[i],
            "self": dur[i] - child[i],
            "tensors": tensors[i],
            "bytes": s[BYTES],
        })
    return facts


COUNTS = ("autodiff.tensors_per_", "training.adam_steps", "preprocess.patches")


def unit(name):
    if name.startswith("bagio.bytes_"):
        return "bytes"
    return "count" if name.startswith(COUNTS) else "s"


def layer_metrics(facts, n_train):
    """Per-layer times and counts of one round's spans, per command run.

    Root spans are the benchmark's `cli.<op>` spans, one per command; a
    command that runs several times in the round contributes its mean. Ops
    `train.<arm>` give metrics suffixed with the arm, eval and export give
    model metrics suffixed `.infer`. n_train is the training bags per
    epoch, for the tensors-per-bag count.
    """
    out = {}
    train_tensors = {}
    infer_tensors = infer_forwards = 0
    runs = {}
    for f in facts:
        if f["parent"] is None:
            runs[f["name"]] = runs.get(f["name"], 0) + 1

    def add(key, value):
        out[key] = out.get(key, 0.0) + value / runs[f["root"]]

    for f in facts:
        op = f["root"][len("cli."):]
        name, parent, dur = f["name"], f["parent"], f["dur"]
        arm = op.split(".", 1)[1] if op.startswith("train.") else None
        ctx = arm or ("infer" if op in ("eval", "export") else op)
        if parent is None:
            add(f"cli.self_s.{arm or op}", f["self"])
        elif name == "autodiff.backward":
            add(f"autodiff.backward_s.{arm}", dur)
        elif name == "model.forward":
            if parent == "training.train":
                add(f"model.forward_step_s.{arm}", dur)
                train_tensors[arm] = (train_tensors.get(arm, 0)
                                      + f["tensors"] / runs[f["root"]])
            elif arm:
                add(f"model.forward_val_s.{arm}", dur)
            else:
                add(f"model.forward_{op}_s", dur)
                infer_tensors += f["tensors"]
                infer_forwards += 1
        elif name == "model.transform":
            add(f"model.transform_s.{ctx}", f["self"])
        elif name == "model.head_attention":
            if parent == "model.transform":
                add(f"model.head_gates_s.{ctx}", dur)
        elif name == "model.tag_attention":
            add(f"model.tag_pooling_s.{ctx}", dur)
        elif name == "model.predict_tag":
            add(f"model.classifiers_s.{ctx}", dur)
        elif name == "model.save_checkpoint":
            add(f"model.checkpoint_save_s.{arm}", dur)
        elif name == "model.load_checkpoint":
            add("model.checkpoint_load_s", dur)
        elif name == "training.train":
            add(f"training.loop_self_s.{arm}", f["self"])
        elif name == "training.multi_task_loss":
            add(f"training.loss_s.{arm}", dur)
            train_tensors[arm] = (train_tensors.get(arm, 0)
                                  + f["tensors"] / runs[f["root"]])
        elif name == "training.adam_step":
            add(f"training.adam_step_s.{arm}", dur)
            add(f"training.adam_steps.{arm}", 1)
        elif name == "training.evaluate":
            add(f"training.val_eval_s.{arm}" if arm else "training.evaluate_s", dur)
        elif name == "training.export_attention":
            add("training.export_self_s", f["self"])
        elif name == "metrics.build_report":
            add(f"metrics.build_report_s.{arm or op}", dur)
        elif name == "plots.svg":
            add("plots.svg_s", dur)
        elif name == "bagio.write_bags":
            add("bagio.write_s", dur)
            add("bagio.bytes_written", f["bytes"])
        elif name == "bagio.read_bags":
            add("bagio.read_s", dur)
            add("bagio.bytes_read", f["bytes"])
        elif name == "preprocess.otsu":
            if parent != "preprocess.pooled_stats":
                add("preprocess.otsu_s", dur)
        elif name == "preprocess.featurize":
            add("preprocess.featurize_s", dur)
            add("preprocess.patches", 1)
        else:  # synth.generate, synth.split, preprocess read/sample/augment/pooled
            add(f"{name}_s", dur)
    for arm, count in train_tensors.items():
        out[f"autodiff.tensors_per_train_bag.{arm}"] = count / n_train
    if infer_forwards:
        out["autodiff.tensors_per_infer_bag"] = infer_tensors / infer_forwards
    return out
