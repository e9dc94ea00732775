"""The benchmark's hooks into patchbag.

bench/spans.py wraps named functions and counts Tensor constructions,
bench/selftest.py calls model.forward and the checkpoint writer, and
bench/run.py reads the matrices of a loaded checkpoint; a rename or a
changed return type there breaks benchmark runs, so the hooks are checked
here. A traced run must also name every per-layer metric BENCHMARK.json
declares: a layer function the program stops calling drops its names.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from patchbag import cli
from patchbag.model import DEFAULT_SCHEMA, TagSchema, load_checkpoint, save_checkpoint
from patchbag.synth import PatchBag, SynthConfig, generate
from patchbag.training import STACK_BAGS, TrainConfig, train

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
BENCH = os.path.join(ROOT, "bench")


def load_bench(name):
    """bench/<name>.py as a module of its own (tests/ has an `oracles` too)."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load_bench("spans")


def test_every_traced_name_exists():
    spans = load_spans()
    for module, attr, _ in spans.TARGETS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    assert callable(spans.training.Adam.step)
    assert isinstance(spans.autodiff.Tensor, type)
    assert callable(spans.autodiff.backward)


def eval_bags():
    """Mixed-M bags for the traced eval: 8 patches (more than one stack), then 3."""
    rng = np.random.default_rng(5)
    sizes = [8] * (STACK_BAGS + 2) + [3] * 3
    return [PatchBag(f"e{i}", rng.normal(size=(m, 8)), (0, 1, 0))
            for i, m in enumerate(sizes)]


def traced_gated3_run():
    """Span facts of one traced tiny gated-3 `train` and an eval of its model.

    Also returns the training bags and, per forward the eval ran, the ids
    of the bags it was given.
    """
    spans = load_spans()
    schema = TagSchema(tasks=(("a", ("x", "y")), ("b", ("p", "q", "r")),
                              ("c", ("u", "v"))))
    bags = generate(SynthConfig(schema=schema, feature_dim=8, patches_per_bag=8,
                                n_bags=4, seed=2))
    config = TrainConfig(epochs=1, batch_size=1, heads=3, attn_hidden=4,
                         tag_hidden=4)
    tracer = spans.Tracer()
    tracer.install()
    traced_forward = spans.training.forward
    stacks = []

    def recording_forward(bag, params):
        stacks.append([b.bag_id for b in bag])
        return traced_forward(bag, params)

    try:
        # root spans named as the benchmark names its commands
        result = tracer.span("cli.train.gated3", spans.training.train)(
            bags, [], schema, config)
        spans.training.forward = recording_forward
        tracer.span("cli.eval", spans.training.evaluate)(result.params, eval_bags())
    finally:
        spans.training.forward = traced_forward
        tracer.remove()
    return spans, spans.analyse(tracer.spans, 0, len(tracer.spans)), bags, stacks


def test_traced_gated3_bags_build_at_most_4_tensors_to_train_and_3_to_infer():
    # per training bag: one probability row per task, plus the loss at batch 1
    _, facts, bags, stacks = traced_gated3_run()
    per_step = [f["tensors"] for f in facts
                if f["parent"] == "training.train"
                and f["name"] in ("model.forward", "training.multi_task_loss")]
    assert len(per_step) == 2 * len(bags)
    assert sum(per_step) / len(bags) <= 4
    # inference: one forward per stack of equal-shape bags, one row per task
    per_infer = [f["tensors"] for f in facts
                 if f["parent"] == "training.evaluate" and f["name"] == "model.forward"]
    ids = [b.bag_id for b in eval_bags()]
    assert sorted(i for stack in stacks for i in stack) == sorted(ids)
    assert len(per_infer) == len(stacks) == 3    # 8 patches: 32 + 2 bags; 3 patches
    assert max(per_infer) <= 3


def test_traced_gated3_batch1_forward_runs_heads_and_task_gates_in_one_call_each():
    # the heads, and the task gates, run side by side on a leading axis; the
    # classifiers, whose widths differ, run one per task
    _, facts, bags, _ = traced_gated3_run()
    in_train = [f["name"] for f in facts if f["root"] == "cli.train.gated3"]
    forwards = in_train.count("model.forward")
    assert forwards == len(bags)
    assert [in_train.count(name) / forwards for name in (
        "model.head_attention", "model.tag_attention", "model.predict_tag")] == [1, 1, 3]


def test_traced_batch8_step_on_equal_shapes_builds_one_tensor_per_task_and_the_loss():
    # one stacked forward per batch: K probability tensors, then the loss
    spans = load_spans()
    schema = TagSchema(tasks=(("a", ("x", "y")), ("b", ("p", "q", "r")),
                              ("c", ("u", "v"))))
    bags = generate(SynthConfig(schema=schema, feature_dim=8, patches_per_bag=8,
                                n_bags=16, seed=3))
    config = TrainConfig(epochs=1, batch_size=8, heads=3, attn_hidden=4,
                         tag_hidden=4)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.span("cli.train.gated3_b8", spans.training.train)(bags, [], schema, config)
    finally:
        tracer.remove()
    facts = spans.analyse(tracer.spans, 0, len(tracer.spans))
    steps = [f for f in facts if f["name"] == "training.adam_step"]
    in_step = [f for f in facts if f["parent"] == "training.train"
               and f["name"] in ("model.forward", "training.multi_task_loss")]
    assert len(steps) == 2 and len(in_step) == 4
    assert sum(f["tensors"] for f in in_step) <= len(steps) * (schema.n_tasks + 1)


def test_layer_metrics_of_a_traced_train_name_every_layer():
    spans, facts, bags, _ = traced_gated3_run()
    metrics = spans.layer_metrics(facts, len(bags))
    for name in ("autodiff.backward_s", "model.head_gates_s", "model.transform_s",
                 "model.tag_pooling_s", "model.classifiers_s", "training.loss_s"):
        assert f"{name}.gated3" in metrics, name
    assert metrics["autodiff.tensors_per_train_bag.gated3"] <= 4
    assert metrics["autodiff.tensors_per_infer_bag"] <= 3


@pytest.mark.parametrize("variant,heads", [("gated", 3), ("gated", 0), ("sdpa", 2)])
def test_loaded_checkpoint_matrices_equal_the_bench_reader(tmp_path, variant, heads):
    # bench/run.py's check_train compares each loaded matrix's .data with
    # the matrix bench/oracles.py reads from the same file
    oracles = load_bench("oracles")
    schema = TagSchema(tasks=(("a", ("x", "y")), ("b", ("p", "q", "r"))))
    bags = generate(SynthConfig(schema=schema, feature_dim=8, patches_per_bag=5,
                                n_bags=6, seed=4))
    config = TrainConfig(epochs=1, batch_size=2, heads=heads, variant=variant,
                         attn_hidden=4, tag_hidden=3, lr=1e-2)
    path = tmp_path / "checkpoint.ckpt"
    save_checkpoint(train(bags, [], schema, config).params, path)
    _, _, mats = oracles.read_checkpoint(str(path))
    named = load_checkpoint(path).named_parameters()
    assert [name for name, _ in named] == list(mats)
    for name, t in named:
        np.testing.assert_array_equal(t.data, mats[name])


def bench_arms():
    """bench/run.py's ARMS, read from its source: importing it starts a run's set-up."""
    with open(os.path.join(BENCH, "run.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["ARMS"])


def test_a_traced_session_names_every_declared_per_layer_metric(tmp_path):
    # every command the benchmark runs, on tiny inputs, through cli.main
    spans, inputs = load_spans(), load_bench("inputs")
    synth_cfg, data = str(tmp_path / "synth.json"), tmp_path / "data"
    inputs.synth_config(synth_cfg, 30)
    rgb, _ = inputs.make_slide(512, np.random.default_rng(0))
    inputs.write_ppm(tmp_path / "slide.ppm", rgb)
    labels = {task: classes[0] for task, classes in DEFAULT_SCHEMA.tasks}
    pre_cfg = str(tmp_path / "preprocess.json")
    inputs.write_json(pre_cfg, {"preprocess": {
        "images": [{"path": str(tmp_path / "slide.ppm"), "labels": labels}],
        "patches_per_bag": 4, "patch_size": 256, "feature_dim": inputs.FEATURE_DIM}})
    commands = [("synth", ["synth", "--config", synth_cfg, "--out", str(data)]),
                ("preprocess", ["preprocess", "--config", pre_cfg,
                                "--out", str(tmp_path / "pre")])]
    for arm, variant, heads, batch in bench_arms():
        train_cfg = str(tmp_path / f"train{batch}.json")
        inputs.train_config(train_cfg, batch)
        commands.append((f"train.{arm}", ["train", "--config", train_cfg, "--data",
                                          str(data), "--heads", str(heads), "--variant",
                                          variant, "--out", str(tmp_path / arm)]))
    scored = ["--checkpoint", str(tmp_path / "gated3" / "checkpoint.ckpt"),
              "--data", str(data / "test")]
    commands += [("eval", ["eval", *scored, "--out", str(tmp_path / "eval")]),
                 ("export", ["export-attention", *scored, "--out", str(tmp_path / "att")])]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for op, argv in commands:
            assert tracer.span(f"cli.{op}", cli.main)(argv) == 0, op
    finally:
        tracer.remove()
    n_train = inputs.split_sizes(30)[0]
    metrics = spans.layer_metrics(spans.analyse(tracer.spans, 0, len(tracer.spans)),
                                  n_train)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    assert sorted(set(metrics) - declared) == []
    assert sorted(declared - set(metrics)) == []


def test_selftest_passes(tmp_path):
    result = subprocess.run([sys.executable, os.path.join(BENCH, "selftest.py")],
                            cwd=tmp_path, capture_output=True, text=True,
                            timeout=600)
    assert result.returncode == 0, result.stdout + result.stderr
