"""The benchmark's hooks into patchbag.

bench/spans.py wraps named functions and counts Tensor constructions,
bench/selftest.py calls model.forward and the checkpoint writer, and
bench/run.py reads the matrices of a loaded checkpoint; a rename or a
changed return type there breaks benchmark runs, so the hooks are checked
here.
"""

import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest

from patchbag.model import TagSchema, load_checkpoint, save_checkpoint
from patchbag.synth import SynthConfig, generate
from patchbag.training import TrainConfig, train

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench")


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


def traced_gated3_run():
    """Span facts of one traced tiny gated-3 `train` and an eval of its model."""
    spans = load_spans()
    schema = TagSchema(tasks=(("a", ("x", "y")), ("b", ("p", "q", "r")),
                              ("c", ("u", "v"))))
    bags = generate(SynthConfig(schema=schema, feature_dim=8, patches_per_bag=8,
                                n_bags=4, seed=2))
    config = TrainConfig(epochs=1, batch_size=1, heads=3, attn_hidden=4,
                         tag_hidden=4)
    tracer = spans.Tracer()
    tracer.install()
    try:
        # root spans named as the benchmark names its commands
        result = tracer.span("cli.train.gated3", spans.training.train)(
            bags, [], schema, config)
        tracer.span("cli.eval", spans.training.evaluate)(result.params, bags)
    finally:
        tracer.remove()
    return spans, spans.analyse(tracer.spans, 0, len(tracer.spans)), bags


def test_traced_gated3_bags_build_at_most_4_tensors_to_train_and_3_to_infer():
    # per bag: one probability row per task, plus the loss at batch 1
    _, facts, bags = traced_gated3_run()
    per_step = [f["tensors"] for f in facts
                if f["parent"] == "training.train"
                and f["name"] in ("model.forward", "training.multi_task_loss")]
    assert len(per_step) == 2 * len(bags)
    assert sum(per_step) / len(bags) <= 4
    per_infer = [f["tensors"] for f in facts
                 if f["parent"] == "training.evaluate" and f["name"] == "model.forward"]
    assert len(per_infer) == len(bags)
    assert max(per_infer) <= 3


def test_layer_metrics_of_a_traced_train_name_every_layer():
    spans, facts, bags = traced_gated3_run()
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


def test_selftest_passes(tmp_path):
    result = subprocess.run([sys.executable, os.path.join(BENCH, "selftest.py")],
                            cwd=tmp_path, capture_output=True, text=True,
                            timeout=600)
    assert result.returncode == 0, result.stdout + result.stderr
