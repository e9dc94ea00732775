"""The benchmark's hooks into patchbag.

bench/spans.py wraps named functions and counts Tensor constructions, and
bench/selftest.py calls model.forward and the checkpoint writer; a rename
or a changed return type there breaks traced benchmark runs, so the hooks
are checked here.
"""

import importlib.util
import os
import subprocess
import sys

from patchbag.model import TagSchema
from patchbag.synth import SynthConfig, generate
from patchbag.training import TrainConfig

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench")


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans",
                                                  os.path.join(BENCH, "spans.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    spans = load_spans()
    for module, attr, _ in spans.TARGETS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    assert callable(spans.training.Adam.step)
    assert isinstance(spans.autodiff.Tensor, type)
    assert callable(spans.autodiff.backward)


def test_traced_gated3_training_bag_builds_at_most_45_tensors():
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
        spans.training.train(bags, [], schema, config)
    finally:
        tracer.remove()
    facts = spans.analyse(tracer.spans, 0, len(tracer.spans))
    per_step = [f["tensors"] for f in facts
                if f["parent"] == "training.train"
                and f["name"] in ("model.forward", "training.multi_task_loss")]
    assert len(per_step) == 2 * len(bags)
    assert sum(per_step) / len(bags) <= 45


def test_selftest_passes(tmp_path):
    result = subprocess.run([sys.executable, os.path.join(BENCH, "selftest.py")],
                            cwd=tmp_path, capture_output=True, text=True,
                            timeout=600)
    assert result.returncode == 0, result.stdout + result.stderr
