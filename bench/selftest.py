"""Self-test of the benchmark's oracles, run before every benchmark run.

A wrong oracle would pass or fail runs for the wrong reason, so each one is
checked first: the reference forward against patchbag.model.forward on
tiny models of every variant, the Otsu search and F1 counting against
hand-worked examples, and the loss bound against its closed form.

Standalone: python3 bench/selftest.py   (from the repository root)
"""

import math
import os
import sys
import tempfile

import numpy as np

import oracles


def check_forward(tmp_dir):
    from patchbag.model import (ModelDims, ModelParams, TagSchema, forward,
                                save_checkpoint)
    from patchbag.synth import PatchBag

    schema = TagSchema(tasks=(("a", ("x", "y")), ("b", ("p", "q", "r"))))
    rng = np.random.default_rng(0)
    for variant, heads in (("gated", 2), ("gated", 1), ("gated", 0), ("sdpa", 2)):
        params = ModelParams(schema, ModelDims(feature_dim=8, attn_hidden=4,
                                               tag_hidden=4, n_heads=heads),
                             variant, seed=3)
        path = os.path.join(tmp_dir, f"{variant}{heads}.ckpt")
        save_checkpoint(params, path)
        fields, counts, mats = oracles.read_checkpoint(path)
        assert counts == (2, 3), counts
        bags = [PatchBag(f"b{i}", rng.normal(size=(m, 8)), (0, 0))
                for i, m in enumerate((5, 5, 1, 7))]
        ref = oracles.reference_predict(fields, mats,
                                        [(b.bag_id, b.labels, b.features)
                                         for b in bags])
        for bag in bags:
            probs, record = forward(bag, params)
            ref_probs, ref_alphas = ref[bag.bag_id]
            for p, q in zip(probs, ref_probs):
                np.testing.assert_allclose(p.data[0], q, rtol=0, atol=1e-12)
            for w, q in zip(record.tag_weights, ref_alphas):
                np.testing.assert_allclose(w, q, rtol=0, atol=1e-12)


def check_otsu():
    from patchbag.preprocess import otsu_threshold

    def hist(**counts):
        h = [0] * 256
        for key, n in counts.items():
            h[int(key[1:])] = n
        return h

    # two spikes: every cut between them splits equally well; smallest wins
    assert oracles.otsu_exhaustive(hist(v50=10, v200=10)) == 50
    assert oracles.otsu_exhaustive(hist(v10=3, v11=1, v240=4)) == 11
    # 0 x3, 100 x1, 200 x1: cut 0 scores 3*2*150^2 = 135000 against
    # 4*1*175^2 = 122500 for cut 100
    assert oracles.otsu_exhaustive(hist(v0=3, v100=1, v200=1)) == 0
    # 0..9 x1 and 250 x1: the cut after 9 isolates the outlier
    assert oracles.otsu_exhaustive([1] * 10 + [0] * 240 + [1] + [0] * 5) == 9
    rng = np.random.default_rng(1)
    for _ in range(20):
        h = rng.integers(0, 50, 256) * (rng.random(256) < 0.3)
        h[0] += 1
        h[255] += 1
        assert otsu_threshold(h).threshold == oracles.otsu_exhaustive(h)


def check_f1():
    per_class, macro, acc, conf = oracles.f1_by_counting([0, 0, 1, 1],
                                                         [0, 1, 1, 1], 3)
    assert per_class == [2 / 3, 4 / 5, 0.0], per_class
    assert abs(macro - (2 / 3 + 4 / 5) / 3) < 1e-15 and acc == 0.75
    assert conf == [[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]


def check_loss_bound():
    bound = oracles.uniform_loss_bound()
    assert abs(bound - (math.log(3) + math.log(6) + math.log(16))) < 1e-12
    assert abs(bound - 5.663) < 5e-4
    assert abs(oracles.chance_macro_f1() - (1 / 3 + 1 / 6 + 1 / 16) / 3) < 1e-15


def run(tmp_dir):
    check_forward(tmp_dir)
    check_otsu()
    check_f1()
    check_loss_bound()


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        run(tmp)
    print("oracle self-test passed")
