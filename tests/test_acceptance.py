"""Acceptance gate: one test per criterion, summarized at session end.

The two training criteria share the nine runs of the session-scoped
`arm_trainer` fixture, which trains them two at a time in worker processes.
Training here uses a desk-scale optimizer setting (lr 1e-3, batch 1); the
library's default rate of 1e-4 converges far too slowly for a dataset this
small.
"""

import concurrent.futures
import json
import multiprocessing
import os
import time

import numpy as np
import pytest

from patchbag import autodiff as ad
from patchbag import cli
from patchbag.bagio import read_bags, write_bags
from patchbag.errors import IntegrityError
from patchbag.metrics import task_metrics
from patchbag.model import (
    DEFAULT_SCHEMA,
    ModelDims,
    ModelParams,
    TagSchema,
    forward,
    load_checkpoint,
    predict_probs,
    save_checkpoint,
)
from patchbag.preprocess import otsu_threshold
from patchbag.synth import SynthConfig, generate, generate_with_trace, split
from patchbag.training import TrainConfig, multi_task_loss, train

from oracles import (
    assert_grads_match,
    f1_by_counting,
    nearest_prototype_labels,
    otsu_exhaustive_exact,
)

GRAD_SCHEMA = TagSchema(tasks=(("first", ("a", "b")), ("second", ("x", "y", "z"))))

LEARN_DATA = SynthConfig(
    schema=DEFAULT_SCHEMA, feature_dim=64, patches_per_bag=32, n_bags=2000,
    signal_fraction=0.25, noise_std=0.25, seed=7,
)
ACCEPT_EPOCHS = 50          # the stated budget; every arm converges within it
ACCEPT_LR = 1e-3            # desk-scale rate; library defaults stay at 1e-4
ACCEPT_BATCH = 1


ARMS = [(heads, seed) for heads in (3, 1, 0) for seed in (7, 8, 9)]
ARM_WORKERS = 2

_worker_splits = None


def _train_arm(heads: int, seed: int):
    """One c6/c7 training run in a worker process: (best val macro, seconds)."""
    global _worker_splits
    if _worker_splits is None:
        _worker_splits = split(generate(LEARN_DATA), seed=7)
    train_bags, val_bags, _ = _worker_splits
    config = TrainConfig(epochs=ACCEPT_EPOCHS, batch_size=ACCEPT_BATCH,
                         lr=ACCEPT_LR, seed=seed, heads=heads, variant="gated")
    started = time.time()
    result = train(train_bags, val_bags, DEFAULT_SCHEMA, config)
    elapsed = time.time() - started
    return max(rec.val_avg_macro_f1 for rec in result.history), elapsed


@pytest.fixture(scope="session")
def arm_trainer():
    """Training runs: (heads, seed) -> (best val macro, seconds).

    The nine arms are independent and each is deterministic, so on first use
    they all start, ARM_WORKERS at a time in the order of ARMS, in fresh
    worker processes; a lookup waits for its own arm only.
    """
    futures = {}
    ctx = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(ARM_WORKERS, mp_context=ctx) as pool:

        def run(heads: int, seed: int):
            if not futures:
                futures.update({arm: pool.submit(_train_arm, *arm) for arm in ARMS})
            return futures[(heads, seed)].result()

        yield run
        pool.shutdown(cancel_futures=True)


def test_c1_gradient_integrity_over_twenty_seeds():
    dims = ModelDims(feature_dim=6, attn_hidden=4, tag_hidden=4, n_heads=2)
    started = time.time()
    for seed in range(20):
        params = ModelParams(GRAD_SCHEMA, dims, "gated", seed)
        rng = np.random.default_rng(1000 + seed)
        feats = rng.normal(size=(4, 6))
        labels = np.array([[int(rng.integers(2)), int(rng.integers(3))]])

        class Bag:
            bag_id = f"g{seed}"
            features = feats

        def loss_builder():
            probs, _ = forward(Bag, params)
            return multi_task_loss([[p] for p in probs], labels, (1.0, 1.0))

        assert_grads_match(loss_builder, params.parameters(),
                           rel=1e-4, abs_=1e-8, step=1e-5)
    elapsed = time.time() - started
    assert elapsed < 30.0, f"gradient sweep took {elapsed:.1f}s"


def test_c2_attention_normalization_and_permutation():
    dims = ModelDims(feature_dim=8, attn_hidden=4, tag_hidden=4, n_heads=2)
    params = ModelParams(DEFAULT_SCHEMA, dims, "gated", 3)
    rng = np.random.default_rng(42)
    for i in range(100):
        m = int(rng.integers(1, 13))
        feats = rng.normal(size=(m, 8))
        labels = tuple(int(rng.integers(c)) for c in DEFAULT_SCHEMA.class_counts)

        class Bag:
            bag_id = f"b{i}"
            features = feats

        probs, record = predict_probs(Bag, params)
        for w in record.head_weights + record.tag_weights:
            assert abs(w.sum() - 1.0) <= 1e-9
            assert np.all(w >= 0.0) and np.all(w <= 1.0)

        perm = rng.permutation(m)

        class Permuted:
            bag_id = f"b{i}p"
            features = feats[perm]

        probs_p, record_p = predict_probs(Permuted, params)
        for a, b in zip(probs, probs_p):
            np.testing.assert_allclose(a, b, atol=1e-10)
        for wa, wb in zip(record.head_weights + record.tag_weights,
                          record_p.head_weights + record_p.tag_weights):
            np.testing.assert_allclose(wa[perm], wb, atol=1e-12)


def test_c3_residual_and_pooling_identities():
    from patchbag.model import patch_transform, tag_attention

    dims = ModelDims(feature_dim=10, attn_hidden=4, tag_hidden=4, n_heads=3)
    params = ModelParams(GRAD_SCHEMA, dims, "gated", 5)
    params.proj.data[:] = 0.0
    rng = np.random.default_rng(6)
    V = rng.normal(size=(9, 10))
    out, _, _ = patch_transform(V, params)
    np.testing.assert_array_equal(out, np.maximum(V, 0.0))

    # one-head transform composed with a zeroed tag gate pools to the
    # column mean of the transformed features
    one_head = ModelParams(
        GRAD_SCHEMA, ModelDims(feature_dim=10, attn_hidden=4, tag_hidden=4,
                               n_heads=1), "gated", 8)
    Vp, _, _ = patch_transform(rng.normal(size=(7, 10)), one_head)
    pooled, alpha, _ = tag_attention(
        Vp, np.zeros((10, 4)), rng.normal(size=(4, 1))
    )
    np.testing.assert_allclose(alpha, 1.0 / 7.0, atol=1e-15)
    np.testing.assert_allclose(pooled[0], Vp.mean(axis=0), atol=1e-12)


def test_c4_metric_oracle_equivalence():
    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(1, 120))
        c = int(rng.integers(2, 10))
        truth = rng.integers(c, size=n).tolist()
        pred = rng.integers(c, size=n).tolist()
        mine = task_metrics(truth, pred, tuple(f"k{i}" for i in range(c)))
        per_class, macro, micro, confusion = f1_by_counting(truth, pred, c)
        np.testing.assert_allclose(mine.per_class_f1, per_class, atol=1e-12)
        np.testing.assert_allclose(mine.macro_f1, macro, atol=1e-12)
        np.testing.assert_allclose(mine.micro_f1, micro, atol=1e-12)
        np.testing.assert_allclose(mine.confusion, confusion, atol=1e-12)
        accuracy = float(np.mean(np.asarray(truth) == np.asarray(pred)))
        assert mine.micro_f1 == accuracy


def test_c5_otsu_oracle_equivalence():
    rng = np.random.default_rng(99)
    started = time.time()
    checked = 0
    while checked < 1000:
        kind = rng.integers(4)
        if kind == 0:
            hist = rng.integers(0, 100, size=256).astype(np.int64)
        elif kind == 1:
            hist = np.zeros(256, dtype=np.int64)
            lo = np.clip(np.rint(rng.normal(rng.integers(20, 110), 15, 2000)),
                         0, 255).astype(int)
            hi = np.clip(np.rint(rng.normal(rng.integers(130, 240), 15, 2000)),
                         0, 255).astype(int)
            np.add.at(hist, lo, 1)
            np.add.at(hist, hi, 1)
        elif kind == 2:
            hist = np.zeros(256, dtype=np.int64)
            for s in rng.integers(0, 256, size=rng.integers(2, 8)):
                hist[s] += int(rng.integers(1, 1000))
        else:
            hist = rng.integers(0, 5, size=256).astype(np.int64)
        if hist.sum() == 0 or np.count_nonzero(hist) == 1:
            continue
        assert otsu_threshold(hist).threshold == otsu_exhaustive_exact(hist)
        checked += 1
    elapsed = time.time() - started
    assert elapsed < 5.0, f"otsu sweep took {elapsed:.1f}s"


def test_c6_synthetic_learnability(arm_trainer):
    # separability gate first: nearest-prototype on planted signal patches
    bags, trace = generate_with_trace(LEARN_DATA)
    hits = total = 0
    for bag, entry in zip(bags[:500], trace.signal_patches[:500]):
        guess = nearest_prototype_labels(bag, entry, trace.prototypes,
                                         DEFAULT_SCHEMA)
        for k in range(DEFAULT_SCHEMA.n_tasks):
            hits += guess[k] == bag.labels[k]
            total += 1
    oracle_accuracy = hits / total
    assert oracle_accuracy > 0.99, f"data not separable: {oracle_accuracy:.4f}"

    best, elapsed = arm_trainer(heads=3, seed=7)
    assert elapsed < 900.0, f"training took {elapsed:.0f}s"
    assert best >= 0.90, f"best validation avg Macro F1 {best:.4f} < 0.90"


def test_c7_ablation_trend(arm_trainer):
    means = {}
    for heads in (3, 1, 0):
        scores = [arm_trainer(heads=heads, seed=s)[0] for s in (7, 8, 9)]
        means[heads] = float(np.mean(scores))
    summary = (f"mean best-val avg Macro F1: 3-head {means[3]:.4f}, "
               f"1-head {means[1]:.4f}, pooling-only {means[0]:.4f}")
    assert means[3] - means[1] >= -0.01, summary
    assert means[1] - means[0] >= -0.01, summary


def test_c8_bit_exact_reproducibility(tmp_path):
    synth_cfg = {
        "synth": {"schema": [["color", ["red", "blue"]],
                             ["shape", ["dot", "bar", "box"]]],
                  "feature_dim": 8, "patches_per_bag": 6, "n_bags": 40,
                  "signal_fraction": 0.34, "noise_std": 0.15},
        "train": {"epochs": 2, "batch_size": 4, "lr": 0.003, "heads": 1,
                  "attn_hidden": 4, "tag_hidden": 4},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(synth_cfg))
    data = tmp_path / "data"
    assert cli.main(["synth", "--config", str(cfg_path), "--seed", "5",
                     "--out", str(data)]) == 0

    outputs = []
    for tag in ("one", "two"):
        run_dir = tmp_path / f"run_{tag}"
        eval_dir = tmp_path / f"eval_{tag}"
        assert cli.main(["train", "--config", str(cfg_path), "--seed", "3",
                         "--data", str(data), "--out", str(run_dir)]) == 0
        assert cli.main(["eval", "--checkpoint",
                         str(run_dir / "checkpoint.ckpt"), "--data", str(data),
                         "--out", str(eval_dir)]) == 0
        outputs.append({
            "checkpoint": (run_dir / "checkpoint.ckpt").read_bytes(),
            "history": (run_dir / "history.csv").read_bytes(),
            "report": (eval_dir / "report.json").read_bytes(),
        })
    assert outputs[0] == outputs[1]


def test_c9_round_trips_and_corruption_detection(tmp_path):
    schema = TagSchema(tasks=(("color", ("red", "blue")),
                              ("shape", ("dot", "bar", "box"))))
    bags = generate(SynthConfig(schema=schema, feature_dim=8, patches_per_bag=6,
                                n_bags=10, signal_fraction=0.34, noise_std=0.2,
                                seed=1))
    bag_dir = tmp_path / "bags"
    write_bags(bags, bag_dir, schema)
    loaded, loaded_schema = read_bags(bag_dir)
    assert loaded_schema == schema
    for a, b in zip(bags, loaded):
        assert a.bag_id == b.bag_id and a.labels == b.labels
        assert a.features.tobytes() == b.features.tobytes()

    blob = bag_dir / "features.bin"
    blob.write_bytes(blob.read_bytes()[:-8])
    with pytest.raises(IntegrityError):
        read_bags(bag_dir)

    dims = ModelDims(feature_dim=8, attn_hidden=4, tag_hidden=4, n_heads=2)
    params = ModelParams(schema, dims, "gated", 4)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(params, ckpt)
    loaded_params = load_checkpoint(ckpt)
    for (na, ta), (nb, tb) in zip(params.named_parameters(),
                                  loaded_params.named_parameters()):
        assert na == nb and ta.data.tobytes() == tb.data.tobytes()

    ckpt.write_bytes(ckpt.read_bytes()[:-8])
    with pytest.raises(IntegrityError):
        load_checkpoint(ckpt)
