import csv
import math

import numpy as np
import pytest

from patchbag import training
from patchbag.autodiff import Tensor
from patchbag.errors import ConfigError, ContractError
from patchbag.metrics import build_report
from patchbag.model import ModelDims, ModelParams, TagSchema, predict_probs
from patchbag.plots import attention_bars_svg
from patchbag.synth import PatchBag, SynthConfig, generate, split
from patchbag.training import (
    STACK_BAGS,
    Adam,
    TrainConfig,
    evaluate,
    export_attention,
    history_csv_lines,
    multi_task_loss,
    rank_patches,
    train,
)

SCHEMA = TagSchema(tasks=(("size", ("s", "m", "l")), ("tone", ("lo", "hi"))))


def tiny_dataset(n_bags=40, seed=0):
    config = SynthConfig(schema=SCHEMA, feature_dim=10, patches_per_bag=6,
                         n_bags=n_bags, signal_fraction=0.34, noise_std=0.15,
                         seed=seed)
    return generate(config)


def mixed_bags(seed=0):
    """Bags of M 5 (a group of two full stacks and a remainder), 3 and 8, interleaved."""
    rng = np.random.default_rng(seed)
    sizes = [5] * (2 * STACK_BAGS + 3) + [3] * 10 + [8]
    sizes = [sizes[i] for i in rng.permutation(len(sizes))]
    return [PatchBag(f"bag{i:03d}", rng.normal(size=(m, 10)),
                     (int(rng.integers(3)), int(rng.integers(2))))
            for i, m in enumerate(sizes)]


def stack_params(variant, heads):
    dims = ModelDims(feature_dim=10, attn_hidden=4, tag_hidden=4, n_heads=heads)
    return ModelParams(SCHEMA, dims, variant, 1)


def as_prob_tensors(rows):
    return [Tensor(np.asarray(r, dtype=np.float64).reshape(1, -1)) for r in rows]


class TestMultiTaskLoss:
    def test_perfect_prediction_gives_zero(self):
        probs = [as_prob_tensors([[1.0, 0.0, 0.0]]), as_prob_tensors([[0.0, 1.0]])]
        loss = multi_task_loss(probs, [[0, 1]], (1.0, 1.0))
        assert float(loss.data) == 0.0

    def test_uniform_predictor_closed_form(self):
        # tasks with 3, 6, 16 classes and unit weights: ln 3 + ln 6 + ln 16
        probs = [
            as_prob_tensors([np.full(3, 1 / 3)]),
            as_prob_tensors([np.full(6, 1 / 6)]),
            as_prob_tensors([np.full(16, 1 / 16)]),
        ]
        loss = multi_task_loss(probs, [[0, 3, 11]], (1.0, 1.0, 1.0))
        expected = math.log(3) + math.log(6) + math.log(16)
        np.testing.assert_allclose(float(loss.data), expected, rtol=1e-12)

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(4)
        n, counts, lambdas = 5, (3, 4), (0.7, 1.3)
        raw = [rng.dirichlet(np.ones(c), size=n) for c in counts]
        labels = np.stack([rng.integers(c, size=n) for c in counts], axis=1)
        probs = [as_prob_tensors(list(r)) for r in raw]
        loss = float(multi_task_loss(probs, labels, lambdas).data)
        direct = 0.0
        for k in range(2):
            task_sum = 0.0
            for i in range(n):
                task_sum += -math.log(max(raw[k][i][labels[i, k]], 1e-12))
            direct += lambdas[k] * task_sum / n
        np.testing.assert_allclose(loss, direct, atol=1e-12)

    def test_loss_nonnegative_and_positive_off_truth(self):
        probs = [as_prob_tensors([[0.9, 0.1, 0.0]])]
        loss = multi_task_loss(probs, [[0]], (1.0,))
        assert float(loss.data) > 0.0

    def test_label_out_of_range_rejected(self):
        probs = [as_prob_tensors([[0.5, 0.5]])]
        with pytest.raises(ContractError):
            multi_task_loss(probs, [[2]], (1.0,))


class OneWeight:
    """The smallest thing Adam trains: one 1x1 matrix `w` viewing `flat`,
    whose gradient views `grad`."""

    def __init__(self, value):
        self.flat = np.array([value])
        self.grad = np.zeros(1)
        self.has_grad = False
        self.w = Tensor(self.flat.reshape(1, 1), grad=self.grad.reshape(1, 1))

    def set_grad(self, value):
        """Stand in for a backward that leaves `value` as the gradient."""
        self.grad[0] = value
        self.has_grad = True


class TestAdam:
    def test_defaults_match_training_settings(self):
        config = TrainConfig()
        assert (config.lr, config.beta1, config.beta2) == (1e-4, 0.9, 0.999)
        adam = Adam(OneWeight(1.0))
        assert (adam.lr, adam.beta1, adam.beta2, adam.epsilon) == \
            (1e-4, 0.9, 0.999, 1e-8)

    def test_zero_gradient_leaves_params_and_decays_moments(self):
        params = OneWeight(2.0)
        w = params.w
        adam = Adam(params, lr=0.1)
        params.set_grad(1.0)
        adam.step()
        after_first = w.data.copy()
        m1, v1 = adam.m[0].copy(), adam.v[0].copy()
        params.set_grad(0.0)
        adam.step()
        np.testing.assert_allclose(adam.m[0], 0.9 * m1)
        np.testing.assert_allclose(adam.v[0], 0.999 * v1)
        # fresh moments case: zero grad from the start moves nothing
        params2 = OneWeight(5.0)
        w2 = params2.w
        adam2 = Adam(params2, lr=0.1)
        params2.set_grad(0.0)
        adam2.step()
        np.testing.assert_array_equal(w2.data, [[5.0]])
        assert not np.array_equal(w.data, after_first)  # nonzero m keeps moving

    def test_single_scalar_first_step_update(self):
        lr = 1e-3
        params = OneWeight(0.0)
        w = params.w
        adam = Adam(params, lr=lr)
        params.set_grad(1.0)
        adam.step()
        # hand-evaluated recurrence: m_hat = v_hat = 1 at t = 1
        expected = -lr * 1.0 / (math.sqrt(1.0) + adam.epsilon)
        np.testing.assert_allclose(w.data, [[expected]], rtol=1e-15)
        assert abs(w.data[0, 0] + lr) < 1e-10

    def test_steps_match_the_textbook_expression_bit_for_bit(self):
        dims = ModelDims(feature_dim=10, attn_hidden=4, tag_hidden=4, n_heads=2)
        params = ModelParams(SCHEMA, dims, "gated", seed=3)
        adam = Adam(params, lr=0.01)
        flat, m0, v0 = params.flat, adam.m, adam.v
        want, m, v = params.flat.copy(), 0.0, 0.0
        rng = np.random.default_rng(8)
        for t in (1, 2, 3):
            grads = [rng.standard_normal(p.data.shape) for _, p in params.named_parameters()]
            for (_, p), g in zip(params.named_parameters(), grads):
                p.grad[...] = g
            params.has_grad = True
            adam.step()
            g = np.concatenate([g.ravel() for g in grads])
            m = 0.9 * m + (1 - 0.9) * g
            v = 0.999 * v + (1 - 0.999) * g * g
            want -= 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
            assert params.flat.tobytes() == want.tobytes()
        # updated in place: the matrices still view `flat`, moments keep their buffers
        assert params.flat is flat and adam.m is m0 and adam.v is v0
        assert all(np.shares_memory(t.data, flat) for _, t in params.named_parameters())

    def test_missing_gradient_rejected(self):
        params = OneWeight(1.0)
        adam = Adam(params)
        with pytest.raises(ContractError):
            adam.step()
        # a step, then zero_grad: the next step again has no gradient
        params.set_grad(1.0)
        adam.step()
        adam.zero_grad()
        assert params.grad[0] == 0.0
        with pytest.raises(ContractError):
            adam.step()
        assert adam.t == 1


class TestTrain:
    def test_same_seed_gives_identical_history(self):
        bags = tiny_dataset()
        tr, val, _ = split(bags, seed=1)
        config = TrainConfig(epochs=3, batch_size=4, seed=11, heads=1,
                             attn_hidden=4, tag_hidden=4, lr=1e-3)
        a = train(tr, val, SCHEMA, config)
        b = train(tr, val, SCHEMA, config)
        for ra, rb in zip(a.history, b.history):
            assert ra.train_loss == rb.train_loss
            assert ra.val_macro_f1 == rb.val_macro_f1
        for (_, ta), (_, tb) in zip(a.params.named_parameters(),
                                    b.params.named_parameters()):
            assert ta.data.tobytes() == tb.data.tobytes()

    def test_lr_zero_leaves_params_at_init(self):
        bags = tiny_dataset()
        tr, val, _ = split(bags, seed=1)
        config = TrainConfig(epochs=2, seed=7, heads=1, attn_hidden=4,
                             tag_hidden=4, lr=0.0)
        result = train(tr, val, SCHEMA, config)
        dims = ModelDims(feature_dim=10, attn_hidden=4, tag_hidden=4, n_heads=1)
        fresh = ModelParams(SCHEMA, dims, "gated", seed=7)
        for (_, got), (_, want) in zip(result.params.named_parameters(),
                                       fresh.named_parameters()):
            np.testing.assert_array_equal(got.data, want.data)

    def test_loss_decreases_on_learnable_data(self):
        bags = tiny_dataset(n_bags=60)
        tr, val, _ = split(bags, seed=2)
        config = TrainConfig(epochs=20, batch_size=8, seed=3, heads=1,
                             attn_hidden=8, tag_hidden=8, lr=3e-3)
        result = train(tr, val, SCHEMA, config)
        assert result.history[-1].train_loss < result.history[0].train_loss

    @pytest.mark.parametrize("variant,heads", [("gated", 3), ("sdpa", 2)])
    def test_stacked_steps_equal_one_forward_per_bag_bit_for_bit(self, monkeypatch,
                                                                  variant, heads):
        # mixed M: batches hold runs of equal-shape bags and runs of one
        bags, val = mixed_bags(seed=3)[:40], mixed_bags(seed=4)[:12]
        config = TrainConfig(epochs=2, batch_size=8, seed=5, variant=variant,
                             heads=heads, attn_hidden=4, tag_hidden=4, lr=1e-2,
                             lambdas=(1.4, 0.6))
        stacks = []
        forward = training.forward

        def recording_forward(bag, params):
            stacks.append(len(bag) if isinstance(bag, list) else 1)
            return forward(bag, params)

        monkeypatch.setattr(training, "forward", recording_forward)
        stacked = train(bags, val, SCHEMA, config)
        monkeypatch.setattr(training, "forward", forward)
        monkeypatch.setattr(training, "_equal_shape_runs",
                            lambda batch: [[bag] for bag in batch])
        alone = train(bags, val, SCHEMA, config)
        assert max(stacks) > 1
        assert stacked.history == alone.history
        assert stacked.best_epoch == alone.best_epoch
        assert stacked.params.flat.tobytes() == alone.params.flat.tobytes()

    def test_empty_split_rejected(self):
        with pytest.raises(ConfigError):
            train([], [], SCHEMA, TrainConfig())

    def test_invalid_configs_rejected(self):
        bags = tiny_dataset(n_bags=10)
        for bad in (
            TrainConfig(lr=-1.0),
            TrainConfig(beta1=1.0),
            TrainConfig(lambdas=(0.0, 0.0)),
            TrainConfig(variant="fancy"),
            TrainConfig(batch_size=0),
            TrainConfig(seed=-1),
        ):
            with pytest.raises(ConfigError):
                train(bags, [], SCHEMA, bad)


class TestEvaluate:
    def test_order_invariant(self):
        bags = tiny_dataset(n_bags=30)
        dims = ModelDims(feature_dim=10, attn_hidden=4, tag_hidden=4, n_heads=1)
        params = ModelParams(SCHEMA, dims, "gated", 0)
        report = evaluate(params, bags)
        shuffled = evaluate(params, list(reversed(bags)))
        assert report.avg_macro_f1 == shuffled.avg_macro_f1

    @pytest.mark.parametrize("variant,heads", [("gated", 3), ("sdpa", 2)])
    def test_report_equals_one_bag_at_a_time(self, variant, heads):
        params = stack_params(variant, heads)
        bags = mixed_bags()
        predictions = [[int(np.argmax(p)) for p in predict_probs(bag, params)[0]]
                       for bag in bags]
        want = build_report(SCHEMA, np.array([b.labels for b in bags]),
                            np.array(predictions))
        assert evaluate(params, bags).to_json() == want.to_json()

    def test_empty_dataset_rejected(self):
        dims = ModelDims(feature_dim=10, n_heads=0)
        params = ModelParams(SCHEMA, dims, "gated", 0)
        with pytest.raises(ConfigError):
            evaluate(params, [])


class TestHistoryCsv:
    def test_columns_and_values(self):
        bags = tiny_dataset(n_bags=20)
        tr, val, _ = split(bags, seed=1)
        config = TrainConfig(epochs=2, seed=5, heads=0, lr=1e-3)
        result = train(tr, val, SCHEMA, config)
        lines = history_csv_lines(result.history, SCHEMA)
        header = lines[0].split(",")
        assert header == [
            "epoch", "train_loss",
            "val_macro_f1_size", "val_macro_f1_tone",
            "val_micro_f1_size", "val_micro_f1_tone",
        ]
        row = lines[1].split(",")
        assert float(row[1]) == result.history[0].train_loss


class TestRanking:
    def test_uniform_weights_rank_in_natural_order(self):
        np.testing.assert_array_equal(rank_patches(np.full(5, 0.2)),
                                      [0, 1, 2, 3, 4])

    def test_one_hot_ranks_hot_patch_first(self):
        w = np.zeros(10)
        w[7] = 1.0
        ranked = rank_patches(w)
        assert ranked[0] == 7
        np.testing.assert_array_equal(ranked[1:], [0, 1, 2, 3, 4, 5, 6, 8, 9])

    def test_ties_keep_patch_order_like_a_two_key_sort(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            w = rng.choice([0.1, 0.25, 0.4], size=rng.integers(1, 30))
            idx = np.arange(len(w))
            np.testing.assert_array_equal(rank_patches(w),
                                          idx[np.lexsort((idx, -w))])

    @pytest.mark.parametrize("variant,heads", [("gated", 3), ("sdpa", 2)])
    def test_export_files_equal_one_bag_at_a_time(self, tmp_path, variant, heads):
        params = stack_params(variant, heads)
        bags = mixed_bags(seed=1)
        written = export_attention(params, bags, tmp_path, svg=True)
        assert written == [str(tmp_path / f"attention_{b.bag_id}.{ext}")
                           for b in bags for ext in ("csv", "svg")]
        for bag in bags:
            _, record = predict_probs(bag, params)
            lines = ["task,rank,patch_index,weight"]
            for task, weights in zip(SCHEMA.task_names, record.tag_weights):
                lines += [f"{task},{rank},{patch},{float(weights[patch])!r}"
                          for rank, patch in enumerate(rank_patches(weights).tolist())]
            path = tmp_path / f"attention_{bag.bag_id}"
            assert path.with_suffix(".csv").read_text() == "\n".join(lines) + "\n"
            assert path.with_suffix(".svg").read_text() == attention_bars_svg(
                record.tag_weights, SCHEMA.task_names)

    def test_export_matches_forward_record_bit_exact(self, tmp_path):
        bags = tiny_dataset(n_bags=3)
        dims = ModelDims(feature_dim=10, attn_hidden=4, tag_hidden=4, n_heads=2)
        params = ModelParams(SCHEMA, dims, "gated", 1)
        export_attention(params, bags, tmp_path, svg=True)
        for bag in bags:
            _, record = predict_probs(bag, params)
            path = tmp_path / f"attention_{bag.bag_id}.csv"
            with open(path) as fh:
                rows = list(csv.DictReader(fh))
            for task_idx, task in enumerate(SCHEMA.task_names):
                weights = record.tag_weights[task_idx]
                task_rows = [r for r in rows if r["task"] == task]
                assert len(task_rows) == bag.n_patches
                for r in task_rows:
                    # repr round-trip: parsed float is the exact stored value
                    assert float(r["weight"]) == weights[int(r["patch_index"])]
            assert (tmp_path / f"attention_{bag.bag_id}.svg").exists()
