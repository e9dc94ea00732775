import csv
import math

import numpy as np
import pytest

from patchbag.autodiff import Tensor
from patchbag.errors import ConfigError, ContractError
from patchbag.model import ModelDims, ModelParams, TagSchema, predict_probs
from patchbag.synth import SynthConfig, generate, split
from patchbag.training import (
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


class TestAdam:
    def test_defaults_match_training_settings(self):
        config = TrainConfig()
        assert (config.lr, config.beta1, config.beta2) == (1e-4, 0.9, 0.999)
        adam = Adam([("w", Tensor([[1.0]], requires_grad=True))])
        assert (adam.lr, adam.beta1, adam.beta2, adam.epsilon) == \
            (1e-4, 0.9, 0.999, 1e-8)

    def test_zero_gradient_leaves_params_and_decays_moments(self):
        w = Tensor([[2.0]], requires_grad=True)
        adam = Adam([("w", w)], lr=0.1)
        w.grad = np.array([[1.0]])
        adam.step()
        after_first = w.data.copy()
        m1, v1 = adam.m[0].copy(), adam.v[0].copy()
        w.grad = np.array([[0.0]])
        adam.step()
        np.testing.assert_allclose(adam.m[0], 0.9 * m1)
        np.testing.assert_allclose(adam.v[0], 0.999 * v1)
        # fresh moments case: zero grad from the start moves nothing
        w2 = Tensor([[5.0]], requires_grad=True)
        adam2 = Adam([("w", w2)], lr=0.1)
        w2.grad = np.array([[0.0]])
        adam2.step()
        np.testing.assert_array_equal(w2.data, [[5.0]])
        assert not np.array_equal(w.data, after_first)  # nonzero m keeps moving

    def test_single_scalar_first_step_update(self):
        lr = 1e-3
        w = Tensor([[0.0]], requires_grad=True)
        adam = Adam([("w", w)], lr=lr)
        w.grad = np.array([[1.0]])
        adam.step()
        # hand-evaluated recurrence: m_hat = v_hat = 1 at t = 1
        expected = -lr * 1.0 / (math.sqrt(1.0) + adam.epsilon)
        np.testing.assert_allclose(w.data, [[expected]], rtol=1e-15)
        assert abs(w.data[0, 0] + lr) < 1e-10

    def test_missing_gradient_rejected(self):
        adam = Adam([("w", Tensor([[1.0]], requires_grad=True))])
        with pytest.raises(ContractError):
            adam.step()


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
