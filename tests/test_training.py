import csv
import hashlib
import math

import numpy as np
import pytest

from patchbag import training
from patchbag.autodiff import Tensor, backward
from patchbag.errors import ConfigError, ContractError
from patchbag.metrics import build_report
from patchbag.model import (
    ModelDims,
    ModelParams,
    TagSchema,
    predict_probs,
    save_checkpoint,
    softmax,
    softmax_grad,
)
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
    write_history_csv,
)

from oracles import assert_grads_match

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


def leaf(values):
    """A trainable matrix outside any model: its data and a zeroed grad slot."""
    data = np.array(values, dtype=np.float64)
    return Tensor(data, grad=np.zeros_like(data))


def prob_row(values):
    """A probability row that is its own leaf: its backward adds the
    gradient at the row into its grad slot."""
    t = leaf(values)
    return Tensor(t.data, lambda rows: np.add(t.grad, rows[0], out=t.grad), t.grad)


def softmax_rows(logits):
    """One bag's probability rows: the softmax of each of its logit leaves.

    The rows share one backward, which adds each row's gradient back
    through its softmax into its leaf.
    """
    ys = [softmax(t.data, axis=1) for t in logits]

    def rows_backward(rows):
        for t, y, g in zip(logits, ys, rows):
            t.grad += softmax_grad(y, g, axis=1)

    return [Tensor(y, rows_backward) for y in ys]


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

    def test_task_with_two_class_counts_rejected_naming_both(self):
        probs = [[prob_row([[0.2, 0.3, 0.5]]), prob_row([[0.4, 0.6]])]]
        with pytest.raises(ContractError, match=r"task 0 mixes class counts \[2, 3\]"):
            multi_task_loss(probs, [[0], [1]], (1.0,))

    def test_label_out_of_range_rejected(self):
        probs = [as_prob_tensors([[0.5, 0.5]])]
        with pytest.raises(ContractError):
            multi_task_loss(probs, [[2]], (1.0,))

    def test_value_and_gradient_of_one_row(self):
        p = prob_row([[0.25, 0.75]])
        loss = multi_task_loss([[p]], np.array([[1]]), (2.0,))
        assert float(loss.data) == -2.0 * math.log(0.75)
        backward(loss)
        np.testing.assert_array_equal(p.grad, [[0.0, -2.0 / 0.75]])

    def test_floor_clamps_value_and_zeroes_gradient(self):
        p = prob_row([[1e-20, 1.0]])
        loss = multi_task_loss([[p]], np.array([[0]]), (1.0,))
        assert float(loss.data) == -math.log(1e-12)
        backward(loss)
        np.testing.assert_array_equal(p.grad, [[0.0, 0.0]])

    def test_two_tasks_batch_three_matches_finite_differences(self):
        # task 0 weighs 1.3, task 1 weighs 0 (lambda / 3 bags); bag 1's task-0
        # label gets a probability near e**-40, below the 1e-12 floor, where
        # the loss is flat
        rng = np.random.default_rng(37)
        logits = [[leaf(rng.normal(size=(1, c))) for _ in range(3)] for c in (3, 4)]
        labels = np.array([[0, 3], [2, 1], [1, 0]])
        logits[0][1].data[0] = [0.0, 0.0, -40.0]
        leaves = [t for task in logits for t in task]

        def loss_builder():
            bags = [softmax_rows([task[i] for task in logits]) for i in range(3)]
            return multi_task_loss([list(task) for task in zip(*bags)], labels, (3.9, 0.0))

        assert 3.9 / 3 == 1.3
        assert softmax(logits[0][1].data, axis=1)[0, 2] < training.LOG_FLOOR
        assert_grads_match(loss_builder, leaves, rel=1e-6, abs_=1e-10)
        for t in logits[1] + [logits[0][1]]:
            np.testing.assert_array_equal(t.grad, np.zeros_like(t.data))
        assert np.all(logits[0][0].grad != 0.0)

    def test_loss_without_trainable_input_rejected(self):
        # probability rows without a backward: nothing trainable made them
        loss = multi_task_loss([[Tensor([[0.5, 0.5]])]], np.array([[0]]), (1.0,))
        with pytest.raises(ContractError):
            backward(loss)

    @pytest.mark.parametrize("n_lambdas", [1, 3])
    def test_lambda_count_must_match_tasks(self, n_lambdas):
        # one weight must not broadcast over both tasks
        probs = [as_prob_tensors([[0.5, 0.5]]), as_prob_tensors([[0.2, 0.8]])]
        with pytest.raises(ContractError) as err:
            multi_task_loss(probs, [[1, 0]], (2.0,) * n_lambdas)
        assert f"{n_lambdas} lambdas for 2 tasks" in str(err.value)

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError) as err:
            multi_task_loss([[], []], np.zeros((0, 2), dtype=np.int64), (1.0, 1.0))
        assert "labels (0, 2)" in str(err.value)


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
    # sha256 of checkpoint.ckpt and history.csv of two short seeded runs,
    # written before the loss moved out of patchbag.autodiff: gated 3-head at
    # batch 1 with unequal lambdas, and gated 2-head at batch 8 on bags of
    # mixed M, whose batches split into runs of equal shape
    @pytest.mark.parametrize("bags,config,ckpt_digest,history_digest", [
        (tiny_dataset, TrainConfig(epochs=2, batch_size=1, seed=5, heads=3, attn_hidden=4,
                                   tag_hidden=4, lr=1e-3, lambdas=(1.3, 0.4)),
         "c1de311bc3c8b6b04dc2e4d90056d85c14b2caa809df362de952d9d9d1f1785b",
         "a9dabdd711ec2193266f09d883eee9a7bc3e00c154beedf3495ef1389ed59525"),
        (lambda: mixed_bags(seed=2),
         TrainConfig(epochs=2, batch_size=8, seed=6, heads=2, attn_hidden=4,
                     tag_hidden=4, lr=1e-3),
         "7b77001280647603a6b8938cdcc008a1e8cd6388ee9402f8ea40ec5bb2b8cd80",
         "3a7a06f2772183a99f60bd65a577d8caa3925e93d5910df2f099c0898188ddd0"),
    ], ids=["gated3_b1_lambdas", "gated2_b8_mixed"])
    def test_trained_bytes_are_pinned(self, tmp_path, bags, config, ckpt_digest,
                                      history_digest):
        tr, val, _ = split(bags(), seed=1)
        result = train(tr, val, SCHEMA, config)
        save_checkpoint(result.params, tmp_path / "checkpoint.ckpt")
        write_history_csv(result.history, SCHEMA, tmp_path / "history.csv")
        for name, digest in (("checkpoint.ckpt", ckpt_digest),
                             ("history.csv", history_digest)):
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

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

    @pytest.mark.parametrize("split_name", ["train", "val"])
    def test_bag_of_another_width_rejected_naming_both(self, split_name):
        bags = tiny_dataset(n_bags=10)
        odd = PatchBag("odd", np.ones((6, 4)), (0, 0))
        splits = {"train": bags[:8], "val": bags[8:]}
        splits[split_name] = splits[split_name] + [odd]
        with pytest.raises(ConfigError, match="'odd' has feature width 4, the first bag 10"):
            train(splits["train"], splits["val"], SCHEMA, TrainConfig(epochs=1))

    @pytest.mark.parametrize("labels,text", [
        ((0,), "'odd' has 1 labels, the schema has 2 tasks"),
        ((0, 2), "'odd' label 2 is not a class of task 'tone'"),
        ((-1, 0), "'odd' label -1 is not a class of task 'size'"),
    ], ids=["count", "above", "negative"])
    def test_bad_labels_rejected_naming_bag_and_task(self, labels, text):
        bags = tiny_dataset(n_bags=10)
        odd = PatchBag("odd", np.ones((6, 10)), (0, 0))
        odd.labels = labels
        with pytest.raises(ConfigError, match=text):
            train(bags[:8], bags[8:] + [odd], SCHEMA, TrainConfig(epochs=1))

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
