import hashlib
import math
import os

import numpy as np
import pytest

from patchbag import autodiff as ad
from patchbag import model
from patchbag.autodiff import Tensor
from patchbag.errors import (
    ConfigError,
    ContractError,
    DimensionError,
    EmptyBagError,
    IntegrityError,
    NumericError,
    ParseError,
    PatchbagError,
)
from patchbag.model import (
    DEFAULT_SCHEMA,
    ModelDims,
    ModelParams,
    TagSchema,
    forward,
    head_attention,
    load_checkpoint,
    patch_transform,
    predict_probs,
    predict_tag,
    save_checkpoint,
    sdpa_transform,
    softmax,
    softmax_grad,
    tag_attention,
)
from patchbag.synth import PatchBag
from patchbag.training import Adam, multi_task_loss
from patchbag.training import _equal_shape_runs as equal_shape_runs

from oracles import assert_grads_match, softmax_by_scalar

SMALL_SCHEMA = TagSchema(tasks=(("first", ("a", "b")), ("second", ("x", "y", "z"))))


def small_params(variant="gated", heads=2, feature_dim=6, seed=1):
    dims = ModelDims(feature_dim=feature_dim, attn_hidden=4, tag_hidden=4,
                     n_heads=heads)
    return ModelParams(SMALL_SCHEMA, dims, variant, seed)


def leaf(values):
    """A trainable matrix outside any model: its data and a zeroed grad slot."""
    data = np.array(values, dtype=np.float64)
    return Tensor(data, grad=np.zeros_like(data))


def weighed(out, w, backward):
    """sum(out * w) as a loss whose backward hands g * w to `backward`."""
    return Tensor(np.sum(out * w), lambda g: backward(g * w))


def add_into(t):
    """A function that adds its argument into t's grad slot."""
    return lambda grad: np.add(t.grad, grad, out=t.grad)


def random_bag(rng, n_patches, feature_dim, schema=SMALL_SCHEMA, bag_id="bag"):
    labels = tuple(int(rng.integers(c)) for c in schema.class_counts)
    return PatchBag(bag_id=bag_id, features=rng.normal(size=(n_patches, feature_dim)),
                    labels=labels)


class TestSchema:
    def test_default_mirrors_three_six_sixteen(self):
        assert DEFAULT_SCHEMA.task_names == ("stain", "species", "organ")
        assert DEFAULT_SCHEMA.class_counts == (3, 6, 16)

    def test_rejects_duplicate_classes(self):
        with pytest.raises(ConfigError):
            TagSchema(tasks=(("t", ("a", "a")),))

    def test_rejects_single_class_task(self):
        with pytest.raises(ConfigError):
            TagSchema(tasks=(("t", ("only",)),))

    @pytest.mark.parametrize("tasks", [
        (("t", ("a b", "c")),), (("t", ("", "c")),), (("t u", ("a", "c")),),
        (("", ("a", "c")),), (("t=u", ("a", "c")),), (("t", ("a", 1)),),
    ])
    def test_rejects_names_the_text_formats_cannot_carry(self, tasks):
        with pytest.raises(ConfigError):
            TagSchema(tasks=tasks)


class TestSoftmax:
    def test_equal_logits_give_uniform(self):
        for c in (-7.0, 0.0, 3.5):
            out = softmax(np.full((4, 1), c), axis=0)
            np.testing.assert_allclose(out, 0.25, rtol=0, atol=1e-15)

    def test_single_element(self):
        np.testing.assert_array_equal(softmax(np.array([[4.2]]), axis=0), [[1.0]])

    def test_closed_form_quarter_three_quarters(self):
        out = softmax(np.array([[0.0], [math.log(3.0)]]), axis=0)
        np.testing.assert_allclose(out[:, 0], [0.25, 0.75], rtol=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=6) * 3
        out = softmax(logits.reshape(-1, 1), axis=0)
        np.testing.assert_allclose(out[:, 0], softmax_by_scalar(list(logits)),
                                   rtol=1e-12)

    def test_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.normal(size=(rng.integers(1, 20), 1)) * 10
            y = softmax(x, axis=0)
            assert abs(y.sum() - 1.0) <= 1e-12
            np.testing.assert_allclose(y, softmax(x + 123.456, axis=0), atol=1e-12)

    def test_nan_input_raises(self):
        with pytest.raises(NumericError):
            softmax(np.array([[1.0], [float("nan")]]), axis=0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = leaf(rng.normal(size=(5, 3)))
        w = rng.normal(size=(5, 3))
        for axis in (0, 1):
            x.grad[...] = 0.0

            def loss():
                y = softmax(x.data, axis)
                return weighed(y, w, lambda g: add_into(x)(softmax_grad(y, g, axis)))

            assert_grads_match(loss, [x], rel=1e-6)


class TestHeadAttention:
    def test_single_patch_gets_full_weight(self):
        params = small_params(feature_dim=3)
        V = np.random.default_rng(0).normal(size=(1, 3))
        a, _ = head_attention(V, params.heads["gate_proj"].data[0],
                              params.heads["gate_score"].data[0])
        np.testing.assert_array_equal(a, [[1.0]])

    def test_zero_gate_gives_uniform(self):
        V = np.random.default_rng(1).normal(size=(4, 6))
        zero_proj = np.zeros((6, 4))
        score = np.random.default_rng(2).normal(size=(4, 1))
        a, _ = head_attention(V, zero_proj, score)
        np.testing.assert_allclose(a, 0.25, atol=1e-15)

    def test_scalar_chain_matches_oracle(self):
        # D % 1, one hidden unit: logits are w * tanh(u * v)
        V = np.array([[0.0], [10.0]])
        a, _ = head_attention(V, np.array([[1.0]]), np.array([[1.0]]))
        logits = [1.0 * math.tanh(1.0 * 0.0), 1.0 * math.tanh(1.0 * 10.0)]
        np.testing.assert_allclose(a[:, 0], softmax_by_scalar(logits),
                                   rtol=1e-12)
        np.testing.assert_allclose(a[:, 0], [0.2689, 0.7311], atol=5e-5)

    def test_empty_bag_rejected(self):
        params = small_params(feature_dim=3)
        with pytest.raises(EmptyBagError):
            head_attention(np.zeros((0, 3)),
                           params.heads["gate_proj"].data[0],
                           params.heads["gate_score"].data[0])


def row_scaling_transform(gate_proj, gate_score):
    """A 1-head gated transform of 2-wide rows whose projection is the identity.

    Its output is relu(V + a * V): each row plus its copy scaled by the
    head's weight for that row.
    """
    dims = ModelDims(feature_dim=2, attn_hidden=len(gate_score), tag_hidden=4, n_heads=1)
    params = ModelParams(SMALL_SCHEMA, dims, "gated", seed=0)
    params.heads["gate_proj"].data[0] = gate_proj
    params.heads["gate_score"].data[0] = gate_score
    params.proj.data[...] = np.eye(2)
    return params


class TestHeadFeature:
    """Each head's copy of V, every row scaled by that head's weight."""

    def test_uniform_weights_scale_by_one_over_m(self):
        V = np.arange(1.0, 9.0).reshape(4, 2)
        params = row_scaling_transform(np.zeros((2, 3)), [[1.0], [2.0], [3.0]])
        out, (a,), _ = patch_transform(V, params)
        np.testing.assert_array_equal(a, np.full((4, 1), 0.25))
        np.testing.assert_allclose(out, V + V / 4.0)

    def test_one_hot_keeps_single_row(self):
        # logits (0, 0, 1000 tanh 5): the first two weights underflow to 0
        V = np.array([[0.0, 1.0], [0.0, 2.0], [5.0, 3.0]])
        params = row_scaling_transform([[1.0], [0.0]], [[1000.0]])
        out, (a,), _ = patch_transform(V, params)
        np.testing.assert_array_equal(a, [[0.0], [0.0], [1.0]])
        np.testing.assert_array_equal(out[:2], V[:2])
        np.testing.assert_array_equal(out[2], 2.0 * V[2])

    def test_rows_scaled_against_loop_oracle(self):
        rng = np.random.default_rng(3)
        V = rng.normal(size=(3, 2))
        params = row_scaling_transform(rng.normal(size=(2, 3)), rng.normal(size=(3, 1)))
        out, (a,), _ = patch_transform(V, params)
        w = a[:, 0]
        for m in range(3):
            for d in range(2):
                assert out[m, d] == max(V[m, d] + w[m] * V[m, d], 0.0)


class TestPatchTransform:
    @pytest.mark.parametrize("variant", ["gated", "sdpa"])
    def test_zero_heads_rejected_naming_the_count(self, variant):
        params = small_params(variant=variant, heads=0)
        transform = patch_transform if variant == "gated" else sdpa_transform
        with pytest.raises(ContractError, match="0 heads"):
            transform(np.ones((3, 6)), params)

    def test_zero_projection_reduces_to_relu(self):
        params = small_params()
        params.proj.data[:] = 0.0
        V = np.random.default_rng(4).normal(size=(5, 6))
        out, _, _ = patch_transform(V, params)
        np.testing.assert_array_equal(out, np.maximum(V, 0.0))

    def test_paper_scale_shapes(self):
        # 32 patches of 2048 features in, same shape out
        dims = ModelDims(feature_dim=2048, attn_hidden=8, tag_hidden=8, n_heads=1)
        params = ModelParams(SMALL_SCHEMA, dims, "gated", seed=0)
        V = np.random.default_rng(5).normal(size=(32, 2048))
        out, weights, _ = patch_transform(V, params)
        assert out.shape == (32, 2048)
        assert len(weights) == 1 and weights[0].shape == (32, 1)

    def test_row_permutation_equivariant(self):
        params = small_params()
        rng = np.random.default_rng(6)
        V = rng.normal(size=(7, 6))
        perm = rng.permutation(7)
        direct, _, _ = patch_transform(V[perm], params)
        swapped, _, _ = patch_transform(V, params)
        np.testing.assert_allclose(direct, swapped[perm], atol=1e-12)


class TestSdpaTransform:
    def test_single_patch_attention_is_one(self):
        params = small_params(variant="sdpa", heads=2)
        V = np.random.default_rng(7).normal(size=(1, 6))
        out, mats, _ = sdpa_transform(V, params)
        for m in mats:
            np.testing.assert_array_equal(m, [[1.0]])
        assert out.shape == (1, 6)

    def test_rows_sum_to_one(self):
        params = small_params(variant="sdpa", heads=3)
        V = np.random.default_rng(8).normal(size=(9, 6))
        _, mats, _ = sdpa_transform(V, params)
        for m in mats:
            np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-12)

    def test_row_permutation_equivariant(self):
        params = small_params(variant="sdpa", heads=2)
        rng = np.random.default_rng(9)
        V = rng.normal(size=(6, 6))
        perm = rng.permutation(6)
        direct, _, _ = sdpa_transform(V[perm], params)
        plain, _, _ = sdpa_transform(V, params)
        np.testing.assert_allclose(direct, plain[perm], atol=1e-12)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ConfigError):
            ModelParams(SMALL_SCHEMA,
                        ModelDims(feature_dim=6, n_heads=4), "sdpa", 0)


class TestTagAttention:
    def test_single_patch_returns_that_row(self):
        params = small_params()
        Vp = np.random.default_rng(10).normal(size=(1, 6))
        pooled, alpha, _ = tag_attention(Vp, *(t.data[0] for t in params.tag_gates))
        np.testing.assert_array_equal(alpha, [[1.0]])
        np.testing.assert_array_equal(pooled[0], Vp[0])

    def test_zero_gate_pools_to_column_mean(self):
        rng = np.random.default_rng(11)
        Vp = rng.normal(size=(5, 6))
        pooled, alpha, _ = tag_attention(Vp, np.zeros((6, 4)), rng.normal(size=(4, 1)))
        np.testing.assert_allclose(alpha, 0.2, atol=1e-15)
        np.testing.assert_allclose(pooled[0], Vp.mean(axis=0), atol=1e-12)

    def test_forced_three_quarters_weighting(self):
        # logits (ln 3, 0) make alpha = (0.75, 0.25) exactly
        Vp = np.eye(2)
        gate_proj = np.array([[5.0, 0.0], [0.0, 0.0]])
        gate_score = np.array([[math.log(3.0) / math.tanh(5.0)], [0.0]])
        pooled, alpha, _ = tag_attention(Vp, gate_proj, gate_score)
        np.testing.assert_allclose(alpha[:, 0], [0.75, 0.25], rtol=1e-12)
        np.testing.assert_allclose(pooled[0], [0.75, 0.25], rtol=1e-12)

    def test_stacked_gates_equal_one_call_per_gate_bit_for_bit(self):
        # K = 3 gates over a stack of 2 bags, forward and backward: the
        # gradient at V' takes each task's pooling term, then its gate term
        rng = np.random.default_rng(60)
        Vp = rng.normal(size=(2, 5, 4))
        gate_proj, gate_score = rng.normal(size=(3, 4, 3)), rng.normal(size=(3, 3, 1))
        g = rng.normal(size=(2, 3, 1, 4))
        pooled, alpha, backward = tag_attention(Vp[:, None], gate_proj, gate_score)
        got = [np.zeros_like(a) for a in (Vp, gate_proj, gate_score)]
        backward(g, *got)
        want = [np.zeros_like(a) for a in got]
        for k in range(3):
            p, a, one_backward = tag_attention(Vp, gate_proj[k], gate_score[k])
            assert np.array_equal(pooled[:, k], p) and np.array_equal(alpha[:, k], a)
            one_backward(g[:, k], want[0], want[1][k], want[2][k])
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


class TestPredictTag:
    def test_zero_classifier_gives_uniform(self):
        pooled = np.random.default_rng(12).normal(size=(1, 6))
        probs, _ = predict_tag(pooled, np.zeros((6, 3)))
        np.testing.assert_allclose(probs, 1.0 / 3.0, atol=1e-15)

    def test_sixteen_class_head(self):
        pooled = np.random.default_rng(13).normal(size=(1, 6))
        probs, _ = predict_tag(pooled, np.random.default_rng(14).normal(size=(6, 16)))
        assert probs.shape == (1, 16)
        assert abs(probs.sum() - 1.0) <= 1e-12

    def test_matches_scalar_softmax_oracle(self):
        rng = np.random.default_rng(15)
        pooled = rng.normal(size=(1, 4))
        w = rng.normal(size=(4, 3))
        probs = predict_tag(pooled, w)[0][0]
        np.testing.assert_allclose(
            probs, softmax_by_scalar(list((pooled @ w)[0])), rtol=1e-12
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            predict_tag(np.ones((1, 5)), np.ones((6, 3)))


class TestForward:
    def test_output_arity_matches_schema(self):
        dims = ModelDims(feature_dim=8, attn_hidden=4, tag_hidden=4, n_heads=1)
        params = ModelParams(DEFAULT_SCHEMA, dims, "gated", 0)
        rng = np.random.default_rng(16)
        bag = random_bag(rng, 5, 8, schema=DEFAULT_SCHEMA)
        probs, record = predict_probs(bag, params)
        assert [len(p) for p in probs] == [3, 6, 16]
        assert len(record.tag_weights) == 3

    @pytest.mark.parametrize("variant,heads", [("gated", 2), ("sdpa", 2), ("gated", 0)])
    def test_patch_permutation_leaves_probs_unchanged(self, variant, heads):
        params = small_params(variant=variant, heads=heads)
        rng = np.random.default_rng(17)
        bag = random_bag(rng, 8, 6)
        perm = rng.permutation(8)
        shuffled = PatchBag("bag-p", bag.features[perm], bag.labels)
        probs_a, rec_a = predict_probs(bag, params)
        probs_b, rec_b = predict_probs(shuffled, params)
        for pa, pb in zip(probs_a, probs_b):
            np.testing.assert_allclose(pa, pb, atol=1e-10)
        for wa, wb in zip(rec_a.tag_weights, rec_b.tag_weights):
            np.testing.assert_allclose(wa[perm], wb, atol=1e-12)

    def test_attention_record_vectors_normalized(self):
        params = small_params()
        rng = np.random.default_rng(18)
        bag = random_bag(rng, 6, 6)
        _, record = predict_probs(bag, params)
        for w in record.head_weights + record.tag_weights:
            assert w.shape == (6,)
            assert abs(w.sum() - 1.0) <= 1e-9
            assert np.all(w >= 0) and np.all(w <= 1)

    def test_dim_mismatch_and_empty_bag(self):
        params = small_params()
        rng = np.random.default_rng(19)
        with pytest.raises(DimensionError):
            forward(random_bag(rng, 4, 5), params)
        bad = PatchBag("ok", rng.normal(size=(1, 6)), (0, 0))
        bad.features = np.zeros((0, 6))  # bypass the constructor guard
        with pytest.raises(EmptyBagError):
            forward(bad, params)

    def test_heads_zero_skips_transform(self):
        params = small_params(heads=0)
        assert params.proj is None and params.heads == {}
        rng = np.random.default_rng(20)
        bag = random_bag(rng, 4, 6)
        probs, record = predict_probs(bag, params)
        assert record.head_weights == []
        assert len(probs) == 2


class TestAttentionRecord:
    """The record keeps forward's raw arrays and arranges copies when read."""

    @pytest.mark.parametrize("bags", [1, 3], ids=["bag", "stack"])
    def test_each_read_is_a_fresh_copy(self, bags):
        params = small_params(heads=2)
        rng = np.random.default_rng(28)
        batch = [random_bag(rng, 5, 6, bag_id=f"b{i}") for i in range(bags)]
        _, record = forward(batch if bags > 1 else batch[0], params)
        for name in ("head_weights", "tag_weights"):
            first, second = getattr(record, name), getattr(record, name)
            assert len(first) == 2
            for a, b in zip(first, second, strict=True):
                assert np.array_equal(a, b) and not np.shares_memory(a, b)
                a[...] = -1.0
            for b, c in zip(second, getattr(record, name), strict=True):
                assert np.array_equal(b, c)

    @pytest.mark.parametrize("variant,heads", [("gated", 3), ("sdpa", 2), ("gated", 0)])
    def test_record_outlives_later_forwards_and_steps(self, variant, heads):
        params = small_params(variant=variant, heads=heads)
        rng = np.random.default_rng(29)
        bag, other = (random_bag(rng, 6, 6, bag_id=name) for name in ("bag", "other"))
        _, record = forward(bag, params)
        want = record.head_weights + record.tag_weights
        adam = Adam(params, lr=1e-1)
        for _ in range(2):
            adam.zero_grad()
            probs, _ = forward(other, params)
            ad.backward(multi_task_loss([[p] for p in probs], [other.labels], (1.0, 1.0)))
            adam.step()
        assert record.bag_id == "bag"
        for got, w in zip(record.head_weights + record.tag_weights, want, strict=True):
            assert np.array_equal(got, w)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestFiniteness:
    """A NaN or Inf that forward meets raises NumericError, before any step."""

    ARMS = [("gated", 3), ("gated", 1), ("gated", 0), ("sdpa", 4)]

    @staticmethod
    def planted_matrices(heads, variant):
        head = {"gated": f"head{heads - 1}.gate_score", "sdpa": f"head{heads - 1}.query"}
        return ([head[variant]] if heads else []) + ["tag1.gate_score", "tag0.classify"]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("variant,heads", ARMS)
    def test_planted_parameter_raises(self, variant, heads, value):
        params = small_params(variant=variant, heads=heads, feature_dim=8)
        bag = random_bag(np.random.default_rng(30), 5, 8)
        for name in self.planted_matrices(heads, variant):
            planted = params.copy()
            dict(planted.named_parameters())[name].data[0, 0] = value
            assert not np.isfinite(planted.flat).all()
            with pytest.raises(NumericError):
                forward(bag, planted)
            with pytest.raises(NumericError):
                forward([bag, bag], planted)

    @pytest.mark.parametrize("variant,heads", ARMS)
    @pytest.mark.parametrize("where", ["features", "classifier"])
    def test_step_that_meets_a_non_finite_value_leaves_params(self, variant, heads,
                                                              where):
        params = small_params(variant=variant, heads=heads, feature_dim=8)
        rng = np.random.default_rng(31)
        good, bad = random_bag(rng, 5, 8), random_bag(rng, 5, 8)
        adam = Adam(params, lr=1e-2)

        def step(bag):
            adam.zero_grad()
            probs, _ = forward(bag, params)
            ad.backward(multi_task_loss([[p] for p in probs], [bag.labels], (1.0, 1.0)))
            adam.step()

        step(good)
        if where == "features":
            bad.features[2, 3] = np.nan
        else:
            params.classifiers[1].data[4, 0] = np.inf
        before = params.flat.tobytes(), adam.m.tobytes(), adam.v.tobytes(), adam.t
        with pytest.raises(NumericError):
            step(bad)
        assert (params.flat.tobytes(), adam.m.tobytes(), adam.v.tobytes(),
                adam.t) == before


class TestStackedForward:
    @pytest.mark.parametrize("variant,heads", [("gated", 3), ("gated", 1), ("gated", 0),
                                               ("sdpa", 2)])
    @pytest.mark.parametrize("n_bags", [1, 5])
    def test_each_stacked_bag_equals_its_own_forward_bit_for_bit(self, variant, heads,
                                                                 n_bags):
        params = small_params(variant=variant, heads=heads)
        rng = np.random.default_rng(21)
        bags = [random_bag(rng, 7, 6, bag_id=f"b{i}") for i in range(n_bags)]
        probs, record = forward(bags, params)
        assert record.bag_id == tuple(b.bag_id for b in bags)
        assert [p.data.shape for p in probs] == [(n_bags, 1, 2), (n_bags, 1, 3)]
        assert len(record.head_weights) == (heads if variant == "gated" else 0)
        for i, bag in enumerate(bags):
            alone, rec = forward(bag, params)
            for p, q in zip(probs, alone):
                assert np.array_equal(p.data[i], q.data)
            for w, v in zip(record.tag_weights + record.head_weights,
                            rec.tag_weights + rec.head_weights, strict=True):
                assert np.array_equal(w[i], v)

    def test_predict_probs_gives_each_stacked_bag_its_row(self):
        params = small_params()
        rng = np.random.default_rng(27)
        bags = [random_bag(rng, 5, 6, bag_id=f"b{i}") for i in range(3)]
        probs, _ = predict_probs(bags, params)
        assert [p.shape for p in probs] == [(3, 2), (3, 3)]
        for i, bag in enumerate(bags):
            alone, _ = predict_probs(bag, params)
            assert [q.shape for q in alone] == [(2,), (3,)]
            for p, q in zip(probs, alone):
                assert np.array_equal(p[i], q)

    def test_mixed_shapes_rejected_naming_both(self):
        params = small_params()
        rng = np.random.default_rng(22)
        bags = [random_bag(rng, 4, 6, bag_id="four"), random_bag(rng, 5, 6, bag_id="five")]
        with pytest.raises(DimensionError, match=r"\(5, 6\).*\(4, 6\)"):
            forward(bags, params)

    def test_empty_list_rejected(self):
        with pytest.raises(PatchbagError, match="empty list"):
            forward([], small_params())

    def test_four_dimensional_stack_rejected(self):
        params = small_params()
        bag = PatchBag("ok", np.ones((2, 6)), (0, 0))
        bag.features = np.ones((3, 2, 6))  # bypass the constructor guard
        with pytest.raises(DimensionError, match=r"2-D, got \(3, 2, 6\)"):
            forward([bag, bag], params)

    def test_feature_dim_checked_against_the_model(self):
        rng = np.random.default_rng(23)
        with pytest.raises(DimensionError, match="feature dim 5 != model feature_dim 6"):
            forward([random_bag(rng, 4, 5)], small_params())


def train_steps(params, batches, cut):
    """Loss, params.grad and params.flat bytes after each Adam step, running
    each batch as the runs `cut(batch)` gives: a run of one as one bag."""
    adam = Adam(params, lr=1e-2)
    seen = []
    for batch in batches:
        adam.zero_grad()
        per_task = [[] for _ in params.schema.tasks]
        for run in cut(batch):
            probs, _ = forward(run if len(run) > 1 else run[0], params)
            for k, p in enumerate(probs):
                per_task[k].append(p)
        loss = multi_task_loss(per_task, [b.labels for b in batch], (1.3, 0.4))
        ad.backward(loss)
        adam.step()
        seen.append((loss.data.tobytes(), params.grad.tobytes(), params.flat.tobytes()))
    return seen


def one_bag_runs(batch):
    return [[bag] for bag in batch]


class TestStackedBackward:
    """A stack's backward adds each bag's gradient in order: the bytes of one
    bag at a time."""

    @pytest.mark.parametrize("variant,heads", [("gated", 3), ("gated", 1), ("gated", 0),
                                               ("sdpa", 2), ("sdpa", 4)])
    @pytest.mark.parametrize("sizes,runs", [
        ((7,) * 8, [8]),
        ((8, 8, 16, 8, 16, 16, 16, 8), [2, 1, 1, 3, 1]),
    ], ids=["equal-M", "mixed-M"])
    def test_batch8_steps_equal_runs_of_one_bit_for_bit(self, variant, heads, sizes,
                                                        runs):
        rng = np.random.default_rng(24)
        batches = [[random_bag(rng, m, 8, bag_id=f"s{step}b{i}")
                    for i, m in enumerate(sizes)] for step in range(3)]
        assert [len(run) for run in equal_shape_runs(batches[0])] == runs
        stacked = train_steps(small_params(variant, heads, feature_dim=8), batches,
                              equal_shape_runs)
        alone = train_steps(small_params(variant, heads, feature_dim=8), batches,
                            one_bag_runs)
        assert stacked == alone

    def test_runs_cut_unlike_across_tasks_rejected(self):
        params = small_params()
        rng = np.random.default_rng(26)
        bags = [random_bag(rng, 4, 6, bag_id=f"b{i}") for i in range(2)]
        stack, _ = forward(bags, params)
        (first, _), (second, _) = (forward(b, params) for b in bags)
        with pytest.raises(ContractError, match=r"runs \[1, 1\], task 0 into \[2\]"):
            multi_task_loss([[stack[0]], [first[1], second[1]]],
                            [b.labels for b in bags], (1.0, 1.0))


class TestLayerGradients:
    """Each layer's hand-written backward against finite differences."""

    def test_head_attention_including_the_input(self):
        rng = np.random.default_rng(41)
        V = leaf(rng.normal(size=(5, 4)))
        gate_proj = leaf(rng.normal(size=(4, 3)))
        gate_score = leaf(rng.normal(size=(3, 1)))
        w = rng.normal(size=(5, 1))

        def loss():
            a, backward = head_attention(V.data, gate_proj.data, gate_score.data)
            return weighed(a, w, lambda g: backward(g, V.grad, gate_proj.grad,
                                                    gate_score.grad))

        assert_grads_match(loss, [V, gate_proj, gate_score], rel=1e-6, abs_=1e-10)

    def test_tag_attention_including_the_input(self):
        rng = np.random.default_rng(43)
        Vp = leaf(rng.normal(size=(6, 4)))
        gate_proj = leaf(rng.normal(size=(4, 3)))
        gate_score = leaf(rng.normal(size=(3, 1)))
        w = rng.normal(size=(1, 4))

        def loss():
            pooled, _, backward = tag_attention(Vp.data, gate_proj.data, gate_score.data)
            return weighed(pooled, w, lambda g: backward(g, Vp.grad, gate_proj.grad,
                                                         gate_score.grad))

        assert_grads_match(loss, [Vp, gate_proj, gate_score], rel=1e-6, abs_=1e-10)

    def test_tag_attention_with_stacked_gates_including_the_input(self):
        rng = np.random.default_rng(59)
        Vp = leaf(rng.normal(size=(6, 4)))
        gate_proj = leaf(rng.normal(size=(3, 4, 3)))
        gate_score = leaf(rng.normal(size=(3, 3, 1)))
        w = rng.normal(size=(3, 1, 4))

        def loss():
            pooled, _, backward = tag_attention(Vp.data[None], gate_proj.data,
                                                gate_score.data)
            return weighed(pooled, w, lambda g: backward(g, Vp.grad, gate_proj.grad,
                                                         gate_score.grad))

        assert_grads_match(loss, [Vp, gate_proj, gate_score], rel=1e-6, abs_=1e-10)

    @pytest.mark.parametrize("variant,heads", [("gated", 2), ("gated", 1), ("sdpa", 2),
                                               ("sdpa", 3)])
    def test_transform(self, variant, heads):
        params = small_params(variant=variant, heads=heads)
        rng = np.random.default_rng(47)
        V = rng.normal(size=(5, 6))
        w = rng.normal(size=(5, 6))
        transform = patch_transform if variant == "gated" else sdpa_transform
        tensors = [t for name, t in params.named_parameters() if name.startswith("head")]
        tensors.append(params.proj)

        def loss():
            out, _, backward = transform(V, params)
            return weighed(out, w, backward)

        assert_grads_match(loss, tensors, rel=1e-6, abs_=1e-10)

    def test_predict_tag_including_the_input(self):
        rng = np.random.default_rng(53)
        pooled = leaf(rng.normal(size=(1, 6)))
        classifier = leaf(rng.normal(size=(6, 4)))
        w = rng.normal(size=(1, 4))

        def loss():
            probs, backward = predict_tag(pooled.data, classifier.data)
            return weighed(probs, w,
                           lambda g: add_into(pooled)(backward(g, classifier.grad)))

        assert_grads_match(loss, [pooled, classifier], rel=1e-6, abs_=1e-10)


class TestFullModelGradients:
    @pytest.mark.parametrize("variant", ["gated", "sdpa"])
    def test_all_matrices_match_finite_differences(self, variant):
        params = small_params(variant=variant)
        rng = np.random.default_rng(21)
        bags = [random_bag(rng, 4, 6, bag_id=f"b{i}") for i in range(2)]
        labels = np.array([b.labels for b in bags])

        def loss_builder():
            per_task = [[] for _ in range(SMALL_SCHEMA.n_tasks)]
            for bag in bags:
                probs, _ = forward(bag, params)
                for k, p in enumerate(probs):
                    per_task[k].append(p)
            return multi_task_loss(per_task, labels, (1.0, 1.0))

        assert_grads_match(loss_builder, params.parameters(), rel=1e-4, abs_=1e-8)

    def test_stacked_head_views_match_finite_differences(self):
        # at H >= 2 the (H, rows, cols) head views are strided, not contiguous
        params = small_params(heads=2)
        stacked = [params.heads["gate_proj"], params.heads["gate_score"]]
        assert not stacked[0].data.flags.c_contiguous
        bag = random_bag(np.random.default_rng(23), 4, 6)

        def loss_builder():
            probs, _ = forward(bag, params)
            return multi_task_loss([[p] for p in probs], np.array([bag.labels]),
                                   (1.0, 1.0))

        assert_grads_match(loss_builder, stacked, rel=1e-4, abs_=1e-8)


class TestCopy:
    VARIANTS = [("gated", 3), ("gated", 0), ("sdpa", 2)]

    def trained_looking(self, variant, heads):
        dims = ModelDims(feature_dim=6, attn_hidden=4, tag_hidden=3, n_heads=heads)
        params = ModelParams(SMALL_SCHEMA, dims, variant, seed=9)
        # move every matrix off its seeded init, so re-initializing is not copying
        for i, t in enumerate(params.parameters()):
            t.data += 0.5 * (i + 1)
        return params

    @pytest.mark.parametrize("variant,heads", VARIANTS)
    def test_copy_equals_source_bit_for_bit(self, variant, heads):
        params = self.trained_looking(variant, heads)
        dup = params.copy()
        assert (dup.schema, dup.dims, dup.variant, dup.seed) == (
            params.schema, params.dims, params.variant, params.seed)
        named, dup_named = params.named_parameters(), dup.named_parameters()
        assert [n for n, _ in dup_named] == [n for n, _ in named]
        for (_, a), (_, b) in zip(named, dup_named):
            assert np.shares_memory(b.grad, dup.grad)
            assert a.data.shape == b.data.shape
            assert a.data.tobytes() == b.data.tobytes()

    @pytest.mark.parametrize("variant,heads", VARIANTS)
    def test_copy_and_source_are_independent(self, variant, heads):
        params = self.trained_looking(variant, heads)
        dup = params.copy()
        src_before = [t.data.copy() for t in params.parameters()]
        for t in dup.parameters():
            t.data[...] = -1.0
        for t, want in zip(params.parameters(), src_before):
            assert t.data.tobytes() == want.tobytes()
        dup_before = [t.data.copy() for t in dup.parameters()]
        for t in params.parameters():
            t.data[...] = 7.0
        for t, want in zip(dup.parameters(), dup_before):
            assert t.data.tobytes() == want.tobytes()


    @pytest.mark.parametrize("variant,heads", VARIANTS)
    def test_copy_and_load_draw_nothing(self, tmp_path, monkeypatch, variant, heads):
        params = self.trained_looking(variant, heads)
        save_checkpoint(params, tmp_path / "model.ckpt")

        def no_draws(*args, **kwargs):
            raise AssertionError("init draws for values that are overwritten")

        monkeypatch.setattr(model.np.random, "default_rng", no_draws)
        for dup in (params.copy(), load_checkpoint(tmp_path / "model.ckpt")):
            assert dup.flat.tobytes() == params.flat.tobytes()
            assert all(np.shares_memory(t.data, dup.flat) for t in dup.parameters())


class TestFlat:
    @pytest.mark.parametrize("variant,heads", TestCopy.VARIANTS)
    def test_flat_and_named_matrices_alias(self, variant, heads):
        params = TestCopy().trained_looking(variant, heads)
        named = params.parameters()
        assert params.flat.size == sum(t.data.size for t in named)
        assert params.flat.tobytes() == b"".join(t.data.tobytes() for t in named)
        params.flat[...] = np.arange(params.flat.size)
        offset = 0
        for t in named:
            assert np.shares_memory(t.data, params.flat)
            np.testing.assert_array_equal(
                t.data.ravel(), np.arange(offset, offset + t.data.size))
            offset += t.data.size
        named[-1].data[...] = -1.0
        assert np.all(params.flat[-named[-1].data.size:] == -1.0)

    @pytest.mark.parametrize("variant,heads,keys", [
        ("gated", 3, ["gate_proj", "gate_score"]), ("gated", 1, ["gate_proj", "gate_score"]),
        ("sdpa", 2, ["query", "key", "value"]), ("gated", 0, []),   # 0 heads: no head views
    ])
    def test_stacked_views_alias_flat_and_grad(self, variant, heads, keys):
        params = TestCopy().trained_looking(variant, heads)
        params.grad[...] = -np.arange(params.grad.size)
        named = dict(params.named_parameters())
        assert list(params.heads) == keys
        stacks = [("head", heads, key, t) for key, t in params.heads.items()]
        stacks += [("tag", SMALL_SCHEMA.n_tasks, key, t)
                   for key, t in zip(("gate_proj", "gate_score"), params.tag_gates)]
        for prefix, n, key, t in stacks:
            assert t.data.shape == (n, *named[f"{prefix}0.{key}"].data.shape)
            assert np.shares_memory(t.data, params.flat)
            assert np.shares_memory(t.grad, params.grad)
            t.data[...] += 1.0                  # writes land in the named matrices
            for i in range(n):
                matrix = named[f"{prefix}{i}.{key}"]
                assert t.data[i].tobytes() == matrix.data.tobytes()
                assert t.grad[i].tobytes() == matrix.grad.tobytes()

    # sha256 of the untrained checkpoints written before the parameters moved
    # into one vector: the init draws and the blob layout must not change
    @pytest.mark.parametrize("variant,heads,digest", [
        ("gated", 3, "a2962dd302baf6cf1f6f9d14ee49199b5e647e67b92e7c445ce3887d090961d8"),
        ("gated", 0, "2aa6112ca3cf7eb06a7858fd849e6ff4f47f0ff27c990abf64fd32a56ebd42a2"),
        ("sdpa", 2, "86b22b43f2988eed40dafd5783f91928da4dd523c342029f8b8815e3dc1c47bf"),
    ])
    def test_untrained_checkpoint_bytes_are_pinned(self, tmp_path, variant, heads,
                                                   digest):
        dims = ModelDims(feature_dim=6, attn_hidden=4, tag_hidden=3, n_heads=heads)
        path = tmp_path / "model.ckpt"
        save_checkpoint(ModelParams(SMALL_SCHEMA, dims, variant, seed=9), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestCheckpoint:
    @pytest.mark.parametrize("variant,heads", [("gated", 3), ("sdpa", 2), ("gated", 0)])
    def test_round_trip_is_bit_exact(self, tmp_path, variant, heads):
        dims = ModelDims(feature_dim=6, attn_hidden=4, tag_hidden=3, n_heads=heads)
        params = ModelParams(SMALL_SCHEMA, dims, variant, seed=9)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.variant == variant
        assert loaded.dims == dims
        assert loaded.schema == SMALL_SCHEMA
        assert loaded.seed == 9
        for (name_a, a), (name_b, b) in zip(params.named_parameters(),
                                            loaded.named_parameters()):
            assert name_a == name_b
            assert a.data.tobytes() == b.data.tobytes()
            assert np.shares_memory(b.data, loaded.flat)

    def test_double_save_identical_bytes(self, tmp_path):
        params = small_params()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(params, p1)
        save_checkpoint(params, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_blob_detected(self, tmp_path):
        params = small_params()
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(IntegrityError):
            load_checkpoint(path)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_parameters_never_reach_disk(self, tmp_path):
        # an Inf in a head's gate_proj: tanh saturates, so no softmax input
        # turns non-finite and three batch-1 steps train on without a raise
        params = small_params(variant="gated", heads=3, feature_dim=8)
        dict(params.named_parameters())["head1.gate_proj"].data[0, 0] = np.inf
        rng = np.random.default_rng(32)
        adam = Adam(params, lr=1e-3)
        for _ in range(3):
            bag = random_bag(rng, 5, 8)
            adam.zero_grad()
            probs, _ = forward(bag, params)
            ad.backward(multi_task_loss([[p] for p in probs], [bag.labels], (1.0, 1.0)))
            adam.step()
        path = tmp_path / "model.ckpt"
        with pytest.raises(NumericError, match="first in head1.gate_proj"):
            save_checkpoint(params, path)
        assert not path.exists()

        save_checkpoint(small_params(variant="gated", heads=3, feature_dim=8), path)
        raw = bytearray(path.read_bytes())
        for value in (np.nan, np.inf):
            raw[-8:] = np.array([value], dtype="<f8").tobytes()
            path.write_bytes(bytes(raw))
            with pytest.raises(IntegrityError, match="NaN or Inf"):
                load_checkpoint(path)

    def test_garbage_header_detected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"not a checkpoint\nend\n")
        with pytest.raises(ParseError):
            load_checkpoint(path)
