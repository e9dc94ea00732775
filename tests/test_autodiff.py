"""The engine (the sweep over `node` graphs, the array softmax and the loss
node) and the array operations the layer nodes run inside their hand-written
backwards: TestMatmul, TestElementwise and TestSupportOps check the products,
elementwise maps, concatenation and transposes where patchbag.model runs them.
"""

import math

import numpy as np
import pytest

from patchbag import autodiff as ad
from patchbag.autodiff import Tensor
from patchbag.errors import ContractError, DimensionError, NumericError
from patchbag.model import (
    ModelDims,
    ModelParams,
    TagSchema,
    head_attention,
    patch_transform,
    predict_tag,
    sdpa_transform,
    tag_attention,
)

from oracles import assert_grads_match, softmax_by_scalar

SCHEMA = TagSchema(tasks=(("t", ("a", "b")),))


def total(x, c=1.0):
    """c times the sum of x's elements, as one scalar node."""
    return ad.node(np.sum(x.data) * c, (x,),
                   lambda g: x._accumulate(np.full_like(x.data, float(g) * c)))


def dot(x, w):
    """sum(x * w) as a scalar node: a loss that weighs every output entry."""
    return ad.node(np.sum(x.data * w), (x,), lambda g: x._accumulate(g * w))


def softmax_node(x, axis):
    y = ad.softmax(x.data, axis)
    return ad.node(y, (x,), lambda g: x._accumulate(ad.softmax_grad(y, g, axis)))


def transform_params(variant, heads, feature_dim, seed=0):
    dims = ModelDims(feature_dim=feature_dim, attn_hidden=3, tag_hidden=3, n_heads=heads)
    return ModelParams(SCHEMA, dims, variant, seed)


def head_tensors(params):
    return [t for head in params.heads for t in head.values()] + [params.proj]


def gate(rng, rows, hidden, requires_grad=False):
    return [Tensor(rng.normal(size=shape), requires_grad=requires_grad)
            for shape in ((rows, hidden), (hidden, 1))]


class TestMatmul:
    """The pooling product alpha.T @ V' and the classifier product pooled @ W."""

    def test_identity(self):
        pooled = Tensor([[1.0, -2.0, 0.5]])
        probs = predict_tag(pooled, Tensor(np.eye(3)))
        np.testing.assert_array_equal(probs.data, ad.softmax(pooled.data, axis=1))

    def test_zero(self):
        # an all-zero bag pools to the zero row whatever its gate
        rng = np.random.default_rng(5)
        pooled, _ = tag_attention(Tensor(np.zeros((4, 3))), *gate(rng, 3, 2))
        np.testing.assert_array_equal(pooled.data, np.zeros((1, 3)))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError) as err:
            predict_tag(Tensor(np.ones((1, 3))), Tensor(np.ones((2, 3))))
        assert "(1, 3)" in str(err.value) and "(2, 3)" in str(err.value)

    def test_gradient_matches_finite_differences(self):
        # pooling then classifying: both products in one sweep
        rng = np.random.default_rng(11)
        Vp = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        tag_gate = gate(rng, 4, 3, requires_grad=True)
        classifier = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        w = rng.normal(size=(1, 2))
        assert_grads_match(
            lambda: dot(predict_tag(tag_attention(Vp, *tag_gate)[0], classifier), w),
            [Vp, *tag_gate, classifier], rel=1e-6, abs_=1e-10)

    def test_associative_with_identity(self):
        # extents <= 16, f64: classifying the pooled row, (alpha.T V') W, equals
        # pooling the per-patch logits, alpha.T (V' W), within 1e-10; W = I
        # leaves the pooled row unchanged
        rng = np.random.default_rng(5)
        for _ in range(25):
            m, d, h, c = rng.integers(1, 17, size=4)
            Vp = Tensor(rng.normal(size=(m, d)))
            pooled, alpha = tag_attention(Vp, *gate(rng, d, h))
            classifier = rng.normal(size=(d, c))
            np.testing.assert_allclose(
                predict_tag(pooled, Tensor(classifier)).data,
                ad.softmax(alpha.data.T @ (Vp.data @ classifier), axis=1),
                atol=1e-10, rtol=1e-10)
            np.testing.assert_array_equal(predict_tag(pooled, Tensor(np.eye(d))).data,
                                          ad.softmax(pooled.data, axis=1))


class TestSoftmax:
    def test_equal_logits_give_uniform(self):
        for c in (-7.0, 0.0, 3.5):
            out = ad.softmax(np.full((4, 1), c), axis=0)
            np.testing.assert_allclose(out, 0.25, rtol=0, atol=1e-15)

    def test_single_element(self):
        np.testing.assert_array_equal(ad.softmax(np.array([[4.2]]), axis=0), [[1.0]])

    def test_closed_form_quarter_three_quarters(self):
        out = ad.softmax(np.array([[0.0], [math.log(3.0)]]), axis=0)
        np.testing.assert_allclose(out[:, 0], [0.25, 0.75], rtol=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=6) * 3
        out = ad.softmax(logits.reshape(-1, 1), axis=0)
        np.testing.assert_allclose(out[:, 0], softmax_by_scalar(list(logits)),
                                   rtol=1e-12)

    def test_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.normal(size=(rng.integers(1, 20), 1)) * 10
            y = ad.softmax(x, axis=0)
            assert abs(y.sum() - 1.0) <= 1e-12
            np.testing.assert_allclose(y, ad.softmax(x + 123.456, axis=0), atol=1e-12)

    def test_nan_input_raises(self):
        with pytest.raises(NumericError):
            ad.softmax(np.array([[1.0], [float("nan")]]), axis=0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        w = rng.normal(size=(5, 3))
        for axis in (0, 1):
            x.grad = None
            assert_grads_match(lambda: dot(softmax_node(x, axis), w), [x], rel=1e-6)


class TestElementwise:
    """The residual ReLU, the gates' tanh and the heads' row scaling."""

    def test_relu_values(self):
        # a zero projection leaves relu(V) from the sdpa transform
        params = transform_params("sdpa", 1, 1)
        params.proj.data[...] = 0.0
        out, _ = sdpa_transform(Tensor([[-1.0], [0.0], [2.0]]), params)
        np.testing.assert_array_equal(out.data, [[0.0], [0.0], [2.0]])

    def test_relu_derivative_zero_at_zero(self):
        # uniform weights 1/2 and proj -2 cancel the residual exactly
        params = transform_params("gated", 1, 1)
        params.heads[0]["gate_proj"].data[...] = 0.0
        params.proj.data[...] = -2.0
        out, _ = patch_transform(Tensor([[3.0], [-5.0]]), params)
        np.testing.assert_array_equal(out.data, [[0.0], [0.0]])
        ad.backward(total(out))
        for t in params.heads[0].values():
            np.testing.assert_array_equal(t.grad, np.zeros_like(t.data))
        np.testing.assert_array_equal(params.proj.grad, [[0.0]])

    def test_tanh_zero(self):
        # tanh(0) = 0 makes every logit 0: an all-zero bag gets uniform weights
        rng = np.random.default_rng(3)
        a = head_attention(Tensor(np.zeros((4, 3))), *gate(rng, 3, 2))
        np.testing.assert_array_equal(a.data, np.full((4, 1), 0.25))

    def test_mul_backward_matches_finite_differences(self):
        # tag pooling multiplies alpha by V', and both depend on the heads
        params = transform_params("gated", 2, 4, seed=13)
        rng = np.random.default_rng(13)
        V = Tensor(rng.normal(size=(5, 4)))
        tag_gate = gate(rng, 4, 3, requires_grad=True)
        w = rng.normal(size=(1, 4))
        assert_grads_match(
            lambda: dot(tag_attention(patch_transform(V, params)[0], *tag_gate)[0], w),
            head_tensors(params) + tag_gate, rel=1e-6, abs_=1e-10)

    def test_mul_column_scales_each_row(self):
        # proj = [I; 0]: V' = relu(V + a V) with a the first head's weights;
        # the second head's block of columns drops out
        params = transform_params("gated", 2, 3, seed=19)
        params.proj.data[...] = np.vstack([np.eye(3), np.zeros((3, 3))])
        V = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        out, (a, _) = patch_transform(Tensor(V), params)
        np.testing.assert_array_equal(out.data, V + V * a.data)

    def test_mul_column_backward_matches_finite_differences(self):
        # with proj = I the loss sees the head only through its scaled rows a V
        params = transform_params("gated", 1, 3, seed=19)
        params.proj.data[...] = np.eye(3)
        rng = np.random.default_rng(19)
        V = Tensor(rng.normal(size=(4, 3)))
        w = rng.normal(size=(4, 3))
        assert_grads_match(lambda: dot(patch_transform(V, params)[0], w),
                           list(params.heads[0].values()), rel=1e-6, abs_=1e-10)

    def test_tanh_backward_matches_finite_differences(self):
        # a scaled-up gate saturates tanh: hidden units close to +-1
        rng = np.random.default_rng(17)
        V = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        gate_proj, gate_score = gate(rng, 2, 3, requires_grad=True)
        gate_proj.data *= 4.0
        assert np.abs(np.tanh(V.data @ gate_proj.data)).max() > 0.99
        w = rng.normal(size=(4, 1))
        assert_grads_match(lambda: dot(head_attention(V, gate_proj, gate_score), w),
                           [V, gate_proj, gate_score], rel=1e-6, abs_=1e-10)


class TestSupportOps:
    """The concatenation of head outputs and the sdpa transposes."""

    def test_concat_and_split_gradient(self):
        # three heads side by side; a zero block of proj cuts the middle one off
        params = transform_params("gated", 3, 2, seed=29)
        params.proj.data[2:4] = 0.0
        rng = np.random.default_rng(29)
        V = Tensor(rng.normal(size=(4, 2)))
        w = rng.normal(size=(4, 2))
        assert_grads_match(lambda: dot(patch_transform(V, params)[0], w),
                           head_tensors(params), rel=1e-6, abs_=1e-10)
        for t in params.heads[1].values():
            np.testing.assert_array_equal(t.grad, np.zeros_like(t.data))

    def test_transpose_gradient(self):
        # scores q k.T: the query and key gradients come back through
        # transposes, here of (7, 3) projections of 7 patches
        params = transform_params("sdpa", 2, 6, seed=31)
        rng = np.random.default_rng(31)
        V = Tensor(rng.normal(size=(7, 6)))
        w = rng.normal(size=(7, 6))
        assert_grads_match(lambda: dot(sdpa_transform(V, params)[0], w),
                           [head[key] for head in params.heads for key in ("query", "key")],
                           rel=1e-6, abs_=1e-10)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        ad.backward(total(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_zero_scaled_loss_gives_zeros(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        ad.backward(total(x, 0.0))
        np.testing.assert_array_equal(x.grad, np.zeros((2, 3)))

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ContractError):
            ad.backward(ad.node(x.data * 2.0, (x,), lambda g: x._accumulate(2.0 * g)))

    def test_second_sweep_rejected(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        loss = total(x)
        ad.backward(loss)
        with pytest.raises(ContractError):
            ad.backward(loss)

    def test_loss_without_trainable_input_rejected(self):
        loss = total(Tensor(np.ones((2, 2))))
        assert not loss.requires_grad
        with pytest.raises(ContractError):
            ad.backward(loss)

    def test_shared_subexpression_accumulates(self):
        # h = 2x feeds two consumers, 3h and 5h; h's backward must run once,
        # after both have added to h.grad: d/dx sum(3h + 5h) = 16
        x = Tensor([[1.0, -2.0]], requires_grad=True)
        calls = []

        def h_backward(g):
            calls.append(g.copy())
            x._accumulate(2.0 * g)

        h = ad.node(2.0 * x.data, (x,), h_backward)
        three = ad.node(3.0 * h.data, (h,), lambda g: h._accumulate(3.0 * g))
        five = ad.node(5.0 * h.data, (h,), lambda g: h._accumulate(5.0 * g))

        def sum_backward(g):
            three._accumulate(np.full((1, 2), float(g)))
            five._accumulate(np.full((1, 2), float(g)))

        ad.backward(ad.node(np.sum(three.data + five.data), (three, five), sum_backward))
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], [[8.0, 8.0]])
        np.testing.assert_array_equal(x.grad, [[16.0, 16.0]])

    def test_parent_without_grad_keeps_none(self):
        x = Tensor([[3.0]], requires_grad=True)
        c = Tensor([[4.0]])

        def backward_fn(g):
            x._accumulate(g * c.data)
            c._accumulate(g * x.data)

        ad.backward(ad.node(np.sum(x.data * c.data), (x, c), backward_fn))
        np.testing.assert_array_equal(x.grad, [[4.0]])
        assert c.grad is None

    def test_values_stay_finite_through_random_graphs(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            Vp = Tensor(rng.normal(size=(4, 3)) * 50, requires_grad=True)
            tag_gate = [Tensor(t.data * 50, requires_grad=True) for t in gate(rng, 3, 5)]
            classifier = Tensor(rng.normal(size=(3, 4)) * 50, requires_grad=True)
            pooled, alpha = tag_attention(Vp, *tag_gate)
            probs = predict_tag(pooled, classifier)
            loss = ad.weighted_nll([[probs]], np.array([[2]]), [1.0])
            ad.backward(loss)
            for t in (Vp, *tag_gate, classifier, pooled, alpha, probs, loss):
                assert np.all(np.isfinite(t.data))
                if t.grad is not None:
                    assert np.all(np.isfinite(t.grad))


class TestWeightedNll:
    def test_value_and_gradient_of_one_row(self):
        p = Tensor([[0.25, 0.75]], requires_grad=True)
        loss = ad.weighted_nll([[p]], np.array([[1]]), [2.0])
        assert float(loss.data) == -2.0 * math.log(0.75)
        ad.backward(loss)
        np.testing.assert_array_equal(p.grad, [[0.0, -2.0 / 0.75]])

    def test_floor_clamps_value_and_zeroes_gradient(self):
        p = Tensor([[1e-20, 1.0]], requires_grad=True)
        loss = ad.weighted_nll([[p]], np.array([[0]]), [1.0])
        assert float(loss.data) == -math.log(1e-12)
        ad.backward(loss)
        np.testing.assert_array_equal(p.grad, [[0.0, 0.0]])

    def test_two_tasks_batch_three_matches_finite_differences(self):
        # task 0 weighs 1.3, task 1 weighs 0; bag 1's task-0 label gets a
        # probability near e**-40, below the 1e-12 floor, where the loss is flat
        rng = np.random.default_rng(37)
        logits = [[Tensor(rng.normal(size=(1, c)), requires_grad=True)
                   for _ in range(3)] for c in (3, 4)]
        labels = np.array([[0, 3], [2, 1], [1, 0]])
        logits[0][1].data[0] = [0.0, 0.0, -40.0]
        leaves = [t for task in logits for t in task]

        def loss_builder():
            probs = [[softmax_node(t, axis=1) for t in task] for task in logits]
            return ad.weighted_nll(probs, labels, [1.3, 0.0])

        assert ad.softmax(logits[0][1].data, axis=1)[0, 2] < ad.LOG_FLOOR
        assert_grads_match(loss_builder, leaves, rel=1e-6, abs_=1e-10)
        for t in logits[1] + [logits[0][1]]:
            np.testing.assert_array_equal(t.grad, np.zeros_like(t.data))
        assert np.all(logits[0][0].grad != 0.0)
