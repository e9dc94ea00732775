"""Tensor and backward contracts, and the array operations the layers run
inside their hand-written backwards: TestMatmul, TestElementwise and
TestSupportOps check the products, elementwise maps, concatenation and
transposes where patchbag.model runs them.
"""

import numpy as np
import pytest

from patchbag import autodiff as ad
from patchbag.autodiff import Tensor
from patchbag.errors import ContractError, DimensionError
from patchbag.model import (
    ModelDims,
    ModelParams,
    TagSchema,
    head_attention,
    patch_transform,
    predict_tag,
    sdpa_transform,
    softmax,
    tag_attention,
)
from patchbag.training import multi_task_loss

from oracles import assert_grads_match

SCHEMA = TagSchema(tasks=(("t", ("a", "b")),))


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


def total(x, c=1.0):
    """c times the sum of x's elements, as a loss whose backward fills x.grad."""
    return weighed(x.data, np.full_like(x.data, c), add_into(x))


def transform_params(variant, heads, feature_dim, seed=0):
    dims = ModelDims(feature_dim=feature_dim, attn_hidden=3, tag_hidden=3, n_heads=heads)
    return ModelParams(SCHEMA, dims, variant, seed)


def head_tensors(params):
    return [t for name, t in params.named_parameters()
            if name.startswith("head") or name == "proj"]


def transform_loss(transform, V, params, w):
    """sum(transform(V) * w); its backward fills the transform's grad views."""
    out, _, backward = transform(V, params)
    return weighed(out, w, backward)


def gate(rng, rows, hidden):
    return [rng.normal(size=shape) for shape in ((rows, hidden), (hidden, 1))]


class TestMatmul:
    """The pooling product alpha.T @ V' and the classifier product pooled @ W."""

    def test_identity(self):
        pooled = np.array([[1.0, -2.0, 0.5]])
        probs, _ = predict_tag(pooled, np.eye(3))
        np.testing.assert_array_equal(probs, softmax(pooled, axis=1))

    def test_zero(self):
        # an all-zero bag pools to the zero row whatever its gate
        rng = np.random.default_rng(5)
        pooled, _, _ = tag_attention(np.zeros((4, 3)), *gate(rng, 3, 2))
        np.testing.assert_array_equal(pooled, np.zeros((1, 3)))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError) as err:
            predict_tag(np.ones((1, 3)), np.ones((2, 3)))
        assert "(1, 3)" in str(err.value) and "(2, 3)" in str(err.value)

    def test_gradient_matches_finite_differences(self):
        # pooling then classifying: both products in one backward
        rng = np.random.default_rng(11)
        Vp = leaf(rng.normal(size=(5, 4)))
        tag_gate = [leaf(a) for a in gate(rng, 4, 3)]
        classifier = leaf(rng.normal(size=(4, 2)))
        w = rng.normal(size=(1, 2))

        def loss():
            pooled, _, pool_backward = tag_attention(Vp.data, *(t.data for t in tag_gate))
            probs, classify_backward = predict_tag(pooled, classifier.data)

            def chain(g):
                g_pooled = classify_backward(g, classifier.grad)
                pool_backward(g_pooled, Vp.grad, *(t.grad for t in tag_gate))

            return weighed(probs, w, chain)

        assert_grads_match(loss, [Vp, *tag_gate, classifier], rel=1e-6, abs_=1e-10)

    def test_associative_with_identity(self):
        # extents <= 16, f64: classifying the pooled row, (alpha.T V') W, equals
        # pooling the per-patch logits, alpha.T (V' W), within 1e-10; W = I
        # leaves the pooled row unchanged
        rng = np.random.default_rng(5)
        for _ in range(25):
            m, d, h, c = rng.integers(1, 17, size=4)
            Vp = rng.normal(size=(m, d))
            pooled, alpha, _ = tag_attention(Vp, *gate(rng, d, h))
            classifier = rng.normal(size=(d, c))
            np.testing.assert_allclose(
                predict_tag(pooled, classifier)[0],
                softmax(alpha.T @ (Vp @ classifier), axis=1),
                atol=1e-10, rtol=1e-10)
            np.testing.assert_array_equal(predict_tag(pooled, np.eye(d))[0],
                                          softmax(pooled, axis=1))


class TestElementwise:
    """The residual ReLU, the gates' tanh and the heads' row scaling."""

    def test_relu_values(self):
        # a zero projection leaves relu(V) from the sdpa transform
        params = transform_params("sdpa", 1, 1)
        params.proj.data[...] = 0.0
        out, _, _ = sdpa_transform(np.array([[-1.0], [0.0], [2.0]]), params)
        np.testing.assert_array_equal(out, [[0.0], [0.0], [2.0]])

    def test_relu_derivative_zero_at_zero(self):
        # uniform weights 1/2 and proj -2 cancel the residual exactly
        params = transform_params("gated", 1, 1)
        params.heads["gate_proj"].data[...] = 0.0
        params.proj.data[...] = -2.0
        out, _, backward = patch_transform(np.array([[3.0], [-5.0]]), params)
        np.testing.assert_array_equal(out, [[0.0], [0.0]])
        backward(np.ones_like(out))
        for t in params.heads.values():
            np.testing.assert_array_equal(t.grad, np.zeros_like(t.data))
        np.testing.assert_array_equal(params.proj.grad, [[0.0]])

    def test_tanh_zero(self):
        # tanh(0) = 0 makes every logit 0: an all-zero bag gets uniform weights
        rng = np.random.default_rng(3)
        a, _ = head_attention(np.zeros((4, 3)), *gate(rng, 3, 2))
        np.testing.assert_array_equal(a, np.full((4, 1), 0.25))

    def test_mul_backward_matches_finite_differences(self):
        # tag pooling multiplies alpha by V', and both depend on the heads
        params = transform_params("gated", 2, 4, seed=13)
        rng = np.random.default_rng(13)
        V = rng.normal(size=(5, 4))
        tag_gate = [leaf(a) for a in gate(rng, 4, 3)]
        w = rng.normal(size=(1, 4))

        def loss():
            Vp, _, transform_backward = patch_transform(V, params)
            pooled, _, pool_backward = tag_attention(Vp, *(t.data for t in tag_gate))

            def chain(g):
                g_Vp = np.zeros_like(Vp)
                pool_backward(g, g_Vp, *(t.grad for t in tag_gate))
                transform_backward(g_Vp)

            return weighed(pooled, w, chain)

        assert_grads_match(loss, head_tensors(params) + tag_gate, rel=1e-6, abs_=1e-10)

    def test_mul_column_scales_each_row(self):
        # proj = [I; 0]: V' = relu(V + a V) with a the first head's weights;
        # the second head's block of columns drops out
        params = transform_params("gated", 2, 3, seed=19)
        params.proj.data[...] = np.vstack([np.eye(3), np.zeros((3, 3))])
        V = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        out, (a, _), _ = patch_transform(V, params)
        np.testing.assert_array_equal(out, V + V * a)

    def test_mul_column_backward_matches_finite_differences(self):
        # with proj = I the loss sees the head only through its scaled rows a V
        params = transform_params("gated", 1, 3, seed=19)
        params.proj.data[...] = np.eye(3)
        rng = np.random.default_rng(19)
        V = rng.normal(size=(4, 3))
        w = rng.normal(size=(4, 3))
        assert_grads_match(lambda: transform_loss(patch_transform, V, params, w),
                           list(params.heads.values()), rel=1e-6, abs_=1e-10)

    def test_tanh_backward_matches_finite_differences(self):
        # a scaled-up gate saturates tanh: hidden units close to +-1
        rng = np.random.default_rng(17)
        V = leaf(rng.normal(size=(4, 2)))
        gate_proj, gate_score = (leaf(a) for a in gate(rng, 2, 3))
        gate_proj.data *= 4.0
        assert np.abs(np.tanh(V.data @ gate_proj.data)).max() > 0.99
        w = rng.normal(size=(4, 1))

        def loss():
            a, backward = head_attention(V.data, gate_proj.data, gate_score.data)
            return weighed(a, w, lambda g: backward(g, V.grad, gate_proj.grad,
                                                    gate_score.grad))

        assert_grads_match(loss, [V, gate_proj, gate_score], rel=1e-6, abs_=1e-10)


class TestSupportOps:
    """The concatenation of head outputs and the sdpa transposes."""

    def test_concat_and_split_gradient(self):
        # three heads side by side; a zero block of proj cuts the middle one off
        params = transform_params("gated", 3, 2, seed=29)
        params.proj.data[2:4] = 0.0
        rng = np.random.default_rng(29)
        V = rng.normal(size=(4, 2))
        w = rng.normal(size=(4, 2))
        assert_grads_match(lambda: transform_loss(patch_transform, V, params, w),
                           head_tensors(params), rel=1e-6, abs_=1e-10)
        for t in params.heads.values():
            np.testing.assert_array_equal(t.grad[1], np.zeros_like(t.data[1]))

    def test_transpose_gradient(self):
        # scores q k.T: the query and key gradients come back through
        # transposes, here of (7, 3) projections of 7 patches
        params = transform_params("sdpa", 2, 6, seed=31)
        rng = np.random.default_rng(31)
        V = rng.normal(size=(7, 6))
        w = rng.normal(size=(7, 6))
        named = dict(params.named_parameters())
        assert_grads_match(lambda: transform_loss(sdpa_transform, V, params, w),
                           [named[f"head{i}.{key}"] for i in range(2) for key in ("query", "key")],
                           rel=1e-6, abs_=1e-10)


class TestBackward:
    def test_sum_gives_ones(self):
        x = leaf(np.arange(12.0).reshape(3, 4))
        ad.backward(total(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_zero_scaled_loss_gives_zeros(self):
        x = leaf(np.arange(6.0).reshape(2, 3))
        ad.backward(total(x, 0.0))
        np.testing.assert_array_equal(x.grad, np.zeros((2, 3)))

    def test_non_scalar_loss_rejected(self):
        x = leaf(np.ones((2, 2)))
        with pytest.raises(ContractError):
            ad.backward(Tensor(x.data * 2.0, add_into(x)))

    def test_second_sweep_rejected(self):
        x = leaf(np.ones((2, 2)))
        loss = total(x)
        ad.backward(loss)
        with pytest.raises(ContractError):
            ad.backward(loss)

    def test_values_stay_finite_through_random_graphs(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            Vp = rng.normal(size=(4, 3)) * 50
            tag_gate = [a * 50 for a in gate(rng, 3, 5)]
            classifier = rng.normal(size=(3, 4)) * 50
            pooled, alpha, pool_backward = tag_attention(Vp, *tag_gate)
            probs, classify_backward = predict_tag(pooled, classifier)
            grads = [np.zeros_like(a) for a in (classifier, Vp, *tag_gate)]

            def bag_backward(rows):
                g_pooled = classify_backward(rows[0], grads[0])
                pool_backward(g_pooled, *grads[1:])
                grads.append(g_pooled)

            loss = multi_task_loss([[Tensor(probs, bag_backward)]], [[2]], (1.0,))
            ad.backward(loss)
            assert len(grads) == 5
            for a in (Vp, *tag_gate, classifier, pooled, alpha, probs, loss.data, *grads):
                assert np.all(np.isfinite(a))
