import math

import numpy as np
import pytest

from patchbag import autodiff as ad
from patchbag.autodiff import Tensor
from patchbag.errors import ContractError, DimensionError, NumericError

from oracles import assert_grads_match, softmax_by_scalar


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ad.matmul(a, b).data, b.data)

    def test_zero(self):
        out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[0.0], [0.0]]))
        np.testing.assert_array_equal(out.data, [[0.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError) as err:
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
        assert "(2, 3)" in str(err.value)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        assert_grads_match(
            lambda: ad.tensor_sum(ad.matmul(a, b)), [a, b], rel=1e-6
        )

    def test_associative_with_identity(self):
        # extents <= 16, f64: (AB)C == A(BC) within 1e-10, A @ I == A
        rng = np.random.default_rng(5)
        for _ in range(25):
            m, k, n, p = rng.integers(1, 17, size=4)
            a = Tensor(rng.normal(size=(m, k)))
            b = Tensor(rng.normal(size=(k, n)))
            c = Tensor(rng.normal(size=(n, p)))
            left = ad.matmul(ad.matmul(a, b), c).data
            right = ad.matmul(a, ad.matmul(b, c)).data
            np.testing.assert_allclose(left, right, atol=1e-10, rtol=1e-10)
            np.testing.assert_array_equal(
                ad.matmul(a, Tensor(np.eye(k))).data, a.data
            )


class TestSoftmax:
    def test_equal_logits_give_uniform(self):
        for c in (-7.0, 0.0, 3.5):
            out = ad.softmax(Tensor([[c], [c], [c], [c]]), axis=0)
            np.testing.assert_allclose(out.data, 0.25, rtol=0, atol=1e-15)

    def test_single_element(self):
        out = ad.softmax(Tensor([[4.2]]), axis=0)
        np.testing.assert_array_equal(out.data, [[1.0]])

    def test_closed_form_quarter_three_quarters(self):
        out = ad.softmax(Tensor([[0.0], [math.log(3.0)]]), axis=0)
        np.testing.assert_allclose(out.data[:, 0], [0.25, 0.75], rtol=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=6) * 3
        out = ad.softmax(Tensor(logits.reshape(-1, 1)), axis=0)
        np.testing.assert_allclose(
            out.data[:, 0], softmax_by_scalar(list(logits)), rtol=1e-12
        )

    def test_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.normal(size=(rng.integers(1, 20), 1)) * 10
            y = ad.softmax(Tensor(x), axis=0).data
            assert abs(y.sum() - 1.0) <= 1e-12
            shifted = ad.softmax(Tensor(x + 123.456), axis=0).data
            np.testing.assert_allclose(y, shifted, atol=1e-12)

    def test_nan_input_raises(self):
        with pytest.raises(NumericError):
            ad.softmax(Tensor([[1.0], [float("nan")]]), axis=0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(5, 1)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 1)), requires_grad=True)
        assert_grads_match(
            lambda: ad.tensor_sum(ad.mul(ad.softmax(x, axis=0), w)),
            [x, w],
            rel=1e-6,
        )


class TestElementwise:
    def test_relu_values(self):
        out = ad.relu(Tensor([[-1.0], [0.0], [2.0]]))
        np.testing.assert_array_equal(out.data, [[0.0], [0.0], [2.0]])

    def test_relu_derivative_zero_at_zero(self):
        x = Tensor([[0.0], [1.0], [-1.0]], requires_grad=True)
        ad.backward(ad.tensor_sum(ad.relu(x)))
        np.testing.assert_array_equal(x.grad, [[0.0], [1.0], [0.0]])

    def test_tanh_zero(self):
        assert ad.tanh(Tensor([[0.0]])).data[0, 0] == 0.0

    def test_add_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ad.add(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 3))))

    def test_mul_backward_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        a = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        assert_grads_match(
            lambda: ad.tensor_sum(ad.mul(a, b)), [a, b], rel=1e-6
        )

    def test_mul_column_scales_each_row(self):
        a = Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        out = ad.mul(a, Tensor([[2.0], [-1.0]]))
        np.testing.assert_array_equal(out.data, [[2, 4, 6], [-4, -5, -6]])
        with pytest.raises(DimensionError):
            ad.mul(a, Tensor(np.ones((3, 1))))
        with pytest.raises(DimensionError):
            ad.mul(a, Tensor(np.ones((1, 3))))

    def test_mul_column_backward_matches_finite_differences(self):
        rng = np.random.default_rng(19)
        a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        col = Tensor(rng.normal(size=(4, 1)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3)))
        assert_grads_match(
            lambda: ad.tensor_sum(ad.mul(ad.mul(a, col), w)), [a, col], rel=1e-6
        )

    def test_tanh_backward_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        x = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        assert_grads_match(lambda: ad.tensor_sum(ad.tanh(x)), [x], rel=1e-6)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        ad.backward(ad.tensor_sum(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_zero_scaled_loss_gives_zeros(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        ad.backward(ad.tensor_sum(ad.scale(x, 0.0)))
        np.testing.assert_array_equal(x.grad, np.zeros((2, 3)))

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ContractError):
            ad.backward(ad.relu(x))

    def test_second_sweep_rejected(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        loss = ad.tensor_sum(x)
        ad.backward(loss)
        with pytest.raises(ContractError):
            ad.backward(loss)

    def test_shared_subexpression_accumulates(self):
        x = Tensor([[3.0]], requires_grad=True)
        y = ad.mul(x, x)  # d/dx x^2 = 2x
        ad.backward(ad.tensor_sum(y))
        np.testing.assert_allclose(x.grad, [[6.0]])

    def test_values_stay_finite_through_random_graphs(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
            b = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
            w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
            mid = ad.tanh(ad.matmul(a, b))
            out = ad.mul(ad.relu(mid), w)
            probs = ad.softmax(out, axis=1)
            mean_row = ad.matmul(Tensor(np.full((1, 4), 0.25)), probs)
            loss = ad.weighted_nll([[mean_row]], np.array([[2]]), [1.0])
            ad.backward(loss)
            for t in (a, b, w, mid, out, probs, loss):
                assert np.all(np.isfinite(t.data))
                if t.grad is not None:
                    assert np.all(np.isfinite(t.grad))


class TestSupportOps:
    def test_concat_and_split_gradient(self):
        rng = np.random.default_rng(29)
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        assert_grads_match(
            lambda: ad.tensor_sum(ad.tanh(ad.concat([a, b], axis=1))),
            [a, b],
            rel=1e-6,
        )

    def test_transpose_gradient(self):
        rng = np.random.default_rng(31)
        x = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 3)))
        assert_grads_match(
            lambda: ad.tensor_sum(ad.mul(ad.transpose(x), w)), [x], rel=1e-6
        )


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
            probs = [[ad.softmax(t, axis=1) for t in task] for task in logits]
            return ad.weighted_nll(probs, labels, [1.3, 0.0])

        probs = [[ad.softmax(t, axis=1) for t in task] for task in logits]
        assert probs[0][1].data[0, 2] < ad.LOG_FLOOR
        assert_grads_match(loss_builder, leaves, rel=1e-6, abs_=1e-10)
        for t in logits[1] + [logits[0][1]]:
            np.testing.assert_array_equal(t.grad, np.zeros_like(t.data))
        assert np.all(logits[0][0].grad != 0.0)
