"""What sits around the model's hand-written backwards.

`Tensor`, an array with a gradient slot and the backward that made it; the
array softmax the layers share; the weighted negative log-likelihood loss,
whose backward hands each bag its gradient rows; and `backward`, which runs
a loss's recorded backward once.
"""

import numpy as np

from .errors import ContractError, NumericError

LOG_FLOOR = 1e-12


class Tensor:
    """A numpy float64 array, a gradient slot and the backward that made it.

    A loss's backward takes d loss / d loss; the K probability rows of one
    bag share one, which takes the bag's K gradient rows. A trainable
    matrix's grad slot is its view into `ModelParams.grad`.
    """

    __slots__ = ("data", "grad", "_backward")

    def __init__(self, data, backward=None, grad=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = grad
        self._backward = backward


def softmax(x, axis: int):
    """Numerically stable softmax of an array along one axis (max subtraction)."""
    if not np.all(np.isfinite(x)):
        raise NumericError("softmax: input contains NaN or Inf")
    e = np.exp(x - np.max(x, axis=axis, keepdims=True))
    return e / np.sum(e, axis=axis, keepdims=True)


def softmax_grad(y, g, axis: int):
    """Gradient at the input of softmax output y, given the gradient g at y."""
    return y * (g - np.sum(g * y, axis=axis, keepdims=True))


def weighted_nll(probs, labels, weights, floor: float = LOG_FLOOR) -> Tensor:
    """Scalar sum over k of weights[k] * sum over i of -log p_ik[label_ik].

    probs[k][i] is bag i's (1, C_k) probability row for task k, and labels
    an (N, K) array of class indices. Probabilities are clamped below at
    `floor`, where the log is flat and so passes back no gradient. Both sums
    run in order. The loss's backward calls each bag's shared backward once,
    in bag order, with that bag's K gradient rows.
    """
    x = np.array([[p.data[0, label] for p, label in zip(task, labels[:, k])]
                  for k, task in enumerate(probs)])              # (K, N)
    clamped = np.maximum(x, floor)
    weights = np.asarray(weights, dtype=np.float64)
    terms = np.cumsum(-np.log(clamped), axis=1)[:, -1]
    total = np.cumsum(terms * weights)[-1]
    bag_backwards = [p._backward for p in probs[0]]

    def backward_fn(g):
        grads = np.where(x > floor, -(g * weights)[:, None] / clamped, 0.0)
        for i, bag_backward in enumerate(bag_backwards):
            rows = [np.zeros_like(task[i].data) for task in probs]
            for k, row in enumerate(rows):
                row[0, labels[i, k]] = grads[k, i]
            bag_backward(rows)

    return Tensor(total, backward_fn if all(bag_backwards) else None)


def backward(loss: Tensor) -> None:
    """Run the scalar loss's recorded backward once.

    A second backward of the same loss raises: adding its gradient twice is
    almost always a training-loop bug.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    if loss._backward is None:
        raise ContractError("backward: this loss has no backward to run: it ran "
                            "already, or nothing trainable produced it")
    run, loss._backward = loss._backward, None
    run(np.ones_like(loss.data))
