"""What sits around the model's hand-written backwards.

`Tensor`, an array with a gradient slot and the backward that made it; the
array softmax the layers share; the weighted negative log-likelihood loss,
whose backward hands each bag, or stack of bags, its gradient rows; and
`backward`, which runs a loss's recorded backward once.
"""

import numpy as np

from .errors import ContractError, NumericError

LOG_FLOOR = 1e-12


class Tensor:
    """A numpy float64 array, a gradient slot and the backward that made it.

    A loss's backward takes d loss / d loss; the K probability tensors of
    one bag, or of one stack, share one, which takes their K gradients. A
    trainable matrix's grad slot is its view into `ModelParams.grad`.
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

    probs[k] is task k's list of probability tensors: each holds one bag's
    (1, C_k) row or a stack's (B, 1, C_k) rows, bags in label order, and
    every task's list is cut into the same runs of bags. labels is an
    (N, K) array of class indices. Probabilities are clamped below at
    `floor`, where the log is flat and so passes back no gradient. Both sums
    run in order. The loss's backward calls each run's shared backward
    once, in bag order, with the run's K gradient arrays.
    """
    n = len(labels)
    rows = [task[0].data.reshape(n, -1) if len(task) == 1 else   # a view, no copy
            np.concatenate([p.data.reshape(-1, p.data.shape[-1]) for p in task])
            for task in probs]                                   # (N, C_k) each
    bags = np.arange(n)
    x = np.array([task_rows[bags, task_labels]
                  for task_rows, task_labels in zip(rows, labels.T)])
    clamped = np.maximum(x, floor)                               # (K, N)
    weights = np.asarray(weights, dtype=np.float64)
    terms = np.cumsum(-np.log(clamped), axis=1)[:, -1]
    total = np.cumsum(terms * weights)[-1]
    runs = list(zip(*probs))                  # the K tensors of each run of bags

    def backward_fn(g):
        grads = np.where(x > floor, -(g * weights)[:, None] / clamped, 0.0)
        g_rows = [np.zeros_like(task_rows) for task_rows in rows]
        for g_task, task_labels, task_grads in zip(g_rows, labels.T, grads):
            g_task[bags, task_labels] = task_grads
        start = 0
        for run in runs:
            stop = start + run[0].data.size // run[0].data.shape[-1]
            run[0]._backward([g_task[start:stop].reshape(p.data.shape)
                              for g_task, p in zip(g_rows, run)])
            start = stop

    return Tensor(total, backward_fn if all(p._backward for p in probs[0]) else None)


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
