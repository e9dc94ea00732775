"""Dense float64 tensors with a reverse sweep over hand-written layer nodes.

Define-by-run: each model layer is one graph node that records its inputs
and a backward closure derived by hand in numpy, so each forward pass
builds a fresh graph and a single reverse sweep fills in gradients. Besides
the sweep this module holds only the array softmax the layers share and the
weighted negative log-likelihood loss node.
"""

import numpy as np

from .errors import ContractError, NumericError

LOG_FLOOR = 1e-12


class Tensor:
    """A numpy float64 array plus an optional gradient slot.

    Tensors made by `node` keep references to their parent tensors and a
    closure that routes the output gradient back to them. Leaf tensors
    with requires_grad=True are the trainable parameters.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_swept")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None
        self._swept = False

    def _accumulate(self, g):
        """Add g to .grad; a tensor that requires no grad keeps none."""
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g


def node(data, parents, backward_fn) -> Tensor:
    """A graph node: `data` computed from `parents`.

    backward_fn(g) receives the node's gradient once every consumer has
    added to it, and accumulates into each parent that requires grad.
    """
    out = Tensor(data)
    out.requires_grad = any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


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

    probs[k][i] is a (1, C_k) probability row and labels an (N, K) array of
    class indices. Probabilities are clamped below at `floor`, where the
    log is flat and so passes back no gradient. Both sums run in order.
    """
    parents = [p for task in probs for p in task]
    x = np.array([[p.data[0, label] for p, label in zip(task, labels[:, k])]
                  for k, task in enumerate(probs)])              # (K, N)
    clamped = np.maximum(x, floor)
    weights = np.asarray(weights, dtype=np.float64)
    terms = np.cumsum(-np.log(clamped), axis=1)[:, -1]
    total = np.cumsum(terms * weights)[-1]

    def backward_fn(g):
        grads = np.where(x > floor, -(g * weights)[:, None] / clamped, 0.0)
        for p, label, grad in zip(parents, labels.T.ravel(), grads.ravel()):
            row = np.zeros_like(p.data)
            row[0, label] = grad
            p._accumulate(row)

    return node(total, parents, backward_fn)


def _topo_order(root: Tensor):
    """Parents-before-children ordering of the grad-requiring subgraph."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Run one reverse sweep from a scalar loss, filling .grad slots.

    A second sweep from the same tensor is rejected: the graph's saved
    activations are still valid but double accumulation is almost always a
    training-loop bug, so it raises rather than silently adding.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    if loss._swept:
        raise ContractError("backward: this loss was already swept; rebuild the graph")
    if not loss.requires_grad:
        raise ContractError("backward: loss does not depend on any trainable tensor")
    loss._swept = True
    loss.grad = np.ones_like(loss.data)
    for node in reversed(_topo_order(loss)):
        if node._backward is not None:
            node._backward(node.grad)
