"""Dense float64 tensors with reverse-mode automatic differentiation.

Define-by-run: every operation records its inputs and a backward closure on
the output tensor, so each forward pass builds a fresh graph and a single
reverse sweep fills in gradients. Scope is deliberately small: just the
primitives needed for gated patch attention, scaled dot-product attention,
attention pooling, softmax classifiers and cross-entropy training.
"""

import numpy as np

from .errors import ContractError, DimensionError, NumericError

LOG_FLOOR = 1e-12


class Tensor:
    """A numpy float64 array plus an optional gradient slot.

    Tensors made by operations keep references to their parent tensors and
    a closure that routes the output gradient back to them. Leaf tensors
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

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g


def _result(data, parents, backward_fn):
    out = Tensor(data)
    out.requires_grad = any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"add: shapes {a.data.shape} and {b.data.shape} differ")

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g)

    return _result(a.data + b.data, (a, b), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Element-wise product of same-shape tensors."""
    if a.data.shape != b.data.shape:
        raise DimensionError(f"mul: shapes {a.data.shape} and {b.data.shape} differ")

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g * b.data)
        if b.requires_grad:
            b._accumulate(g * a.data)

    return _result(a.data * b.data, (a, b), backward_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(
            f"matmul: shapes {a.data.shape} and {b.data.shape} do not chain"
        )

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return _result(a.data @ b.data, (a, b), backward_fn)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)

    def backward_fn(g):
        x._accumulate(g * (1.0 - y * y))

    return _result(y, (x,), backward_fn)


def relu(x: Tensor) -> Tensor:
    # derivative at exactly 0 is 0 (strict comparison)
    mask = x.data > 0.0

    def backward_fn(g):
        x._accumulate(g * mask)

    return _result(np.where(mask, x.data, 0.0), (x,), backward_fn)


def softmax(x: Tensor, axis: int) -> Tensor:
    """Numerically stable softmax along one axis (max subtraction)."""
    if not np.all(np.isfinite(x.data)):
        raise NumericError("softmax: input contains NaN or Inf")
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / np.sum(e, axis=axis, keepdims=True)

    def backward_fn(g):
        inner = np.sum(g * y, axis=axis, keepdims=True)
        x._accumulate(y * (g - inner))

    return _result(y, (x,), backward_fn)


def log(x: Tensor, floor: float = LOG_FLOOR) -> Tensor:
    """Natural log with the argument clamped below at `floor`."""
    clamped = np.maximum(x.data, floor)

    def backward_fn(g):
        # the clamped region is constant, so its derivative is zero
        x._accumulate(np.where(x.data > floor, g / clamped, 0.0))

    return _result(np.log(clamped), (x,), backward_fn)


def tensor_sum(x: Tensor) -> Tensor:
    """Sum of all elements, as a scalar (shape ()) tensor."""

    def backward_fn(g):
        x._accumulate(np.full_like(x.data, float(g)))

    return _result(np.sum(x.data), (x,), backward_fn)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward_fn(g):
        x._accumulate(g * c)

    return _result(x.data * c, (x,), backward_fn)


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise DimensionError(f"transpose: expected a matrix, got shape {x.data.shape}")

    def backward_fn(g):
        x._accumulate(g.T)

    return _result(np.ascontiguousarray(x.data.T), (x,), backward_fn)


def tile_cols(x: Tensor, n: int) -> Tensor:
    """Duplicate a column vector (M, 1) into an (M, n) matrix."""
    if x.data.ndim != 2 or x.data.shape[1] != 1:
        raise DimensionError(f"tile_cols: expected (M, 1), got shape {x.data.shape}")

    def backward_fn(g):
        x._accumulate(np.sum(g, axis=1, keepdims=True))

    return _result(np.repeat(x.data, n, axis=1), (x,), backward_fn)


def concat(parts, axis: int = 1) -> Tensor:
    parts = list(parts)
    shapes = [p.data.shape for p in parts]
    base = shapes[0]
    for s in shapes[1:]:
        if len(s) != len(base) or any(
            s[d] != base[d] for d in range(len(base)) if d != axis
        ):
            raise DimensionError(f"concat: shapes {shapes} disagree off axis {axis}")
    sizes = [s[axis] for s in shapes]
    bounds = np.cumsum(sizes)[:-1]

    def backward_fn(g):
        for part, piece in zip(parts, np.split(g, bounds, axis=axis)):
            if part.requires_grad:
                part._accumulate(piece)

    return _result(np.concatenate([p.data for p in parts], axis=axis), parts, backward_fn)


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
