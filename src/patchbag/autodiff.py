"""`Tensor` and `backward`: what is left of the autodiff layer.

The layers in `patchbag.model` carry their own backwards and the loss
lives in `patchbag.training`. These two names stay here because the
package exports them and because the benchmark's tracer (bench/spans.py)
wraps `autodiff.backward` and counts `autodiff.Tensor`s.
"""

import numpy as np

from .errors import ContractError


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
