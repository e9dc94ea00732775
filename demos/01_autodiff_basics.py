"""A gradient check through two model layers: task pooling and its classifier.

Each layer of the model works on arrays and returns its value together
with its own backward, written by hand in numpy. The training loss,
`multi_task_loss`, hands the class probabilities their gradient; chaining
the two layer backwards after it gives every input's gradient, and nudging
an entry and re-running the forward pass confirms each one.

Run:  python demos/01_autodiff_basics.py
"""

import numpy as np

from patchbag.autodiff import Tensor, backward
from patchbag.errors import ContractError
from patchbag.model import predict_tag, softmax, tag_attention
from patchbag.training import multi_task_loss

rng = np.random.default_rng(0)

# One bag of 6 transformed patch rows (4 features each) and one task with
# 3 classes. Each input gets a gradient array of its own shape.
inputs = {
    "Vp": rng.normal(size=(6, 4)),
    "gate_proj": rng.normal(size=(4, 5)),
    "gate_score": rng.normal(size=(5, 1)),
    "classifier": rng.normal(size=(4, 3)),
}
grads = {name: np.zeros_like(x) for name, x in inputs.items()}
label = np.array([[2]])


def build_loss():
    x = inputs
    pooled, alpha, pool_backward = tag_attention(x["Vp"], x["gate_proj"], x["gate_score"])
    probs, classify_backward = predict_tag(pooled, x["classifier"])

    def bag_backward(rows):
        # the classifier first, then the pooling it read from; each adds
        # its inputs' gradients into the arrays it is given
        g_pooled = classify_backward(rows[0], grads["classifier"])
        pool_backward(g_pooled, grads["Vp"], grads["gate_proj"], grads["gate_score"])

    loss = multi_task_loss([[Tensor(probs, bag_backward)]], label, (1.0,))
    return loss, alpha, probs


loss, alpha, probs = build_loss()
print("patch weights:", np.round(alpha[:, 0], 4), "sum", alpha.sum())
print("class probabilities:", np.round(probs[0], 4))
print("loss:", float(loss.data))

# The loss's backward hands the probability row its gradient, and the
# chained layer backwards carry it to every input.
backward(loss)

# Central finite differences on one entry of every input agree.
step = 1e-6
for name, x in inputs.items():
    orig = x[0, 0]
    x[0, 0] = orig + step
    up = float(build_loss()[0].data)
    x[0, 0] = orig - step
    down = float(build_loss()[0].data)
    x[0, 0] = orig
    numeric = (up - down) / (2 * step)
    print(f"d loss / d {name}[0, 0]: backward {grads[name][0, 0]:+.8f}  "
          f"finite difference {numeric:+.8f}")

# Softmax over a column normalizes across rows, stable under large shifts.
print("softmax sums to", softmax(rng.normal(size=(5, 1)) * 50, axis=0).sum())

# A second backward of the same loss is rejected, catching a classic bug.
try:
    backward(loss)
except ContractError as err:
    print("second backward:", err)
