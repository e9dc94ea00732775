"""A gradient check through one model layer: task pooling and its classifier.

Each layer of the model is one graph node whose backward is written by hand
in numpy. One reverse sweep fills .grad on every trainable matrix, and
nudging an entry and re-running the forward pass confirms each gradient.

Run:  python demos/01_autodiff_basics.py
"""

import numpy as np

from patchbag import autodiff as ad
from patchbag.autodiff import Tensor
from patchbag.errors import ContractError
from patchbag.model import predict_tag, tag_attention

rng = np.random.default_rng(0)

# One bag of 6 transformed patch rows (4 features each) and one task with
# 3 classes. Tensors with requires_grad=True receive gradients.
Vp = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
gate_proj = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
gate_score = Tensor(rng.normal(size=(5, 1)), requires_grad=True)
classifier = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
label = np.array([[2]])


def build_loss():
    pooled, alpha = tag_attention(Vp, gate_proj, gate_score)   # one node
    probs = predict_tag(pooled, classifier)                     # one node
    return ad.weighted_nll([[probs]], label, [1.0]), alpha, probs


loss, alpha, probs = build_loss()
print("patch weights:", np.round(alpha.data[:, 0], 4), "sum", alpha.data.sum())
print("class probabilities:", np.round(probs.data[0], 4))
print("loss:", float(loss.data))

# One reverse sweep: each node's backward runs once its consumers are done.
ad.backward(loss)

# Central finite differences on one entry of every input agree.
step = 1e-6
for name, t in (("Vp", Vp), ("gate_proj", gate_proj),
                ("gate_score", gate_score), ("classifier", classifier)):
    orig = t.data[0, 0]
    t.data[0, 0] = orig + step
    up = float(build_loss()[0].data)
    t.data[0, 0] = orig - step
    down = float(build_loss()[0].data)
    t.data[0, 0] = orig
    numeric = (up - down) / (2 * step)
    print(f"d loss / d {name}[0, 0]: backward {t.grad[0, 0]:+.8f}  "
          f"finite difference {numeric:+.8f}")

# Softmax over a column normalizes across rows, stable under large shifts.
print("softmax sums to", ad.softmax(rng.normal(size=(5, 1)) * 50, axis=0).sum())

# A second sweep of the same loss is rejected, catching a classic bug.
try:
    ad.backward(loss)
except ContractError as err:
    print("second backward:", err)
