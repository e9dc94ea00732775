"""Independent oracles the tests check the library against.

These deliberately avoid the library's own code paths: finite differences
instead of the autodiff engine, plain-Python counting instead of the
vectorized metrics, exact integer arithmetic instead of the float Otsu scan.
"""

import math

import numpy as np

from patchbag import autodiff as ad


def numeric_grads(loss_builder, tensors, step=1e-5, sample=None, seed=0):
    """Central finite differences of loss_builder() w.r.t. each tensor.

    loss_builder must rebuild the graph from the tensors' current data.
    Returns a list of (analytic, numeric) gradient array pairs. With
    `sample` set, only that many seeded-random coordinates per tensor are
    probed (for large matrices).
    """
    loss = loss_builder()
    ad.backward(loss)
    rng = np.random.default_rng(seed)
    pairs = []
    for t in tensors:
        analytic = t.grad.copy().reshape(-1)
        size = t.data.size
        if sample is None or sample >= size:
            coords = np.arange(size)
        else:
            coords = rng.choice(size, size=sample, replace=False)
        numeric = np.empty(len(coords))
        for j, i in enumerate(coords):
            # index the tensor itself: reshape(-1) of a strided view is a copy
            at = np.unravel_index(i, t.data.shape)
            orig = t.data[at]
            t.data[at] = orig + step
            up = float(loss_builder().data)
            t.data[at] = orig - step
            down = float(loss_builder().data)
            t.data[at] = orig
            numeric[j] = (up - down) / (2.0 * step)
        pairs.append((analytic[coords], numeric))
    return pairs


def assert_grads_match(loss_builder, tensors, rel=1e-4, abs_=1e-8, step=1e-5,
                       sample=None):
    for analytic, numeric in numeric_grads(loss_builder, tensors, step=step,
                                           sample=sample):
        np.testing.assert_allclose(analytic, numeric, rtol=rel, atol=abs_)


def softmax_by_scalar(logits):
    """Softmax evaluated one scalar at a time with math.exp."""
    m = max(logits)
    exps = [math.exp(v - m) for v in logits]
    s = sum(exps)
    return [e / s for e in exps]


def f1_by_counting(truth, pred, n_classes):
    """Per-class F1 from precision/recall, macro, micro, confusion; all loops."""
    per_class = []
    for c in range(n_classes):
        tp = sum(1 for t, p in zip(truth, pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(truth, pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(truth, pred) if t == c and p != c)
        if tp + fp + fn == 0:
            per_class.append(0.0)
            continue
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        if precision + recall == 0:
            per_class.append(0.0)
        else:
            per_class.append(2 * precision * recall / (precision + recall))
    macro = sum(per_class) / n_classes

    tp_all = sum(1 for t, p in zip(truth, pred) if t == p)
    fp_all = sum(1 for t, p in zip(truth, pred) if t != p)
    fn_all = fp_all  # single-label: every miss is one FP and one FN
    micro = 2 * tp_all / (2 * tp_all + fp_all + fn_all) if truth else 0.0

    confusion = [[0.0] * n_classes for _ in range(n_classes)]
    for t, p in zip(truth, pred):
        confusion[t][p] += 1
    for row in range(n_classes):
        s = sum(confusion[row])
        if s:
            confusion[row] = [v / s for v in confusion[row]]
    return per_class, macro, micro, confusion


def otsu_exhaustive_exact(hist):
    """Smallest cut maximizing between-class variance, in exact arithmetic.

    The variance at cut t is proportional to (s0*n1 - s1*n0)^2 / (n0*n1);
    candidates are compared by cross-multiplied integer fractions, so float
    rounding can never reorder ties.
    """
    total_n = int(sum(hist))
    total_s = sum(i * int(h) for i, h in enumerate(hist))
    best_t = 0
    best_num, best_den = -1, 1
    n0 = s0 = 0
    for t in range(256):
        n0 += int(hist[t])
        s0 += t * int(hist[t])
        n1 = total_n - n0
        s1 = total_s - s0
        if n0 == 0 or n1 == 0:
            num, den = 0, 1
        else:
            diff = s0 * n1 - s1 * n0
            num, den = diff * diff, n0 * n1
        if num * best_den > best_num * den:
            best_t, best_num, best_den = t, num, den
    return best_t


def anchors_by_window_sums(mask, patch_size):
    """(y, x) of every window with at least half its pixels set, in row-major
    order, each window counted directly from its own pixels."""
    h, w = mask.shape
    quota = patch_size * patch_size  # compared against twice the count
    return [(y, x) for y in range(h - patch_size + 1) for x in range(w - patch_size + 1)
            if 2 * int(mask[y:y + patch_size, x:x + patch_size].sum()) >= quota]



def augment_by_slicing(window, seed, side=224):
    """One window's augmented patch and its five choices (crop y, crop x,
    horizontal flip, vertical flip, quarter turns), re-drawn from
    default_rng(seed) and applied by plain slicing and one np.rot90 per turn."""
    rng = np.random.default_rng(seed)
    span = window.shape[0] - side + 1
    choices = (int(rng.integers(span)), int(rng.integers(span)),
               bool(rng.random() < 0.5), bool(rng.random() < 0.5), int(rng.integers(4)))
    crop_y, crop_x, flip_h, flip_v, turns = choices
    out = window[crop_y:crop_y + side, crop_x:crop_x + side]
    if flip_h:
        out = out[:, ::-1]
    if flip_v:
        out = out[::-1, :]
    for _ in range(turns):
        out = np.rot90(out)
    return out, choices

def nearest_prototype_labels(bag, trace_entry, prototypes, schema):
    """Classify a bag per task from its signal patches alone.

    Averages the task's planted signal patches and picks the closest class
    prototype; this is the separability oracle for synthetic data.
    """
    out = []
    for name, _classes in schema.tasks:
        signal = bag.features[trace_entry[name]]
        center = signal.mean(axis=0)
        dists = np.linalg.norm(prototypes[name] - center, axis=1)
        out.append(int(np.argmin(dists)))
    return out
