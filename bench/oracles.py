"""Reference computations the benchmark judges patchbag's outputs against.

Written from the model's equations and the documented file formats, apart
from the program: nothing here imports patchbag. The forward pass is plain
numpy, batched over bags of equal patch count; F1 is counted in loops;
Otsu's threshold is found by exhaustive integer search.
"""

import math
import os

import numpy as np

# The default schema's class counts (stain 3, species 6, organ 16).
DEFAULT_CLASS_COUNTS = (3, 6, 16)


def uniform_loss_bound(class_counts=DEFAULT_CLASS_COUNTS):
    """Cross entropy summed over tasks of a predictor that outputs 1/C_k."""
    return sum(math.log(c) for c in class_counts)


def chance_macro_f1(class_counts=DEFAULT_CLASS_COUNTS):
    """Expected avg Macro F1 of uniform random guessing on balanced classes.

    Each class then has precision and recall 1/C, so F1 = 1/C per class.
    """
    return sum(1.0 / c for c in class_counts) / len(class_counts)


# ---------------------------------------------------------------------------
# file readers, from the formats described in bagio.py and model.py
# ---------------------------------------------------------------------------


def read_checkpoint(path):
    """Returns (fields, class_counts, {matrix name: array})."""
    with open(path, "rb") as fh:
        raw = fh.read()
    marker = raw.index(b"\nend\n")
    header = raw[:marker].decode("utf-8").split("\n")
    blob = raw[marker + 5:]
    fields, counts, shapes = {}, [], []
    for line in header:
        toks = line.split()
        if toks[0] == "matrix":
            shapes.append((toks[1], int(toks[2]), int(toks[3])))
        elif toks[0] == "task":
            counts.append(len(toks) - 2)
        elif toks[0] != "tasks":
            fields[toks[0]] = toks[1]
    mats, offset = {}, 0
    for name, rows, cols in shapes:
        n = rows * cols
        mats[name] = np.frombuffer(blob, "<f8", n, offset).reshape(rows, cols)
        offset += 8 * n
    if offset != len(blob):
        raise ValueError(f"{path}: blob holds {len(blob)} bytes, header {offset}")
    return fields, tuple(counts), mats


def read_bag_dir(directory):
    """Returns (feature_dim, class_counts, [(id, labels, (M, D) array)])."""
    with open(os.path.join(directory, "manifest"), encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    with open(os.path.join(directory, "features.bin"), "rb") as fh:
        blob = fh.read()
    dim = int(lines[1].split()[1])
    tasks, counts, bags, total = [], [], [], 0
    for line in lines[2:]:
        toks = line.split()
        if not toks:
            continue
        if toks[0] == "task":
            tasks.append(toks[1])
            counts.append(len(toks) - 2)
        elif toks[0] == "bag":
            kv = dict(t.split("=", 1) for t in toks[2:])
            m, offset = int(kv["patches"]), int(kv["offset"])
            labels = tuple(int(kv[name]) for name in tasks)
            feats = np.frombuffer(blob, "<f8", m * dim, offset).reshape(m, dim)
            bags.append((toks[1], labels, feats))
            total += m * dim * 8
    if total != len(blob):
        raise ValueError(f"{directory}: features.bin holds {len(blob)} bytes, "
                         f"manifest accounts for {total}")
    return dim, tuple(counts), bags


# ---------------------------------------------------------------------------
# reference forward pass
# ---------------------------------------------------------------------------


def _softmax(x, axis):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _gate(X, proj, score):
    """Attention weights over patches: softmax_M(tanh(X proj) score), (N, M)."""
    return _softmax((np.tanh(X @ proj) @ score)[..., 0], axis=1)


def reference_forward(fields, mats, V):
    """Forward pass of a stack V of N equal-size bags, shape (N, M, D).

    Returns (per-task (N, C_k) probabilities, per-task (N, M) pooling
    weights). Equations: gated heads a_h = softmax(tanh(V G_h) s_h);
    V' = relu(V + [a_1*V | ... | a_H*V] P). sdpa heads
    A_h = softmax(Q_h K_h^T / sqrt(D/H)) row-wise; V' = relu(V + [A_h V_h] P).
    Per task k: alpha = softmax(tanh(V' T_k) t_k); p = softmax(alpha^T V' C_k).
    """
    heads = int(fields["heads"])
    if heads == 0:
        Vp = V
    elif fields["variant"] == "gated":
        scaled = [_gate(V, mats[f"head{h}.gate_proj"], mats[f"head{h}.gate_score"])
                  [..., None] * V for h in range(heads)]
        Vp = np.maximum(V + np.concatenate(scaled, axis=2) @ mats["proj"], 0.0)
    else:
        d_head = V.shape[2] // heads
        outs = []
        for h in range(heads):
            q = V @ mats[f"head{h}.query"]
            k = V @ mats[f"head{h}.key"]
            v = V @ mats[f"head{h}.value"]
            A = _softmax(q @ k.transpose(0, 2, 1) / math.sqrt(d_head), axis=2)
            outs.append(A @ v)
        Vp = np.maximum(V + np.concatenate(outs, axis=2) @ mats["proj"], 0.0)
    probs, alphas = [], []
    k = 0
    while f"tag{k}.classify" in mats:
        alpha = _gate(Vp, mats[f"tag{k}.gate_proj"], mats[f"tag{k}.gate_score"])
        pooled = np.einsum("nm,nmd->nd", alpha, Vp)
        probs.append(_softmax(pooled @ mats[f"tag{k}.classify"], axis=1))
        alphas.append(alpha)
        k += 1
    return probs, alphas


def reference_predict(fields, mats, bags):
    """Runs reference_forward over (id, labels, features) bags of any sizes.

    Returns {bag id: (per-task probability vectors, per-task weights)}.
    """
    by_m = {}
    for bag in bags:
        by_m.setdefault(bag[2].shape[0], []).append(bag)
    out = {}
    for group in by_m.values():
        probs, alphas = reference_forward(fields, mats,
                                          np.stack([b[2] for b in group]))
        for i, bag in enumerate(group):
            out[bag[0]] = ([p[i] for p in probs], [a[i] for a in alphas])
    return out


def argmax_with_margin(p):
    """(argmax, gap between the two largest probabilities)."""
    order = np.argsort(-p, kind="stable")
    return int(order[0]), float(p[order[0]] - p[order[1]])


# ---------------------------------------------------------------------------
# metrics by counting
# ---------------------------------------------------------------------------


def f1_by_counting(truth, pred, n_classes):
    """(per-class F1, Macro F1, accuracy, confusion rows normalized by truth).

    A class absent from both truth and predictions scores 0, as the
    program's report documents.
    """
    per_class = []
    for c in range(n_classes):
        tp = fp = fn = 0
        for t, p in zip(truth, pred):
            if p == c and t == c:
                tp += 1
            elif p == c:
                fp += 1
            elif t == c:
                fn += 1
        per_class.append(2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0)
    hits = sum(1 for t, p in zip(truth, pred) if t == p)
    confusion = []
    for c in range(n_classes):
        row = [0] * n_classes
        for t, p in zip(truth, pred):
            if t == c:
                row[p] += 1
        n = sum(row)
        confusion.append([v / n if n else 0.0 for v in row])
    return per_class, sum(per_class) / n_classes, hits / len(truth), confusion


# ---------------------------------------------------------------------------
# Otsu
# ---------------------------------------------------------------------------


def otsu_exhaustive(hist):
    """Smallest cut t maximizing between-class variance, in integers.

    With n0, s0 the count and intensity sum at or below t (n1, s1 above),
    the variance is proportional to (s0 n1 - s1 n0)^2 / (n0 n1); cuts are
    compared by cross-multiplying, so no rounding can reorder them.
    """
    hist = [int(h) for h in hist]
    n, s = sum(hist), sum(i * h for i, h in enumerate(hist))
    best_t, best_num, best_den = 0, -1, 1
    n0 = s0 = 0
    for t in range(256):
        n0 += hist[t]
        s0 += t * hist[t]
        n1, s1 = n - n0, s - s0
        num, den = ((s0 * n1 - s1 * n0) ** 2, n0 * n1) if n0 and n1 else (0, 1)
        if num * best_den > best_num * den:
            best_t, best_num, best_den = t, num, den
    return best_t


# ---------------------------------------------------------------------------
# synthetic-label recovery
# ---------------------------------------------------------------------------


def planted_slots(n_tasks, m, signal_fraction=0.25):
    """Patch rows carrying task k's signal: k, k+K, k+2K, ... (round robin)."""
    per_task = math.ceil(signal_fraction * m)
    return [[k + j * n_tasks for j in range(per_task)] for k in range(n_tasks)]


def centroid_recovery(fit_bags, test_bags, class_counts):
    """Share of test labels recovered by nearest class centroid.

    Centroids are the mean planted-slot feature of each class over fit_bags;
    each test bag's planted slots are averaged and matched to the nearest.
    """
    K = len(class_counts)
    dim = fit_bags[0][2].shape[1]
    sums = [np.zeros((c, dim)) for c in class_counts]
    seen = [np.zeros(c) for c in class_counts]
    for _, labels, feats in fit_bags:
        for k, rows in enumerate(planted_slots(K, feats.shape[0])):
            sums[k][labels[k]] += feats[rows].mean(axis=0)
            seen[k][labels[k]] += 1
    cents = [s / np.maximum(n, 1)[:, None] for s, n in zip(sums, seen)]
    hits = total = 0
    for _, labels, feats in test_bags:
        for k, rows in enumerate(planted_slots(K, feats.shape[0])):
            d = np.linalg.norm(cents[k] - feats[rows].mean(axis=0), axis=1)
            hits += int(np.argmin(d)) == labels[k]
            total += 1
    return hits / total
