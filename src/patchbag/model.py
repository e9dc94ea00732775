"""The patch-bag tagging network.

A bag of M patch feature rows V (M x D) flows through:

  1. a transform stage: either multi-head gated attention (each head scores
     every patch, rescales its row, heads are concatenated and projected,
     with a residual connection and ReLU), or scaled dot-product attention
     as an ablation variant, or nothing at all when heads = 0;
  2. per-task attention pooling: a softmax over patches turns V' into one
     task-specific summary vector per tagging task;
  3. per-task softmax classifiers.

Each layer works on arrays and returns its value with a backward written
by hand in numpy; `forward` chains them into one backward per call, which
adds the gradient into one flat vector for every matrix at once.

The layers take the patch axis as -2, so `forward` also runs a list of
bags of one shape as a (B, M, D) stack through the same functions, forward
and backward, with the bytes of one bag at a time: each matrix's gradient
is computed for the whole stack, then added into its view bag by bag.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import (
    ConfigError,
    ContractError,
    DimensionError,
    EmptyBagError,
    IntegrityError,
    ParseError,
)

CHECKPOINT_MAGIC = "patchbag-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class TagSchema:
    """The tagging tasks and their class names, in fixed order."""

    tasks: tuple

    def __post_init__(self):
        if len(self.tasks) < 1:
            raise ConfigError("schema: needs at least one task")
        names = [name for name, _ in self.tasks]
        if len(set(names)) != len(names):
            raise ConfigError("schema: duplicate task names")
        for name, classes in self.tasks:
            # manifests and checkpoints store names as whitespace-split
            # tokens, and bag lines label tasks as `task=class`
            for text in (name, *classes):
                if not isinstance(text, str) or text.split() != [text]:
                    raise ConfigError(f"schema: name {text!r} must be non-empty "
                                      "text without whitespace")
            if "=" in name:
                raise ConfigError(f"schema: task name {name!r} contains '='")
            if len(classes) < 2:
                raise ConfigError(f"schema: task {name!r} needs >= 2 classes")
            if len(set(classes)) != len(classes):
                raise ConfigError(f"schema: duplicate class names in task {name!r}")

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def task_names(self):
        return tuple(name for name, _ in self.tasks)

    @property
    def class_counts(self):
        return tuple(len(classes) for _, classes in self.tasks)

    def classes(self, task: str):
        for name, classes in self.tasks:
            if name == task:
                return classes
        raise KeyError(task)

    def describe(self) -> str:
        return ", ".join(f"{n}:{len(c)}" for n, c in self.tasks)

    def manifest_lines(self):
        lines = [f"tasks {self.n_tasks}"]
        for name, classes in self.tasks:
            lines.append(f"task {name} " + " ".join(classes))
        return lines


DEFAULT_SCHEMA = TagSchema(
    tasks=(
        ("stain", ("H&E", "IHC", "Special")),
        (
            "species",
            ("Human", "Monkey", "Mouse", "Pig", "Rat", "Zebrafish"),
        ),
        (
            "organ",
            (
                "Bone", "Brain", "Breast", "Cecum", "Colon", "Heart",
                "Skin", "Skin_Dorsal", "Intestine", "Kidney", "Liver",
                "Lung", "Pancreas", "Prostate", "Spleen", "Skin_Ventral",
            ),
        ),
    )
)


def header_int(path, text, where):
    """A non-negative decimal integer from a manifest or checkpoint header."""
    if not (text.isascii() and text.isdigit()):
        raise ParseError(f"{path}: {where!r}: {text!r} is not a non-negative integer")
    return int(text)


def count_line(path, line, key):
    """N from a `key N` header line."""
    toks = line.split(" ")
    if len(toks) != 2 or toks[0] != key:
        raise ParseError(f"{path}: expected '{key} N' line, got {line!r}")
    return header_int(path, toks[1], line)


def parse_schema_lines(lines, path="<manifest>"):
    """Parse the `tasks N` / `task name c1 c2 ...` block used in manifests."""
    it = iter(lines)
    n = count_line(path, next(it, ""), "tasks")
    tasks = []
    for _ in range(n):
        line = next(it, "")
        if not line.startswith("task "):
            raise ParseError(f"{path}: expected 'task NAME CLASS ...' line, got {line!r}")
        toks = line.split(" ")        # TagSchema rejects empty names and < 2 classes
        tasks.append((toks[1], tuple(toks[2:])))
    try:
        return TagSchema(tasks=tuple(tasks))
    except ConfigError as e:
        raise ParseError(f"{path}: {e}") from None


@dataclass(frozen=True)
class ModelDims:
    feature_dim: int          # width of each patch feature row
    attn_hidden: int = 32     # hidden width of the per-head gate
    tag_hidden: int = 32      # hidden width of the per-task pooling gate
    n_heads: int = 3          # 0 disables the transform stage entirely

    def __post_init__(self):
        if self.feature_dim < 1:
            raise ConfigError("dims: feature_dim must be >= 1")
        if self.attn_hidden < 1 or self.tag_hidden < 1:
            raise ConfigError("dims: hidden widths must be >= 1")
        if self.n_heads < 0:
            raise ConfigError("dims: n_heads must be >= 0")


@dataclass
class AttentionRecord:
    """Per-bag attention weights, for export and visualization.

    head_weights is empty for the sdpa variant, whose per-head weights are
    M x M matrices rather than one vector per head. The record of a stack
    of B bags has the tuple of their ids and (B, M) weight arrays.
    """

    bag_id: str
    head_weights: list = field(default_factory=list)  # n_heads arrays of (M,)
    tag_weights: list = field(default_factory=list)   # n_tasks arrays of (M,)


def _matrix_shapes(schema, dims, variant):
    """(name, rows, cols) of every matrix, in the order init draws fill them."""
    if variant not in ("gated", "sdpa"):
        raise ConfigError(f"variant: must be 'gated' or 'sdpa', got {variant!r}")
    if variant == "sdpa" and dims.n_heads > 0:
        if dims.feature_dim % dims.n_heads != 0:
            raise ConfigError(
                f"sdpa: feature_dim {dims.feature_dim} not divisible by "
                f"{dims.n_heads} heads"
            )
    D = dims.feature_dim
    draws = []
    if dims.n_heads > 0:
        if variant == "gated":
            head_keys = (("gate_proj", D, dims.attn_hidden),
                         ("gate_score", dims.attn_hidden, 1))
            proj_rows = dims.n_heads * D
        else:
            d_head = D // dims.n_heads
            head_keys = tuple((key, D, d_head) for key in ("query", "key", "value"))
            proj_rows = D
        for i in range(dims.n_heads):
            draws += [(f"head{i}.{key}", rows, cols) for key, rows, cols in head_keys]
        draws.append(("proj", proj_rows, D))
    for k, n_classes in enumerate(schema.class_counts):
        draws += [(f"tag{k}.gate_proj", D, dims.tag_hidden),
                  (f"tag{k}.gate_score", dims.tag_hidden, 1),
                  (f"tag{k}.classify", D, n_classes)]
    return draws


def _flat_order(draws):
    """named_parameters() order, the layout of `flat`: every classifier after
    every tag gate."""
    return sorted(draws, key=lambda d: d[0].endswith(".classify"))


class ModelParams:
    """All trainable matrices, plus the dims/schema/variant that shape them.

    Every matrix is a view into one contiguous float64 vector, `flat`, laid
    out in named_parameters() order, so copies, checkpoints and optimizer
    steps each touch one array; bag backwards add into `grad`, laid out the
    same, and set `has_grad`. Forward never writes to parameter data;
    training is the single writer.
    """

    def __init__(self, schema: TagSchema, dims: ModelDims, variant: str, seed: int):
        draws = self._lay_out(schema, dims, variant, seed)
        rng = np.random.default_rng(seed)
        for name, rows, cols in draws:
            bound = math.sqrt(1.0 / rows)
            self._named[name].data[...] = rng.uniform(-bound, bound, size=(rows, cols))

    def _lay_out(self, schema, dims, variant, seed):
        """Set up an unfilled `flat` and its named views; returns the init draws."""
        draws = _matrix_shapes(schema, dims, variant)
        self.schema = schema
        self.dims = dims
        self.variant = variant
        self.seed = seed
        layout = _flat_order(draws)
        self.flat = np.empty(sum(rows * cols for _, rows, cols in layout))
        self.grad = np.zeros_like(self.flat)
        self.has_grad = False
        self._named = {}
        offset = 0
        for name, rows, cols in layout:
            span = slice(offset, offset + rows * cols)
            self._named[name] = Tensor(self.flat[span].reshape(rows, cols),
                                       grad=self.grad[span].reshape(rows, cols))
            offset += rows * cols
        t = self._named
        self.heads = [{name.split(".")[1]: t[name] for name in t
                       if name.startswith(f"head{i}.")} for i in range(dims.n_heads)]
        self.proj = t.get("proj")   # shared output projection, None when n_heads == 0
        self.tag_gates = [(t[f"tag{k}.gate_proj"], t[f"tag{k}.gate_score"])
                          for k in range(schema.n_tasks)]
        self.classifiers = [t[f"tag{k}.classify"] for k in range(schema.n_tasks)]
        return draws

    def named_parameters(self):
        """All matrices in a fixed order (also the layout of `flat`)."""
        return list(self._named.items())

    def parameters(self):
        return list(self._named.values())

    def copy(self) -> "ModelParams":
        dup = ModelParams.__new__(ModelParams)      # no init draws to overwrite
        dup._lay_out(self.schema, self.dims, self.variant, self.seed)
        dup.flat[...] = self.flat
        return dup


def _T(x):
    """The transpose of one bag's matrix, or of each matrix in a stack."""
    return x.swapaxes(-1, -2)


def _add_bags(grad, contrib):
    """Add a matrix's gradient from one bag, or from each bag of a stack in order.

    Adding bag by bag, never summing the stack axis first, keeps the float
    order of one bag at a time.
    """
    if contrib.ndim == 2:
        grad += contrib
    else:
        for bag_contrib in contrib:
            grad += bag_contrib


def _gate(name, V, gate_proj, gate_score):
    """(..., M, 1) softmax weights over the M rows of V, from tanh(V W) w.

    backward(g, g_V, g_proj, g_score) adds the gradients at V (unless g_V
    is None), W and w into those arrays.
    """
    if V.shape[-2] == 0:
        raise EmptyBagError(f"{name}: bag has no patches")
    hidden = np.tanh(V @ gate_proj)
    a = ad.softmax(hidden @ gate_score, axis=-2)

    def backward(g, g_V, g_proj, g_score):
        g_logits = ad.softmax_grad(a, g, axis=-2)
        g_hidden = g_logits @ gate_score.T
        _add_bags(g_score, _T(hidden) @ g_logits)
        g_pre = g_hidden * (1.0 - hidden * hidden)
        if g_V is not None:
            g_V += g_pre @ gate_proj.T
        _add_bags(g_proj, _T(V) @ g_pre)

    return a, backward


def head_attention(V, gate_proj, gate_score):
    """One gated attention head: (M, 1) patch weights and their `_gate` backward."""
    return _gate("head_attention", V, gate_proj, gate_score)


def _residual_projection(V, outs, proj, head_grads):
    """relu(V + concat(outs) @ proj); V, the bag, takes no gradient.

    backward(g) adds the gradient at proj into its grad view and hands
    head_grads the gradient at each head's block of columns.
    """
    if not outs:
        raise ContractError("transform: the model has 0 heads; it needs 1 or more")
    stacked = np.concatenate(outs, axis=-1)
    pre = V + stacked @ proj.data
    mask = pre > 0.0

    def backward(g):
        g_pre = g * mask
        g_stacked = g_pre @ proj.data.T
        _add_bags(proj.grad, _T(stacked) @ g_pre)
        head_grads(np.split(g_stacked, len(outs), axis=-1))

    return np.where(mask, pre, 0.0), backward


def patch_transform(V, params: ModelParams):
    """Gated multi-head transform: concat scaled copies, project, residual, ReLU.

    Returns V', the per-head (M, 1) weight columns and the backward, which
    adds the gradients at the heads and the projection into params.grad.
    """
    gates = [head_attention(V, head["gate_proj"].data, head["gate_score"].data)
             for head in params.heads]

    def head_grads(pieces):
        for head, (_, gate_backward), piece in zip(params.heads, gates, pieces):
            gate_backward(np.sum(piece * V, axis=-1, keepdims=True), None,
                          head["gate_proj"].grad, head["gate_score"].grad)

    weights = [a for a, _ in gates]
    outs = [V * a for a in weights]                # each row scaled by its weight
    Vp, backward = _residual_projection(V, outs, params.proj, head_grads)
    return Vp, weights, backward


def sdpa_transform(V, params: ModelParams):
    """Scaled dot-product attention variant of the transform stage.

    Returns V', the per-head (M, M) row-stochastic attention arrays and a
    backward like patch_transform's.
    """
    if V.shape[-2] == 0:
        raise EmptyBagError("sdpa_transform: bag has no patches")
    saved = []
    for head in params.heads:
        q, k, v = (V @ head[key].data for key in ("query", "key", "value"))
        kT = np.ascontiguousarray(np.swapaxes(k, -1, -2))
        scale = 1.0 / math.sqrt(q.shape[-1])    # every head is d_head wide
        saved.append((head, q, kT, v, ad.softmax((q @ kT) * scale, axis=-1)))

    def head_grads(pieces):
        for (head, q, kT, v, attn), piece in zip(saved, pieces):
            g_scores = ad.softmax_grad(attn, piece @ _T(v), axis=-1) * scale
            _add_bags(head["value"].grad, _T(V) @ (_T(attn) @ piece))
            _add_bags(head["query"].grad, _T(V) @ (g_scores @ _T(kT)))
            _add_bags(head["key"].grad, _T(V) @ _T(_T(q) @ g_scores))

    outs = [attn @ v for _, _, _, v, attn in saved]
    Vp, backward = _residual_projection(V, outs, params.proj, head_grads)
    return Vp, [attn for *_, attn in saved], backward


def tag_attention(Vp, gate_proj, gate_score):
    """Pool V' into one task vector: the (..., 1, D) summary and (..., M, 1) weights.

    backward(g, g_Vp, g_proj, g_score) adds the gradients at V' (unless
    g_Vp is None) and the gate's two matrices into those arrays.
    """
    alpha, gate_backward = _gate("tag_attention", Vp, gate_proj, gate_score)

    def backward(g, g_Vp, g_proj, g_score):
        g_alpha = _T(g @ _T(Vp))
        if g_Vp is not None:
            g_Vp += alpha @ g
        gate_backward(g_alpha, g_Vp, g_proj, g_score)

    return np.swapaxes(alpha, -1, -2) @ Vp, alpha, backward


def predict_tag(pooled, classifier):
    """Class probabilities for one task, shape (..., 1, n_classes).

    backward(g, g_classifier) adds the gradient at the classifier into
    g_classifier and returns the gradient at pooled.
    """
    if pooled.shape[-1] != classifier.shape[0]:
        raise DimensionError(f"predict_tag: pooled {pooled.shape} vs classifier "
                             f"{classifier.shape}")
    probs = ad.softmax(pooled @ classifier, axis=-1)

    def backward(g, g_classifier):
        g_logits = ad.softmax_grad(probs, g, axis=-1)
        _add_bags(g_classifier, _T(pooled) @ g_logits)
        return g_logits @ classifier.T

    return probs, backward


def forward(bag, params: ModelParams):
    """Run one bag, or a list of bags of one feature shape, through the network.

    `bag` is a PatchBag (or anything with .features and .bag_id). Returns
    (probs, record): one (1, n_classes_k) probability tensor per task, and
    the attention weights. The K tensors share one backward, which adds the
    bag's gradient into params.grad: tasks in order, then the transform.

    A list of B bags of one (M, D) shape runs as one (B, M, D) stack: each
    tensor is (B, 1, n_classes_k) and holds in row i the bytes bag i gives
    alone; the record is the stack's (see AttentionRecord). The shared
    backward takes K (B, 1, n_classes_k) gradients and adds each matrix's
    gradient bag by bag, in stack order: the bytes of B one-bag backwards.
    """
    stacked = isinstance(bag, list)
    if stacked:
        feats, bag_id = _stack(bag), tuple(b.bag_id for b in bag)
    else:
        feats, bag_id = np.asarray(bag.features, dtype=np.float64), bag.bag_id
    shape = feats.shape[1:] if stacked else feats.shape
    if len(shape) != 2:
        raise DimensionError(f"forward: features must be 2-D, got {shape}")
    if shape[0] == 0:
        raise EmptyBagError(f"forward: bag {bag_id!r} has no patches")
    if shape[1] != params.dims.feature_dim:
        raise DimensionError(
            f"forward: bag feature dim {shape[1]} != model "
            f"feature_dim {params.dims.feature_dim}"
        )
    record = AttentionRecord(bag_id=bag_id)
    Vp, transform_backward = feats, None
    if params.dims.n_heads > 0 and params.variant == "gated":
        Vp, head_w, transform_backward = patch_transform(feats, params)
        record.head_weights = [w[..., 0].copy() for w in head_w]
    elif params.dims.n_heads > 0:
        Vp, _, transform_backward = sdpa_transform(feats, params)
    probs, task_backwards = [], []
    for (gate_proj, gate_score), classifier in zip(params.tag_gates, params.classifiers):
        pooled, alpha, pool_backward = tag_attention(Vp, gate_proj.data, gate_score.data)
        record.tag_weights.append(alpha[..., 0].copy())
        p, classify_backward = predict_tag(pooled, classifier.data)
        probs.append(p)
        task_backwards.append((pool_backward, classify_backward))

    def backward(g_rows):
        g_Vp = None if transform_backward is None else np.zeros_like(Vp)
        for g, (pool_backward, classify_backward), (gate_proj, gate_score), classifier \
                in zip(g_rows, task_backwards, params.tag_gates, params.classifiers):
            g_pooled = classify_backward(g, classifier.grad)
            pool_backward(g_pooled, g_Vp, gate_proj.grad, gate_score.grad)
        if transform_backward is not None:
            transform_backward(g_Vp)
        params.has_grad = True

    return [Tensor(p, backward) for p in probs], record


def _stack(bags):
    """The (B, M, D) stack of the bags' features; they must share one shape."""
    if not bags:
        raise ContractError("forward: got an empty list of bags")
    first = np.shape(bags[0].features)
    for b in bags:
        if np.shape(b.features) != first:
            raise DimensionError(
                f"forward: bag {b.bag_id!r} has features {np.shape(b.features)}, "
                f"bag {bags[0].bag_id!r} {first}; a stack needs one shape"
            )
    return np.stack([np.asarray(b.features, dtype=np.float64) for b in bags])


def predict_probs(bag, params: ModelParams):
    """Forward pass returning plain numpy probability vectors."""
    probs, record = forward(bag, params)
    return [p.data[0].copy() for p in probs], record


# ---------------------------------------------------------------------------
# checkpoint I/O
#
# One file: a UTF-8 header, then the raw little-endian float64 bytes of
# ModelParams.flat, which holds every matrix in named_parameters() order.
# `_checkpoint_header` renders the header for both directions: the loader
# reads the variant, the five integers and the schema by position, and
# accepts the file only if its header is byte for byte the one rendered from
# them and its blob is as long as that header declares; only then does it
# lay out the ModelParams. Round-trips are bit-exact.
# ---------------------------------------------------------------------------


def _checkpoint_header(schema, dims, variant, seed) -> bytes:
    lines = [
        f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}",
        f"variant {variant}",
        f"seed {seed}",
        f"feature_dim {dims.feature_dim}",
        f"attn_hidden {dims.attn_hidden}",
        f"tag_hidden {dims.tag_hidden}",
        f"heads {dims.n_heads}",
    ]
    lines.extend(schema.manifest_lines())
    lines.extend(f"matrix {name} {rows} {cols}" for name, rows, cols
                 in _flat_order(_matrix_shapes(schema, dims, variant)))
    lines.append("end")
    return ("\n".join(lines) + "\n").encode("utf-8")


def save_checkpoint(params: ModelParams, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_checkpoint_header(params.schema, params.dims, params.variant,
                                    params.seed)
                 + params.flat.astype("<f8").tobytes())


def load_checkpoint(path) -> ModelParams:
    with open(path, "rb") as fh:
        raw = fh.read()
    end = raw.find(b"\nend\n")
    if end < 0:
        raise ParseError(f"{path}: no 'end' marker in checkpoint header")
    end += len(b"\nend\n")
    try:
        lines = raw[:end].decode("utf-8").split("\n")
    except UnicodeDecodeError:
        raise ParseError(f"{path}: checkpoint header is not UTF-8") from None
    it = iter(lines)
    if next(it) != f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}":
        raise ParseError(f"{path}: missing or unsupported checkpoint magic/version")
    variant = next(it).removeprefix("variant ")
    seed, feature_dim, attn_hidden, tag_hidden, heads = (
        count_line(path, next(it, ""), key)
        for key in ("seed", "feature_dim", "attn_hidden", "tag_hidden", "heads"))
    schema = parse_schema_lines(it, path=str(path))
    if heads > len(lines):        # each head has matrix lines of its own
        raise ParseError(f"{path}: header declares {heads} heads, more than "
                         f"its {len(lines)} lines can list")
    try:
        dims = ModelDims(feature_dim, attn_hidden, tag_hidden, heads)
        want = _checkpoint_header(schema, dims, variant, seed).decode("utf-8").split("\n")
    except ConfigError as e:
        raise ParseError(f"{path}: {e}") from None
    if lines != want:
        got, line = next((g, w) for g, w in zip(lines, want) if g != w)
        raise ParseError(f"{path}: header line {got!r} should read {line!r} "
                         "for the declared dims, variant and schema")
    size = 8 * sum(rows * cols for _, rows, cols in _matrix_shapes(schema, dims, variant))
    if len(raw) - end != size:
        raise IntegrityError(f"{path}: blob is {len(raw) - end} bytes, "
                             f"header declares {size}")
    params = ModelParams.__new__(ModelParams)   # the blob fills flat: no init draws
    params._lay_out(schema, dims, variant, seed)
    params.flat[...] = np.frombuffer(raw, dtype="<f8", offset=end)
    return params
