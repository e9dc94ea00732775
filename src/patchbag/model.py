"""The patch-bag tagging network.

A bag of M patch feature rows V (M x D) flows through:

  1. a transform stage: H gated attention heads (each scores every patch
     and rescales its row; the H copies are concatenated and projected,
     with a residual connection and ReLU), or H scaled dot-product heads
     as an ablation variant, or nothing at all when H = 0;
  2. pooling by K task gates: a softmax over patches turns V' into one
     summary vector per tagging task;
  3. per-task softmax classifiers.

Each layer works on arrays and returns its value with a backward written
by hand in numpy; `forward` chains them into one backward per call, which
adds the gradient into one flat vector for every matrix at once.

The heads run side by side on a leading H axis, and the task gates on a K
axis: the caller hands V in as (..., 1, M, D), and (H, D, A) gates give
(..., H, M, A). The patch axis is -2, so a list of bags of one shape also
runs as a (B, M, D) stack, forward and backward, with the bytes of one bag
at a time: each matrix's gradient is added into its view bag by bag.
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
    if variant == "sdpa" and dims.n_heads > 0 and dims.feature_dim % dims.n_heads:
        raise ConfigError(f"sdpa: feature_dim {dims.feature_dim} not divisible by "
                          f"{dims.n_heads} heads")
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
    training is the single writer. `heads` maps each head matrix's name to
    its (H, rows, cols) view, none at 0 heads; `tag_gates` holds the
    (K, D, A) gate_proj and (K, A, 1) gate_score views. `values`, if given,
    fills `flat` in place of the seeded init draws.
    """

    def __init__(self, schema: TagSchema, dims: ModelDims, variant: str, seed: int,
                 values=None):
        draws = _matrix_shapes(schema, dims, variant)
        self.schema = schema
        self.dims = dims
        self.variant = variant
        self.seed = seed
        layout = _flat_order(draws)
        self.flat = np.empty(sum(rows * cols for _, rows, cols in layout))
        self.grad = np.zeros_like(self.flat)
        self.has_grad = False
        self._named, offsets = {}, {}
        offset = 0
        for name, rows, cols in layout:
            span = slice(offset, offset + rows * cols)
            self._named[name] = Tensor(self.flat[span].reshape(rows, cols),
                                       grad=self.grad[span].reshape(rows, cols))
            offsets[name] = offset
            offset += rows * cols
        t = self._named

        def stacked(prefix, n, key):
            """One (n, rows, cols) view of prefix0.key .. prefix{n-1}.key (one stride)."""
            start, shape = offsets[f"{prefix}0.{key}"], t[f"{prefix}0.{key}"].data.shape
            step = offsets[f"{prefix}1.{key}"] - start if n > 1 else 0
            data, grad = (np.ndarray((n, *shape), buffer=vec, offset=8 * start,
                                     strides=(8 * step, 8 * shape[1], 8))
                          for vec in (self.flat, self.grad))
            return Tensor(data, grad=grad)

        keys = [name.split(".")[1] for name in t if name.startswith("head0.")]
        self.heads = {key: stacked("head", dims.n_heads, key) for key in keys}
        self.proj = t.get("proj")   # shared output projection, None when n_heads == 0
        self.tag_gates = tuple(stacked("tag", schema.n_tasks, key)
                               for key in ("gate_proj", "gate_score"))
        self.classifiers = [t[f"tag{k}.classify"] for k in range(schema.n_tasks)]
        if values is not None:
            self.flat[...] = values
            return
        rng = np.random.default_rng(seed)
        for name, rows, cols in draws:
            bound = math.sqrt(1.0 / rows)
            t[name].data[...] = rng.uniform(-bound, bound, size=(rows, cols))

    def named_parameters(self):
        """All matrices in a fixed order (also the layout of `flat`)."""
        return list(self._named.items())

    def parameters(self):
        return list(self._named.values())

    def copy(self) -> "ModelParams":
        return ModelParams(self.schema, self.dims, self.variant, self.seed, self.flat)


def _T(x):
    """The transpose of one bag's matrix, or of each matrix in a stack."""
    return x.swapaxes(-1, -2)


def _add(target, *terms, axis=0):
    """Add terms into target in order, slice by slice along the axis they have and
    target lacks (bags, 0, or tasks, -3): the float order of one bag or task at a time."""
    extra = terms[0].ndim > target.ndim
    for parts in zip(*(t.swapaxes(axis, 0) for t in terms)) if extra else [terms]:
        for part in parts:
            target += part


def _gate(name, V, gate_proj, gate_score):
    """(..., M, 1) softmax weights over the M rows of V, from tanh(V W) w.

    backward(g, g_V, g_proj, g_score, before=()) adds the gradients at W and
    w into those arrays, and at V into g_V unless it is None: task by task,
    each after that task's terms in `before`.
    """
    if V.shape[-2] == 0:
        raise EmptyBagError(f"{name}: bag has no patches")
    hidden = np.tanh(V @ gate_proj)
    a = ad.softmax(hidden @ gate_score, axis=-2)

    def backward(g, g_V, g_proj, g_score, before=()):
        g_logits = ad.softmax_grad(a, g, axis=-2)
        _add(g_score, _T(hidden) @ g_logits)
        g_pre = (g_logits @ _T(gate_score)) * (1.0 - hidden * hidden)
        if g_V is not None:
            _add(g_V, *before, g_pre @ _T(gate_proj), axis=-3)
        _add(g_proj, _T(V) @ g_pre)

    return a, backward


def head_attention(V, gate_proj, gate_score):
    """H gated heads: (..., H, M, 1) weights of V (..., 1, M, D), and their backward."""
    return _gate("head_attention", V, gate_proj, gate_score)


def _residual_projection(V, outs, proj, head_grads):
    """relu(V + concat(outs) @ proj), the (..., H, M, d) head outputs side by
    side; V, the bag, takes no gradient.

    backward(g) adds the gradient at proj into its grad view and hands
    head_grads the gradient at outs.
    """
    side_by_side = np.swapaxes(outs, -3, -2).reshape(*V.shape[:-1], -1)
    pre = V + side_by_side @ proj.data
    mask = pre > 0.0

    def backward(g):
        g_pre = g * mask
        g_side = g_pre @ proj.data.T
        _add(proj.grad, _T(side_by_side) @ g_pre)
        head_grads(np.swapaxes(g_side.reshape(*g.shape[:-1], outs.shape[-3], -1), -3, -2))

    return np.where(mask, pre, 0.0), backward


def patch_transform(V, params: ModelParams):
    """Gated multi-head transform: concat scaled copies, project, residual, ReLU.

    Returns V', the (..., H, M, 1) head weights and the backward, which adds
    the gradients at the heads and the projection into params.grad.
    """
    if not params.heads:
        raise ContractError("transform: the model has 0 heads; it needs 1 or more")
    gate_proj, gate_score = params.heads["gate_proj"], params.heads["gate_score"]
    V_h = V[..., None, :, :]                      # every head sees the bag
    weights, gate_backward = head_attention(V_h, gate_proj.data, gate_score.data)

    def head_grads(g_outs):
        gate_backward(np.sum(g_outs * V_h, axis=-1, keepdims=True), None,
                      gate_proj.grad, gate_score.grad)

    Vp, backward = _residual_projection(V, V_h * weights, params.proj, head_grads)
    return Vp, weights, backward


def sdpa_transform(V, params: ModelParams):
    """Scaled dot-product attention variant of the transform stage.

    Returns V', the (..., H, M, M) row-stochastic attention of the heads and
    a backward like patch_transform's.
    """
    if V.shape[-2] == 0:
        raise EmptyBagError("sdpa_transform: bag has no patches")
    if not params.heads:
        raise ContractError("transform: the model has 0 heads; it needs 1 or more")
    query, key, value = (params.heads[name] for name in ("query", "key", "value"))
    V_h = V[..., None, :, :]
    q, k, v = (V_h @ w.data for w in (query, key, value))
    kT = np.ascontiguousarray(np.swapaxes(k, -1, -2))
    scale = 1.0 / math.sqrt(q.shape[-1])        # every head is d_head wide
    attn = ad.softmax((q @ kT) * scale, axis=-1)

    def head_grads(g_outs):
        g_scores = ad.softmax_grad(attn, g_outs @ _T(v), axis=-1) * scale
        _add(value.grad, _T(V_h) @ (_T(attn) @ g_outs))
        _add(query.grad, _T(V_h) @ (g_scores @ _T(kT)))
        _add(key.grad, _T(V_h) @ _T(_T(q) @ g_scores))

    Vp, backward = _residual_projection(V, attn @ v, params.proj, head_grads)
    return Vp, attn, backward


def tag_attention(Vp, gate_proj, gate_score):
    """Pool V' per task: (..., K, 1, D) summaries and (..., K, M, 1) weights
    for Vp (..., 1, M, D) and K stacked gates; one gate gives (..., 1, D).

    backward(g, g_Vp, g_proj, g_score) adds the gates' gradients into g_proj
    and g_score, and unless g_Vp is None the one at V' into g_Vp (no task
    axis): task by task, the pooling term, then the gate term.
    """
    alpha, gate_backward = _gate("tag_attention", Vp, gate_proj, gate_score)

    def backward(g, g_Vp, g_proj, g_score):
        g_alpha = _T(g @ _T(Vp))
        before = () if g_Vp is None else (alpha @ g,)
        gate_backward(g_alpha, g_Vp, g_proj, g_score, before)

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
        _add(g_classifier, _T(pooled) @ g_logits)
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
        raise DimensionError(f"forward: bag feature dim {shape[1]} != model "
                             f"feature_dim {params.dims.feature_dim}")
    record = AttentionRecord(bag_id=bag_id)
    Vp, transform_backward = feats, None
    if params.dims.n_heads > 0 and params.variant == "gated":
        Vp, head_w, transform_backward = patch_transform(feats, params)
        record.head_weights = list(np.moveaxis(head_w[..., 0], -2, 0).copy())
    elif params.dims.n_heads > 0:
        Vp, _, transform_backward = sdpa_transform(feats, params)
    gate_proj, gate_score = params.tag_gates
    pooled, alpha, pool_backward = tag_attention(Vp[..., None, :, :], gate_proj.data,
                                                 gate_score.data)
    record.tag_weights = list(np.moveaxis(alpha[..., 0], -2, 0).copy())
    probs, task_backwards = zip(*(predict_tag(pooled[..., k, :, :], classifier.data)
                                  for k, classifier in enumerate(params.classifiers)))

    def backward(g_rows):
        g_pooled = [task_backward(g, classifier.grad) for g, task_backward, classifier
                    in zip(g_rows, task_backwards, params.classifiers)]
        g_Vp = None if transform_backward is None else np.zeros_like(Vp)
        pool_backward(np.stack(g_pooled, axis=-3), g_Vp, gate_proj.grad, gate_score.grad)
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
            raise DimensionError(f"forward: bag {b.bag_id!r} has features "
                                 f"{np.shape(b.features)}, bag {bags[0].bag_id!r} "
                                 f"{first}; a stack needs one shape")
    return np.stack([np.asarray(b.features, dtype=np.float64) for b in bags])


def predict_probs(bag, params: ModelParams):
    """Forward pass returning, per task, plain numpy probabilities of shape
    (n_classes,) for one bag, or (B, n_classes) for a list of B bags."""
    probs, record = forward(bag, params)
    return [p.data[..., 0, :].copy() for p in probs], record


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
    return ModelParams(schema, dims, variant, seed, np.frombuffer(raw, "<f8", offset=end))
