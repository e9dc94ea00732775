"""The patch-bag tagging network.

A bag of M patch feature rows V (M x D) flows through:

  1. a transform stage: either multi-head gated attention (each head scores
     every patch, rescales its row, heads are concatenated and projected,
     with a residual connection and ReLU), or scaled dot-product attention
     as an ablation variant, or nothing at all when heads = 0;
  2. per-task attention pooling: a softmax over patches turns V' into one
     task-specific summary vector per tagging task;
  3. per-task softmax classifiers.

All stages are built from the autodiff primitives, so one backward sweep
trains every matrix jointly.
"""

import io
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import (
    ConfigError,
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

    def task_index(self, task: str) -> int:
        for i, (name, _) in enumerate(self.tasks):
            if name == task:
                return i
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


def parse_schema_lines(lines, path="<manifest>"):
    """Parse the `tasks N` / `task name c1 c2 ...` block used in manifests."""
    it = iter(lines)
    first = next(it, None)
    if first is None or not first.startswith("tasks "):
        raise ParseError(f"{path}: expected 'tasks N' line, got {first!r}")
    try:
        n = int(first.split()[1])
    except (IndexError, ValueError):
        raise ParseError(f"{path}: bad task count in {first!r}") from None
    tasks = []
    for _ in range(n):
        line = next(it, None)
        if line is None or not line.startswith("task "):
            raise ParseError(f"{path}: expected 'task ...' line, got {line!r}")
        toks = line.split()
        if len(toks) < 4:
            raise ParseError(f"{path}: task line too short: {line!r}")
        tasks.append((toks[1], tuple(toks[2:])))
    return TagSchema(tasks=tuple(tasks))


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
    M x M matrices rather than one vector per head.
    """

    bag_id: str
    head_weights: list = field(default_factory=list)  # n_heads arrays of (M,)
    tag_weights: list = field(default_factory=list)   # n_tasks arrays of (M,)


def _init_matrix(rng, rows, cols):
    bound = math.sqrt(1.0 / rows)
    return Tensor(rng.uniform(-bound, bound, size=(rows, cols)), requires_grad=True)


class ModelParams:
    """All trainable matrices, plus the dims/schema/variant that shape them.

    Immutable during inference: forward never writes to parameter data.
    Training is the single writer.
    """

    def __init__(self, schema: TagSchema, dims: ModelDims, variant: str, seed: int):
        if variant not in ("gated", "sdpa"):
            raise ConfigError(f"variant: must be 'gated' or 'sdpa', got {variant!r}")
        if variant == "sdpa" and dims.n_heads > 0:
            if dims.feature_dim % dims.n_heads != 0:
                raise ConfigError(
                    f"sdpa: feature_dim {dims.feature_dim} not divisible by "
                    f"{dims.n_heads} heads"
                )
        self.schema = schema
        self.dims = dims
        self.variant = variant
        self.seed = seed
        self.heads = []       # per head: dict of name -> Tensor
        self.proj = None      # shared output projection, None when n_heads == 0
        self.tag_gates = []   # per task: (attn_proj, attn_score)
        self.classifiers = [] # per task: feature_dim x n_classes

        rng = np.random.default_rng(seed)
        D = dims.feature_dim
        if dims.n_heads > 0:
            if variant == "gated":
                for _ in range(dims.n_heads):
                    self.heads.append({
                        "gate_proj": _init_matrix(rng, D, dims.attn_hidden),
                        "gate_score": _init_matrix(rng, dims.attn_hidden, 1),
                    })
                self.proj = _init_matrix(rng, dims.n_heads * D, D)
            else:
                d_head = D // dims.n_heads
                for _ in range(dims.n_heads):
                    self.heads.append({
                        "query": _init_matrix(rng, D, d_head),
                        "key": _init_matrix(rng, D, d_head),
                        "value": _init_matrix(rng, D, d_head),
                    })
                self.proj = _init_matrix(rng, D, D)
        for n_classes in schema.class_counts:
            self.tag_gates.append(
                (_init_matrix(rng, D, dims.tag_hidden),
                 _init_matrix(rng, dims.tag_hidden, 1))
            )
            self.classifiers.append(_init_matrix(rng, D, n_classes))

    def named_parameters(self):
        """All matrices in a fixed order (also the checkpoint blob order)."""
        out = []
        for i, head in enumerate(self.heads):
            for key, t in head.items():
                out.append((f"head{i}.{key}", t))
        if self.proj is not None:
            out.append(("proj", self.proj))
        for k, (gate_proj, gate_score) in enumerate(self.tag_gates):
            out.append((f"tag{k}.gate_proj", gate_proj))
            out.append((f"tag{k}.gate_score", gate_score))
        for k, w in enumerate(self.classifiers):
            out.append((f"tag{k}.classify", w))
        return out

    def parameters(self):
        return [t for _, t in self.named_parameters()]

    def copy(self) -> "ModelParams":
        dup = ModelParams(self.schema, self.dims, self.variant, self.seed)
        for (_, src), (_, dst) in zip(self.named_parameters(), dup.named_parameters()):
            dst.data[...] = src.data
        return dup


def head_attention(V: Tensor, gate_proj: Tensor, gate_score: Tensor) -> Tensor:
    """One gated attention head: softmax over the M patches.

    Returns the (M, 1) weight column; weights are positive and sum to 1.
    """
    if V.data.shape[0] == 0:
        raise EmptyBagError("head_attention: bag has no patches")
    hidden = ad.tanh(ad.matmul(V, gate_proj))          # (M, attn_hidden)
    logits = ad.matmul(hidden, gate_score)             # (M, 1)
    return ad.softmax(logits, axis=0)


def head_feature(V: Tensor, a: Tensor) -> Tensor:
    """Scale each patch row of V by its scalar head weight."""
    if a.data.ndim != 2 or a.data.shape != (V.data.shape[0], 1):
        raise DimensionError(
            f"head_feature: weights {a.data.shape} do not match bag {V.data.shape}"
        )
    return ad.mul(V, ad.tile_cols(a, V.data.shape[1]))


def patch_transform(V: Tensor, params: ModelParams):
    """Gated multi-head transform: concat scaled copies, project, residual, ReLU.

    Returns (V', [per-head (M, 1) weight columns]).
    """
    if V.data.shape[0] == 0:
        raise EmptyBagError("patch_transform: bag has no patches")
    weights = []
    feats = []
    for head in params.heads:
        a = head_attention(V, head["gate_proj"], head["gate_score"])
        weights.append(a)
        feats.append(head_feature(V, a))
    stacked = ad.concat(feats, axis=1)                 # (M, n_heads * D)
    transformed = ad.relu(ad.add(V, ad.matmul(stacked, params.proj)))
    return transformed, weights


def sdpa_transform(V: Tensor, params: ModelParams):
    """Scaled dot-product attention variant of the transform stage.

    Returns (V', [per-head (M, M) row-stochastic attention matrices]).
    """
    M, D = V.data.shape
    if M == 0:
        raise EmptyBagError("sdpa_transform: bag has no patches")
    d_head = D // params.dims.n_heads
    mats = []
    outs = []
    for head in params.heads:
        q = ad.matmul(V, head["query"])                # (M, d_head)
        k = ad.matmul(V, head["key"])
        v = ad.matmul(V, head["value"])
        scores = ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / math.sqrt(d_head))
        attn = ad.softmax(scores, axis=1)              # rows sum to 1
        mats.append(attn)
        outs.append(ad.matmul(attn, v))
    stacked = ad.concat(outs, axis=1)                  # (M, D)
    transformed = ad.relu(ad.add(V, ad.matmul(stacked, params.proj)))
    return transformed, mats


def tag_attention(Vp: Tensor, gate_proj: Tensor, gate_score: Tensor):
    """Pool V' into one task vector; returns ((1, D) summary, (M, 1) weights)."""
    if Vp.data.shape[0] == 0:
        raise EmptyBagError("tag_attention: bag has no patches")
    alpha = head_attention(Vp, gate_proj, gate_score)
    pooled = ad.matmul(ad.transpose(alpha), Vp)        # (1, D)
    return pooled, alpha


def predict_tag(pooled: Tensor, classifier: Tensor) -> Tensor:
    """Class probabilities for one task, shape (1, n_classes)."""
    if pooled.data.shape[1] != classifier.data.shape[0]:
        raise DimensionError(
            f"predict_tag: pooled {pooled.data.shape} vs classifier "
            f"{classifier.data.shape}"
        )
    return ad.softmax(ad.matmul(pooled, classifier), axis=1)


def forward(bag, params: ModelParams):
    """Run one bag through the network.

    `bag` is a PatchBag (or anything with .features and .bag_id). Returns
    (probs, record): probs is a list of (1, n_classes_k) probability tensors
    still attached to the graph, record holds detached attention weights.
    """
    feats = np.asarray(bag.features, dtype=np.float64)
    if feats.ndim != 2:
        raise DimensionError(f"forward: features must be 2-D, got {feats.shape}")
    if feats.shape[0] == 0:
        raise EmptyBagError(f"forward: bag {bag.bag_id!r} has no patches")
    if feats.shape[1] != params.dims.feature_dim:
        raise DimensionError(
            f"forward: bag feature dim {feats.shape[1]} != model "
            f"feature_dim {params.dims.feature_dim}"
        )
    V = Tensor(feats)
    record = AttentionRecord(bag_id=bag.bag_id)
    if params.dims.n_heads == 0:
        Vp = V
    elif params.variant == "gated":
        Vp, head_w = patch_transform(V, params)
        record.head_weights = [w.data[:, 0].copy() for w in head_w]
    else:
        Vp, _ = sdpa_transform(V, params)
    probs = []
    for (gate_proj, gate_score), classifier in zip(params.tag_gates, params.classifiers):
        pooled, alpha = tag_attention(Vp, gate_proj, gate_score)
        record.tag_weights.append(alpha.data[:, 0].copy())
        probs.append(predict_tag(pooled, classifier))
    return probs, record


def predict_probs(bag, params: ModelParams):
    """Forward pass returning plain numpy probability vectors."""
    probs, record = forward(bag, params)
    return [p.data[0].copy() for p in probs], record


# ---------------------------------------------------------------------------
# checkpoint I/O
#
# One file: a UTF-8 key-value manifest terminated by an `end` line, then the
# raw little-endian float64 blobs of every matrix concatenated in
# named_parameters() order. Round-trips are bit-exact.
# ---------------------------------------------------------------------------


def save_checkpoint(params: ModelParams, path) -> None:
    lines = [
        f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}",
        f"variant {params.variant}",
        f"seed {params.seed}",
        f"feature_dim {params.dims.feature_dim}",
        f"attn_hidden {params.dims.attn_hidden}",
        f"tag_hidden {params.dims.tag_hidden}",
        f"heads {params.dims.n_heads}",
    ]
    lines.extend(params.schema.manifest_lines())
    named = params.named_parameters()
    for name, t in named:
        rows, cols = t.data.shape
        lines.append(f"matrix {name} {rows} {cols}")
    lines.append("end")
    buf = io.BytesIO()
    buf.write(("\n".join(lines) + "\n").encode("utf-8"))
    for _, t in named:
        buf.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def _header_int(path, text, where):
    """A non-negative decimal integer from the checkpoint header."""
    if not (text.isascii() and text.isdigit()):
        raise ParseError(f"{path}: {where!r}: {text!r} is not a non-negative integer")
    return int(text)


def load_checkpoint(path) -> ModelParams:
    with open(path, "rb") as fh:
        raw = fh.read()
    nl = raw.find(b"\nend\n")
    if nl < 0:
        raise ParseError(f"{path}: no 'end' marker in checkpoint header")
    try:
        header = raw[:nl].decode("utf-8").split("\n")
    except UnicodeDecodeError:
        raise ParseError(f"{path}: checkpoint header is not UTF-8") from None
    blob = raw[nl + len(b"\nend\n"):]

    fields = {}
    matrices = []
    schema_lines = []
    for line in header:
        toks = line.split()
        if not toks:
            raise ParseError(f"{path}: blank line in header")
        if toks[0] == "matrix":
            if len(toks) != 4:
                raise ParseError(f"{path}: bad matrix line {line!r}")
            matrices.append((toks[1], _header_int(path, toks[2], line),
                             _header_int(path, toks[3], line)))
        elif toks[0] in ("tasks", "task"):
            schema_lines.append(line)
        else:
            fields[toks[0]] = toks[1] if len(toks) > 1 else ""

    if fields.get(CHECKPOINT_MAGIC) != str(CHECKPOINT_VERSION):
        raise ParseError(f"{path}: missing or unsupported checkpoint magic/version")
    for key in ("variant", "seed", "feature_dim", "attn_hidden", "tag_hidden", "heads"):
        if key not in fields:
            raise ParseError(f"{path}: header missing field {key!r}")
    schema = parse_schema_lines(schema_lines, path=str(path))
    ints = {key: _header_int(path, fields[key], key)
            for key in ("seed", "feature_dim", "attn_hidden", "tag_hidden", "heads")}
    dims = ModelDims(
        feature_dim=ints["feature_dim"],
        attn_hidden=ints["attn_hidden"],
        tag_hidden=ints["tag_hidden"],
        n_heads=ints["heads"],
    )
    params = ModelParams(schema, dims, fields["variant"], ints["seed"])

    named = params.named_parameters()
    if [m[0] for m in matrices] != [n for n, _ in named]:
        raise ParseError(f"{path}: matrix list does not match declared dims/variant")
    expected = sum(rows * cols for _, rows, cols in matrices) * 8
    if len(blob) != expected:
        raise IntegrityError(
            f"{path}: blob is {len(blob)} bytes, manifest declares {expected}"
        )
    offset = 0
    for (name, rows, cols), (_, tensor) in zip(matrices, named):
        if tensor.data.shape != (rows, cols):
            raise ParseError(f"{path}: matrix {name} has shape {rows}x{cols}, "
                             f"expected {tensor.data.shape}")
        count = rows * cols
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        tensor.data = np.ascontiguousarray(arr.reshape(rows, cols), dtype=np.float64)
        offset += count * 8
    return params
