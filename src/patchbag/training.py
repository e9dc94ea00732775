"""Multi-task training: weighted cross-entropy, Adam, the epoch loop,
evaluation, and attention-ranking export.

Everything is deterministic given the config seed: parameter init, epoch
shuffles and batching all derive from it, so reruns produce bit-identical
checkpoints, histories and reports on the same platform.
"""

import logging
import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError
from .metrics import MetricsReport, build_report
from .model import ModelDims, ModelParams, TagSchema, forward, predict_probs
from .plots import attention_bars_svg

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    lambdas: tuple = None        # per-task loss weights; None means all 1.0
    epochs: int = 50
    batch_size: int = 8
    seed: int = 0
    variant: str = "gated"
    heads: int = 3
    attn_hidden: int = 32
    tag_hidden: int = 32

    def validate(self, n_tasks: int) -> None:
        if self.lr < 0:
            raise ConfigError("train: lr must be >= 0")
        for name, b in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not (0.0 < b < 1.0):
                raise ConfigError(f"train: {name} must be in (0, 1)")
        if self.epsilon <= 0:
            raise ConfigError("train: epsilon must be > 0")
        if self.lambdas is not None:
            if len(self.lambdas) != n_tasks:
                raise ConfigError(
                    f"train: lambdas has {len(self.lambdas)} entries for "
                    f"{n_tasks} tasks"
                )
            if any(l < 0 for l in self.lambdas) or not any(l > 0 for l in self.lambdas):
                raise ConfigError("train: lambdas must be >= 0 with at least one > 0")
        if self.epochs < 0:
            raise ConfigError("train: epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("train: batch_size must be >= 1")
        if self.variant not in ("gated", "sdpa"):
            raise ConfigError("train: variant must be 'gated' or 'sdpa'")
        if self.heads < 0:
            raise ConfigError("train: heads must be >= 0")

    def task_lambdas(self, n_tasks: int):
        return tuple(self.lambdas) if self.lambdas is not None else (1.0,) * n_tasks


def multi_task_loss(probs_per_task, labels, lambdas) -> Tensor:
    """Weighted sum over tasks of batch-mean cross entropy.

    probs_per_task[k] is a list of (1, C_k) probability tensors, one per bag;
    labels is an (N, K) array of class indices. The log is floored at 1e-12.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n_tasks = len(probs_per_task)
    n = labels.shape[0]
    if labels.ndim != 2 or labels.shape[1] != n_tasks:
        raise ContractError(
            f"multi_task_loss: labels {labels.shape} vs {n_tasks} tasks"
        )
    total = None
    for k in range(n_tasks):
        task_probs = probs_per_task[k]
        if len(task_probs) != n:
            raise ContractError(
                f"multi_task_loss: task {k} has {len(task_probs)} prob rows "
                f"for {n} labels"
            )
        term = None
        for i, p in enumerate(task_probs):
            n_classes = p.data.shape[1]
            label = labels[i, k]
            if not (0 <= label < n_classes):
                raise ContractError(
                    f"multi_task_loss: label {label} out of range "
                    f"[0, {n_classes}) for task {k}"
                )
            onehot = np.zeros((1, n_classes))
            onehot[0, label] = 1.0
            nll = ad.scale(ad.tensor_sum(ad.mul(ad.log(p), Tensor(onehot))), -1.0)
            term = nll if term is None else ad.add(term, nll)
        weighted = ad.scale(term, lambdas[k] / n)
        total = weighted if total is None else ad.add(total, weighted)
    return total


class Adam:
    """Adam with bias correction; update = -lr * m_hat / (sqrt(v_hat) + eps)."""

    def __init__(self, named_params, lr=1e-4, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.named = list(named_params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.t = 0
        self.m = [np.zeros_like(t.data) for _, t in self.named]
        self.v = [np.zeros_like(t.data) for _, t in self.named]

    def step(self) -> None:
        self.t += 1
        for i, (name, p) in enumerate(self.named):
            if p.grad is None:
                raise ContractError(f"adam: parameter {name!r} has no gradient")
            g = p.grad
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g * g
            m_hat = self.m[i] / (1 - self.beta1 ** self.t)
            v_hat = self.v[i] / (1 - self.beta2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.epsilon)

    def zero_grad(self) -> None:
        for _, p in self.named:
            p.zero_grad()


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_macro_f1: tuple = ()      # per task; empty when there is no val split
    val_micro_f1: tuple = ()
    val_avg_macro_f1: float = None


@dataclass
class TrainResult:
    params: ModelParams           # best-validation snapshot (final if no val)
    history: list = field(default_factory=list)
    best_epoch: int = -1


def _check_bags(bags, schema, what):
    dims = {b.features.shape[1] for b in bags}
    if len(dims) > 1:
        raise ConfigError(f"train: {what} split mixes feature dims {sorted(dims)}")
    counts = schema.class_counts
    for b in bags:
        if len(b.labels) != schema.n_tasks:
            raise ConfigError(f"train: bag {b.bag_id!r} label count != tasks")
        for k, label in enumerate(b.labels):
            if not (0 <= label < counts[k]):
                raise ConfigError(
                    f"train: bag {b.bag_id!r} label {label} out of range for "
                    f"task {schema.task_names[k]!r}"
                )


def train(train_bags, val_bags, schema: TagSchema, config: TrainConfig) -> TrainResult:
    """Train on the train split, selecting the best-validation checkpoint.

    Selection criterion is the average over tasks of validation Macro F1;
    with an empty validation split the final parameters are returned.
    """
    if not train_bags:
        raise ConfigError("train: empty training split")
    config.validate(schema.n_tasks)
    _check_bags(train_bags, schema, "train")
    if val_bags:
        _check_bags(val_bags, schema, "val")

    feature_dim = train_bags[0].features.shape[1]
    dims = ModelDims(
        feature_dim=feature_dim,
        attn_hidden=config.attn_hidden,
        tag_hidden=config.tag_hidden,
        n_heads=config.heads,
    )
    params = ModelParams(schema, dims, config.variant, config.seed)
    lambdas = config.task_lambdas(schema.n_tasks)
    adam = Adam(params.named_parameters(), lr=config.lr, beta1=config.beta1,
                beta2=config.beta2, epsilon=config.epsilon)
    shuffle_rng = np.random.default_rng(
        np.random.SeedSequence(config.seed).spawn(1)[0]
    )

    history = []
    best = params.copy()
    best_score = -1.0
    best_epoch = -1
    n = len(train_bags)
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        losses = []
        for start in range(0, n, config.batch_size):
            batch = [train_bags[i] for i in order[start:start + config.batch_size]]
            adam.zero_grad()
            per_task = [[] for _ in range(schema.n_tasks)]
            labels = np.array([b.labels for b in batch], dtype=np.int64)
            for bag in batch:
                probs, _ = forward(bag, params)
                for k, p in enumerate(probs):
                    per_task[k].append(p)
            loss = multi_task_loss(per_task, labels, lambdas)
            ad.backward(loss)
            adam.step()
            losses.append(float(loss.data))
        rec = EpochRecord(epoch=epoch, train_loss=float(np.mean(losses)))
        if val_bags:
            report = evaluate(params, val_bags)
            rec.val_macro_f1 = tuple(t.macro_f1 for t in report.tasks)
            rec.val_micro_f1 = tuple(t.micro_f1 for t in report.tasks)
            rec.val_avg_macro_f1 = report.avg_macro_f1
            if report.avg_macro_f1 > best_score:
                best_score = report.avg_macro_f1
                best = params.copy()
                best_epoch = epoch
        history.append(rec)
        log.info("epoch %d: train_loss=%.6f val_avg_macro=%s", epoch,
                 rec.train_loss, rec.val_avg_macro_f1)
    if not val_bags or best_epoch < 0:
        best = params.copy()
        best_epoch = config.epochs - 1
    return TrainResult(params=best, history=history, best_epoch=best_epoch)


def evaluate(params: ModelParams, bags) -> MetricsReport:
    """Metrics of argmax predictions over a dataset; order-invariant."""
    if not bags:
        raise ConfigError("evaluate: empty dataset")
    predictions = []
    for bag in bags:
        probs, _ = predict_probs(bag, params)
        predictions.append([int(np.argmax(p)) for p in probs])
    truths = np.array([b.labels for b in bags], dtype=np.int64)
    return build_report(params.schema, truths, np.array(predictions, dtype=np.int64))


def history_csv_lines(history, schema: TagSchema):
    cols = ["epoch", "train_loss"]
    cols += [f"val_macro_f1_{name}" for name in schema.task_names]
    cols += [f"val_micro_f1_{name}" for name in schema.task_names]
    lines = [",".join(cols)]
    for rec in history:
        row = [str(rec.epoch), repr(rec.train_loss)]
        if rec.val_macro_f1:
            row += [repr(v) for v in rec.val_macro_f1]
            row += [repr(v) for v in rec.val_micro_f1]
        else:
            row += [""] * (2 * schema.n_tasks)
        lines.append(",".join(row))
    return lines


def write_history_csv(history, schema: TagSchema, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(history_csv_lines(history, schema)) + "\n")


def _safe_name(bag_id: str) -> str:
    return "".join(c if (c.isalnum() or c in "-_.") else "_" for c in bag_id)


def rank_patches(weights):
    """Indices sorted by weight descending, ties broken by patch index."""
    weights = np.asarray(weights)
    idx = np.arange(len(weights))
    return idx[np.lexsort((idx, -weights))]


def export_attention(params: ModelParams, bags, out_dir, svg: bool = False):
    """Write per-bag CSVs ranking patches by per-task attention weight.

    Weights are written with repr(), so parsing them back gives the exact
    float64 values the forward pass produced.
    """
    os.makedirs(out_dir, exist_ok=True)
    schema = params.schema
    written = []
    for bag in bags:
        _, record = predict_probs(bag, params)
        name = _safe_name(bag.bag_id)
        path = os.path.join(out_dir, f"attention_{name}.csv")
        lines = ["task,rank,patch_index,weight"]
        for task, weights in zip(schema.task_names, record.tag_weights):
            for rank, patch in enumerate(rank_patches(weights)):
                lines.append(f"{task},{rank},{patch},{float(weights[patch])!r}")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        written.append(path)
        if svg:
            svg_path = os.path.join(out_dir, f"attention_{name}.svg")
            with open(svg_path, "w", encoding="utf-8") as fh:
                fh.write(attention_bars_svg(record.tag_weights, schema.task_names))
            written.append(svg_path)
    return written
