"""Multi-task training: the weighted cross-entropy loss and its backward,
Adam, the epoch loop, evaluation, and attention-ranking export.

Everything is deterministic given the config seed: parameter init, epoch
shuffles and batching all derive from it, so reruns produce bit-identical
checkpoints, histories and reports on the same platform.

Evaluation (also validation inside `train`) and export run bags of one
feature shape as stacks of up to STACK_BAGS through one `forward` each,
which gives every bag the bytes it gets alone. A training step runs each
run of consecutive equal-shape bags in its batch as one stacked `forward`
and backward (a run of one stays one bag), whose backward adds parameter
gradients bag by bag in batch order: the trained bytes are those of one
bag at a time. Training never reads a forward's attention record, so it
never arranges the weights; export takes the raw (B, K, M) task weights.
"""

import logging
import os
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from . import autodiff as ad
from .bagio import check_bags
from .errors import ConfigError, ContractError
from .metrics import MetricsReport, build_report
from .model import ModelDims, ModelParams, TagSchema, forward
from .plots import attention_bars_svg

log = logging.getLogger(__name__)

STACK_BAGS = 32   # bags per stacked forward in evaluate and export_attention
LOG_FLOOR = 1e-12  # the loss clamps probabilities here before taking the log


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
        if self.seed < 0:
            raise ConfigError("train: seed must be >= 0")
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

    def task_lambdas(self, n_tasks: int):
        return tuple(self.lambdas) if self.lambdas is not None else (1.0,) * n_tasks


def multi_task_loss(probs_per_task, labels, lambdas) -> ad.Tensor:
    """Weighted sum over tasks of batch-mean cross entropy: the sum over k of
    lambdas[k] / N times the sum over i of -log p_ik[label_ik].

    probs_per_task[k] is task k's list of probability tensors: each holds
    one bag's (1, C_k) row or a stack's (B, 1, C_k) rows, bags in label
    order, and every task's list is cut into the same runs of bags. labels
    is an (N, K) array of class indices. Probabilities are clamped below at
    LOG_FLOOR, where the log is flat and so passes back no gradient. Both
    sums run in order. The loss's backward calls each run's shared backward
    once, in bag order, with the run's K gradient arrays.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n_tasks = len(probs_per_task)
    if (labels.ndim != 2 or labels.shape[1] != n_tasks or not labels.size
            or len(lambdas) != n_tasks):
        raise ContractError(
            f"multi_task_loss: labels {labels.shape} and {len(lambdas)} lambdas for "
            f"{n_tasks} tasks; need (N >= 1, {n_tasks}) labels and {n_tasks} lambdas"
        )
    n = labels.shape[0]
    counts = [[p.data.size // p.data.shape[-1] for p in task_probs]
              for task_probs in probs_per_task]          # bags per tensor
    for k, (task_probs, task_counts) in enumerate(zip(probs_per_task, counts)):
        widths = sorted({p.data.shape[-1] for p in task_probs})
        if len(widths) > 1:
            raise ContractError(f"multi_task_loss: task {k} mixes class counts {widths}")
        if sum(task_counts) != n:
            raise ContractError(
                f"multi_task_loss: task {k} has {sum(task_counts)} prob rows "
                f"for {n} labels"
            )
        if task_counts != counts[0]:
            raise ContractError(
                f"multi_task_loss: task {k} cuts its bags into runs {task_counts}, "
                f"task 0 into {counts[0]}"
            )
    rows = [task[0].data.reshape(n, -1) if len(task) == 1 else   # a view, no copy
            np.concatenate([p.data.reshape(-1, p.data.shape[-1]) for p in task])
            for task in probs_per_task]                          # (N, C_k) each
    for row in labels.tolist():
        for k, (label, task_rows) in enumerate(zip(row, rows)):
            if not 0 <= label < task_rows.shape[1]:
                raise ContractError(
                    f"multi_task_loss: label {label} out of range "
                    f"[0, {task_rows.shape[1]}) for task {k}"
                )
    bags = np.arange(n)
    x = np.array([task_rows[bags, task_labels]
                  for task_rows, task_labels in zip(rows, labels.T)])
    clamped = np.maximum(x, LOG_FLOOR)                           # (K, N)
    weights = np.array([lam / n for lam in lambdas], dtype=np.float64)
    terms = (-np.log(clamped)).cumsum(axis=1)[:, -1]
    total = (terms * weights).cumsum()[-1]

    def backward_fn(g):
        grads = np.where(x > LOG_FLOOR, -(g * weights)[:, None] / clamped, 0.0)
        g_rows = [np.zeros(task_rows.shape) for task_rows in rows]
        for g_task, task_labels, task_grads in zip(g_rows, labels.T, grads):
            g_task[bags, task_labels] = task_grads
        start = 0
        for run, count in zip(zip(*probs_per_task), counts[0]):  # the K tensors of a run
            run[0]._backward([g_task[start:start + count].reshape(p.data.shape)
                              for g_task, p in zip(g_rows, run)])
            start += count

    trainable = all(p._backward for p in probs_per_task[0])
    return ad.Tensor(total, backward_fn if trainable else None)


class Adam:
    """Adam with bias correction; update = -lr * m_hat / (sqrt(v_hat) + eps).

    Updates params.flat in place from params.grad, where `params` is a
    ModelParams (or any object with `flat`, `grad` and `has_grad`). Each
    step reuses buffers made here, so it allocates no array.
    """

    def __init__(self, params, lr=1e-4, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.t = 0
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        self._num, self._den = np.empty_like(params.flat), np.empty_like(params.flat)

    def step(self) -> None:
        if not self.params.has_grad:
            raise ContractError("adam: no backward has run since zero_grad")
        self.t += 1
        g, num, den = self.params.grad, self._num, self._den
        self.m *= self.beta1
        self.m += np.multiply(g, 1 - self.beta1, out=num)
        self.v *= self.beta2
        self.v += np.multiply(np.multiply(g, 1 - self.beta2, out=num), g, out=num)
        np.divide(self.m, 1 - self.beta1 ** self.t, out=num)   # m_hat
        num *= self.lr
        np.divide(self.v, 1 - self.beta2 ** self.t, out=den)   # v_hat
        np.sqrt(den, out=den)
        den += self.epsilon
        self.params.flat -= np.divide(num, den, out=num)

    def zero_grad(self) -> None:
        self.params.grad.fill(0.0)
        self.params.has_grad = False


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


def train(train_bags, val_bags, schema: TagSchema, config: TrainConfig) -> TrainResult:
    """Train on the train split, selecting the best-validation checkpoint.

    Selection criterion is the average over tasks of validation Macro F1;
    with an empty validation split the final parameters are returned.
    """
    if not train_bags:
        raise ConfigError("train: empty training split")
    config.validate(schema.n_tasks)
    check_bags([*train_bags, *(val_bags or ())], schema, ConfigError, "train")

    dims = ModelDims(feature_dim=train_bags[0].features.shape[1],
                     attn_hidden=config.attn_hidden, tag_hidden=config.tag_hidden,
                     n_heads=config.heads)
    params = ModelParams(schema, dims, config.variant, config.seed)
    lambdas = config.task_lambdas(schema.n_tasks)
    adam = Adam(params, lr=config.lr, beta1=config.beta1,
                beta2=config.beta2, epsilon=config.epsilon)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])

    history = []
    best = params.copy()
    best_score = -1.0
    best_epoch = -1
    n = len(train_bags)
    labels = np.array([b.labels for b in train_bags], dtype=np.int64)
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        losses = []
        for start in range(0, n, config.batch_size):
            picked = order[start:start + config.batch_size]
            batch = [train_bags[i] for i in picked]
            adam.zero_grad()
            per_task = [[] for _ in range(schema.n_tasks)]
            for run in _equal_shape_runs(batch) if len(batch) > 1 else [batch]:
                probs, _ = forward(run if len(run) > 1 else run[0], params)
                for k, p in enumerate(probs):
                    per_task[k].append(p)
            loss = multi_task_loss(per_task, labels[picked], lambdas)
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


def _equal_shape_runs(batch):
    """The batch cut into maximal runs of consecutive bags of one feature shape.

    Runs keep batch order, so gradients are added in the order of one bag
    at a time; grouping equal shapes across the batch would reorder them.
    """
    return [list(run) for _, run in groupby(batch, key=lambda b: np.shape(b.features))]


def evaluate(params: ModelParams, bags) -> MetricsReport:
    """Metrics of argmax predictions over a dataset; order-invariant."""
    if not bags:
        raise ConfigError("evaluate: empty dataset")
    predictions = np.empty((len(bags), params.schema.n_tasks), dtype=np.int64)
    for chunk, probs, _ in _stacked_forwards(params, bags):
        for k, p in enumerate(probs):
            predictions[chunk, k] = np.argmax(p.data[:, 0], axis=-1)
    truths = np.array([b.labels for b in bags], dtype=np.int64)
    return build_report(params.schema, truths, predictions)


def _stacked_forwards(params: ModelParams, bags):
    """Yields (indices, probs, record) of one stacked `forward` at a time.

    Bags are grouped by feature shape (M, D), groups in first-seen order,
    and each group is cut into stacks of up to STACK_BAGS bags; indices
    are the stack's positions in `bags`.
    """
    groups = {}
    for i, bag in enumerate(bags):
        groups.setdefault(np.shape(bag.features), []).append(i)
    for indices in groups.values():
        for start in range(0, len(indices), STACK_BAGS):
            chunk = indices[start:start + STACK_BAGS]
            probs, record = forward([bags[i] for i in chunk], params)
            yield chunk, probs, record


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


def rank_patches(weights):
    """Indices sorting the last axis by weight descending, ties by patch index."""
    return np.argsort(-np.asarray(weights), axis=-1, kind="stable")


def export_attention(params: ModelParams, bags, out_dir, svg: bool = False):
    """Write per-bag CSVs ranking patches by per-task attention weight.

    Weights are written with repr(), so parsing them back gives the exact
    float64 values the forward pass produced. Each stack's files are
    written as soon as it has run; the paths come back in bag order.
    """
    os.makedirs(out_dir, exist_ok=True)
    task_names = params.schema.task_names
    written = [None] * len(bags)
    for chunk, _, record in _stacked_forwards(params, bags):
        weights = record.alpha[..., 0]                          # (B, K, M)
        order = rank_patches(weights)
        ranked = np.take_along_axis(weights, order, axis=-1)
        for i, bag_order, bag_ranked, bag_weights in zip(chunk, order.tolist(),
                                                         ranked.tolist(), weights):
            path = os.path.join(out_dir, f"attention_{bags[i].bag_id}.csv")
            lines = ["task,rank,patch_index,weight"]
            for task, patches, task_weights in zip(task_names, bag_order, bag_ranked):
                lines.extend(f"{task},{rank},{patch},{weight!r}" for rank, (patch, weight)
                             in enumerate(zip(patches, task_weights)))
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("\n".join(lines) + "\n")
            written[i] = [path]
            if svg:
                svg_path = os.path.join(out_dir, f"attention_{bags[i].bag_id}.svg")
                with open(svg_path, "w", encoding="utf-8") as fh:
                    fh.write(attention_bars_svg(bag_weights, task_names))
                written[i].append(svg_path)
    return [path for paths in written for path in paths]
